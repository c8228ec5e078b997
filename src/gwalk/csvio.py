"""CSV and manifest helpers: ``write_csv``, the one writer, takes rows or a grid.

Grids are formatted by a numpy kernel that gives the bytes of ``b"%.17g" % x``
for whole float64 blocks (``_format17``): the exact 17-digit decimal comes
from the binary mantissa times a power of five in 28-bit limbs, its digits
from a 4-digit table, and the ``%g`` layout from one table of byte offsets.
The tables are built on the first grid write.

A grid's fields may be one period of it: each axis is as long as the fields
or twice as long, and the fields repeat along a doubled axis, as the 2π cell
of ``spectral.SpectrumGrid``'s [-2π, 2π)² zone does.  One loop formats each
block of the fields' rows, about ``_BLOCK`` values per kernel call, copies
the text into the column translate and writes the rows, then again with the
qX text of their row translate; those rows come later in the file, so they
wait in an anonymous temporary file beside it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import os
import shutil
import tempfile
import types
from collections import namedtuple

import numpy as np

# ---------------------------------------------------------------------------
# exact %.17g of float64 blocks
# ---------------------------------------------------------------------------
#
# The kernel works on int64 only, with shifts in place of comparisons, and
# takes from tables: each distinct numpy inner loop it runs maps more of
# numpy's code into memory (64 KiB at a time), which peak RSS counts.

def _bits(x: float) -> int:
    return int(np.array(x).view(np.int64))


_LIMB, _MASK = 28, (1 << 28) - 1
#: text width: the longest ``%.17g`` (24 bytes, "-2.2250738585072014e-308")
#: and its separator
_WIDTH = 25
#: bytes of one value's source row, which the layout table indexes:
#:   0 NUL, 1 the sign ('-' or NUL), 2 '.', 3 'e', 4..6 '0', 7..23 the 17
#:   digits, 24, 25 '0', 26, 27 the two exponent digits, 28 the separator,
#:   29 '-'; the scientific form's exponents are all negative
_SOURCE = 32
#: values laid out per gather
_GATHER = 256


def _layout_table() -> np.ndarray:
    """Byte offsets of every ``%.17g`` text in a source row, right-aligned
    in ``_WIDTH`` and ending with the separator.

    Row ``form * 18 + digits``: ``form`` is the decimal exponent plus 4 for
    the fixed forms (-4..15) and 20 for the scientific one (exponent
    -39..-5), ``digits`` the significant digits (1..17).  A fraction digit
    past ``digits`` is a trailing zero and is left out, and so is the point
    when no fraction digit is left.  Every text starts with the sign byte.
    """
    rows = []
    for form in range(21):
        exponent = 0 if form == 20 else form - 4
        if exponent < 0:                        # 0.000ddd: all fraction digits
            whole, text = 0, [4, 2] + [4] * (-exponent - 1)
        else:                                   # ddd.ddd, or d.ddd e-XX
            whole, text = exponent + 1, list(range(7, 8 + exponent))
        tail = [3, 29, 26, 27, 28] if form == 20 else [28]
        for digits in range(18):
            kept = max(digits, whole)
            fraction = list(range(7 + whole, 7 + kept))
            point = [2] if fraction and whole else []
            body = [1] + text + point + fraction + tail
            rows.append([0] * (_WIDTH - len(body)) + body)
    return np.array(rows)


@functools.cache
def _tables() -> types.SimpleNamespace:
    """The kernel's tables, built on its first call rather than at import:
    a run that writes no grid never pays for them."""
    t = types.SimpleNamespace()
    # |x| in [1e-39, 1e16) takes the kernel; 0, subnormals, non-finite and
    # other magnitudes take Python's ``%``.  Over this range 5**k fits in
    # five 28-bit limbs: 5**56 < 2**131, for x = 1e-39 < 10**-39.
    t.fast, t.one = (_bits(1e-39), _bits(1e16)), _bits(1.0)
    t.pow5 = np.array([[(5 ** k >> _LIMB * j) & _MASK for k in range(57)] for j in range(5)])
    # limbs of 5**k, by k, and the first bit of each limb
    t.pow5_limbs = [-(-(5 ** k).bit_length() // _LIMB) for k in range(57)]
    t.limb_start = _LIMB * np.arange(6)[:, None]
    # floor(1024 log2(1 + i / 1024)): log2 of the mantissa's top ten bits
    t.log2_top = np.array([math.floor(1024 * math.log2(1 + i / 1024)) for i in range(1024)])
    # the four ASCII digits of 0..9999 as one word, and their trailing
    # zeros; built with the int64 loops the kernel runs anyway
    digits4 = np.empty((10000, 4), np.uint8)
    t.zeros4 = np.zeros(10000, np.int64)
    rest, digits = np.arange(10000), []
    for i, place in enumerate((1000, 100, 10, 1)):
        digit, rest = np.divmod(rest, place)
        digits4[:, i] = digit + ord("0")
        digits.append(digit)
    run = -1                            # -1 while every digit from the right is 0
    for digit in reversed(digits):
        run = run & ((digit - 1) >> 63)
        t.zeros4 -= run
    t.words4 = digits4.view(np.uint32).ravel()
    t.heads = np.frombuffer(b"\0\0.e\0-.e", np.uint32)    # by sign
    t.layout = _layout_table()
    # the offsets of a gather's source rows
    t.row_starts = _SOURCE * np.arange(_GATHER)[:, None]
    return t


def _round17(m, e2, x10):
    """``m * 2**e2 * 10**(16 - x10)`` rounded half to even, exactly.

    ``m * 5**k`` is summed in 28-bit limbs and shifted right by ``-(e2 + k)``
    bits, keeping one more: the half bit.  The bits below it are zero only
    where ``m`` has as many trailing zero bits, as 5**k is odd.
    """
    t = _tables()
    k = 16 - x10
    m = m << 3                      # e2 + k <= 2 below 1e16: the cut stays >= 0
    cut = 2 - e2 - k                # the half bit's position in m * 5**k
    limbs = t.pow5_limbs[k[k.argmax()]]   # k.max() would map one more loop
    p = t.pow5[:limbs].take(k, axis=1)
    acc = np.zeros((limbs + 1, m.size), np.int64)
    np.multiply(p, m & _MASK, out=acc[:-1])
    p *= m >> _LIMB
    acc[1:] += p
    del p
    for j in range(limbs):
        acc[j + 1] += acc[j] >> _LIMB
        acc[j] &= _MASK
    # limb j moves left by its first bit minus the cut; a negative shift
    # count gives 0, so each limb takes the one of its two shifts it needs
    left = t.limb_start[:limbs + 1] - cut
    high = acc << left
    acc >>= np.negative(left, out=left)
    acc |= high
    del left, high
    twice = np.bitwise_or.reduce(acc, axis=0)
    del acc
    # round up where the half bit is set and q is odd or bits below are set
    odd_or_rest = (m & ((1 << cut) - 1)) | (twice & 2)   # 1 << 64 or more is 0
    return (twice + ((odd_or_rest + (1 << 62) - 1) >> 62)) >> 1


def _format17(values, sep: bytes, out) -> None:
    """Write ``b"%.17g" % x + sep`` of each float64 into the rows of ``out``,
    a ``(n, _WIDTH)`` uint8 array, right-aligned after NUL padding.

    Each intermediate is freed once spent, which keeps a block's working
    memory to a few hundred bytes per value."""
    t = _tables()
    n = values.size
    bits = values.view(np.int64)
    a = bits & ((1 << 63) - 1)
    gap = (a - t.fast[0]) | (t.fast[1] - 1 - a)   # negative outside the range
    slow = np.flatnonzero(gap >> 63)
    a[slow] = t.one
    m = (a & ((1 << 52) - 1)) | (1 << 52)
    e2 = (a >> 52) - 1075
    del a, gap
    # a lower bound of 1024 log2 |x| times log10(2) 2**40, just below it:
    # floor(log10 |x|) or one less, for every |x| in the range
    log2 = ((e2 + 52) << 10) + t.log2_top.take((m >> 42) & 1023)
    x10 = (log2 * 330985980541) >> 50
    del log2
    q = _round17(m, e2, x10)
    # q >= 10**17 where x10 was one less, or where the value rounds up to
    # 10**(x10 + 1): take those again one decade up
    up = np.flatnonzero((10 ** 17 - 1 - q) >> 63)
    if up.size:
        x10[up] += 1
        q[up] = _round17(m[up], e2[up], x10[up])
    digits = np.empty((5, n), np.int64)      # the first digit, then 4 x 4
    high, low = np.divmod(q, 10 ** 8)
    np.divmod(high, 10 ** 8, out=(digits[0], high))
    np.divmod(high, 10 ** 4, out=(digits[1], digits[2]))
    np.divmod(low, 10 ** 4, out=(digits[3], digits[4]))
    del q, high, low
    source = np.empty((n, _SOURCE // 4), np.uint32)
    source[:, 0] = t.heads.take((bits >> 63) & 1)
    source[:, 1:6] = t.words4.take(digits).T
    source[:, 6] = t.words4.take(-x10 & 127)     # -x10 where scientific
    source[:, 7] = np.frombuffer((sep + b"-").ljust(4, b"\0"), np.uint32)[0]
    zeros = t.zeros4.take(digits[4])
    for g in (3, 2, 1):             # the groups right of g are all zeros:
        more = np.flatnonzero((zeros + 4 * g) >> 4)     # count on into g
        if not more.size:
            break
        zeros[more] += t.zeros4.take(digits[g, more])
    form = x10 + 4                  # the fixed forms, 0..19
    form[np.flatnonzero(form >> 63)] = 20       # and the scientific one
    code = form * 18 + 17 - zeros
    del digits, zeros
    flat = source.view(np.uint8).ravel()
    for start in range(0, n, _GATHER):      # bounds the (values, _WIDTH) index
        index = t.layout.take(code[start:start + _GATHER], axis=0)
        index += t.row_starts[:len(index)] + _SOURCE * start
        out[start:start + _GATHER] = flat.take(index)
    if slow.size:
        text = b"".join((b"%.17g" % x + sep).rjust(_WIDTH, b"\0")
                        for x in values[slow].tolist())
        out[slow] = np.frombuffer(text, np.uint8).reshape(-1, _WIDTH)


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------

#: values formatted per ``_format17`` call
_BLOCK = 1024


def _texts(values, sep: bytes, right: bool) -> np.ndarray:
    """``b"%.17g" % v + sep`` of each axis value, NUL-padded to one width."""
    texts = [b"%.17g" % v + sep for v in values]
    width = max(map(len, texts), default=0)
    pad = bytes.rjust if right else bytes.ljust
    joined = b"".join(pad(t, width, b"\0") for t in texts)
    return np.frombuffer(joined, np.uint8).reshape(len(texts), width)


class Grid(namedtuple("Grid", "fields axes")):
    """2D fields of one shape, one period of the grid their axes span, written
    by ``write`` (module docstring)."""

    def write(self, fh) -> int:
        """Write the rows to ``fh``; returns their count."""
        n1, n2 = len(self.axes[0]), len(self.axes[1])
        cell = np.shape(self.fields[0])
        for f in self.fields:
            if (np.shape(f) != cell or n1 not in (cell[0], 2 * cell[0])
                    or n2 not in (cell[1], 2 * cell[1])):
                raise ValueError(f"grid field of shape {np.shape(f)} does not fit "
                                 f"axes of lengths {n1}, {n2}")
            if np.iscomplexobj(f):
                raise TypeError("%.17g takes real grid fields, not complex ones")
        if not n1 * n2:
            return 0
        p1, p2 = cell
        # whole lines per write, about one kernel call's: more raise peak RSS
        chunk = max(1, _BLOCK // n2) * n2
        xs = _texts(self.axes[0], b",", right=True)
        ys = _texts(self.axes[1], b",", right=False)
        seps = [b","] * (len(self.fields) - 1) + [b"\n"]
        rows = max(1, _BLOCK // p2)         # field rows per kernel call
        wx, wy = xs.shape[1], ys.shape[1]
        lines = np.empty((rows, n2 // p2, p2, wx + wy + _WIDTH * len(seps)), np.uint8)
        lines[..., wx:wx + wy] = ys.reshape(n2 // p2, p2, wy)
        texts = np.empty((rows * p2, _WIDTH), np.uint8)
        # rows p1.. of a doubled first axis follow rows ..p1 in the file: they
        # wait in an anonymous file beside it
        spill = (tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(fh.name)))
                 if n1 == 2 * p1 else contextlib.nullcontext())
        with spill as later:
            for start in range(0, p1, rows):
                stop = min(start + rows, p1)
                block, text = lines[:stop - start], texts[:(stop - start) * p2]
                for i, (f, sep) in enumerate(zip(self.fields, seps)):
                    _format17(np.asarray(f[start:stop], np.float64).ravel(), sep, text)
                    col = wx + wy + _WIDTH * i
                    block[..., col:col + _WIDTH] = text.reshape(-1, 1, p2, _WIDTH)
                flat = block.reshape(-1, block.shape[-1])
                for k, out in enumerate((fh, later)[:n1 // p1]):
                    block[..., :wx] = xs[k * p1 + start:k * p1 + stop, None, None]
                    for s in range(0, len(flat), chunk):
                        out.write(flat[s:s + chunk].tobytes().translate(None, b"\0"))
            if later is not None:
                later.seek(0)
                shutil.copyfileobj(later, fh, 1 << 16)
        return n1 * n2


def write_csv(path, header, rows) -> int:
    """Write rows, or a ``grid_rows`` grid, under a header; returns the row count.

    Every value is written as ``%.17g`` (reals keep 17 digits, integers stay
    integers), through ``replacing``: a failure leaves no partial file.
    """
    grid = isinstance(rows, Grid)
    if grid and len(header) != 2 + len(rows.fields):
        raise ValueError(f"header {header} does not fit {len(rows.fields)} grid fields")
    template = b",".join([b"%.17g"] * len(header)) + b"\n"
    count = 0
    with replacing(path) as fh:
        fh.write(",".join(header).encode() + b"\n")
        if grid:
            count = rows.write(fh)
        else:
            for row in rows:
                fh.write(template % tuple(row))
                count += 1
    return count


@contextlib.contextmanager
def replacing(path, mode: str = "wb"):
    """A sibling temporary file that replaces ``path`` if the block completes
    and is removed if it fails."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def grid_rows(*fields, axes=None) -> Grid:
    """Rows (x, y, f[i, j], ...) of equally shaped 2D arrays, y fastest, as a
    ``Grid``; the axes default to ``range(n1), range(n2)``, and an axis twice
    as long repeats the arrays along it."""
    return Grid(fields, tuple(map(range, fields[0].shape)) if axes is None else axes)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
