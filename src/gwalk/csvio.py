"""CSV and manifest helpers: ``write_csv``, the one writer, takes rows or a grid."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import os
from collections import namedtuple


class Grid(namedtuple("Grid", "fields axes")):
    """2D fields of one shape and their axes.  ``chunks`` formats each axis value
    once and yields (text, rows) per first-axis row, filled by one ``%`` call."""
    def chunks(self):
        k, n2 = len(self.fields), len(self.axes[1])
        cells = ["", *("," + "%.17g" % y + ",%.17g" * k + "\n" for y in self.axes[1])]
        values = [None] * (n2 * k)
        for x, row in zip(self.axes[0], zip(*self.fields, strict=True), strict=True):
            for i, r in enumerate(row):
                values[i::k] = r.tolist()
            yield ("%.17g" % x).join(cells) % tuple(values), n2


def write_csv(path, header, rows) -> int:
    """Write rows, or a ``grid_rows`` grid, under a header; returns the row count.

    Every value is written as ``%.17g`` (reals keep 17 digits, integers stay
    integers) to a sibling temporary file that replaces ``path`` only once
    complete, so a failure leaves neither a truncated file nor the temporary one.
    """
    grid = isinstance(rows, Grid)
    if grid and len(header) != 2 + len(rows.fields):
        raise ValueError(f"header {header} does not fit {len(rows.fields)} grid fields")
    template = ",".join(["%.17g"] * len(header)) + "\n"
    chunks = rows.chunks() if grid else ((template % tuple(row), 1) for row in rows)
    tmp = f"{os.fspath(path)}.tmp"
    count = 0
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for text, n in chunks:
                fh.write(text)
                count += n
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return count


def grid_rows(*fields, axes=None) -> Grid:
    """Rows (x, y, f[i, j], ...) of equally shaped 2D arrays, y fastest, as a
    ``Grid``; the axes default to ``range(n1), range(n2)``."""
    return Grid(fields, tuple(map(range, fields[0].shape)) if axes is None else axes)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    """Read back a numeric CSV written by this package."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows
