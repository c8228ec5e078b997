"""Unitary lattice walk: spinor fields, coin gates, shifts and the full step.

The walker carries a two-component spinor on a finite periodic L1 x L2
lattice.  One time step applies, right to left,

    V_j = Pi^-1 [W_1(th12) W_2(th22)] Pi [W_2(th21) W_1(th11)] Q(eps*(m - T/4))

where W_k(th) = R^-1(th) U(th) S_k U(th) S_k R(th) is a pair of
spin-dependent double jumps S_k dressed by local coin rotations, and T is
the time-difference scalar built from the four cosine fields (see
:func:`t_epsilon`).  The chain is written once, as a gate list that
:func:`step` applies in real space.  Where two W blocks meet, U(th), then
R^-1(th), then R(th') is the single gate U((th + th')/2), and the last
U(th), then R^-1(th), is one gate too (:func:`_w_chain`), so a step runs

    Q, R(th11) S_1, U(th11) S_1, U((th11 + th21)/2) S_2, U(th21) S_2,
    [R^-1 U](th21), Pi, R(th22) S_2, U(th22) S_2, U((th22 + th12)/2) S_1,
    U(th12) S_1, [R^-1 U](th12), Pi^-1

in order: 13 gates, 11 of them per-site.  Neighbouring scalar gates with
no shift between them are fused further (9 gates per step for
space-uniform angles).  The other shift-free runs, Q then R(th11) and
the runs through Pi, do not fuse into one real gate: the diag(1, +-i)
between their rotations leaves phases that vary from site to site.

Each time slice of the angles is read once into a record (:class:`_Slice`):
cos and sin of every theta/2, cos theta = (c - s)(c + s) of each, and
det C, where |det C| is checked (a non-finite angle fails that check).
Cosines and sines come from one tangent each (:func:`_cos_sin`).  T takes
the entries of C^-1 as cos/det while it is built, and the gates take
cos theta and sin theta = 2cs.  Step j needs the records of slices j and
j+1 (the latter for T); :func:`evolve` carries the record of slice j+1
into step j+1, so each slice costs 4 tangents and 4 cos theta once.

Every gate is K * [[c, s], [s, c]] entrywise with K's entries in
{+-1, +-i}.  Per-site gates are applied as real gates: the field is held
as diag(phase) x with a pair of such unit phases, so that each output row
is a x_0 +- b x_1 with the real fields a and b, and the unit factor moves
into the phase (see :func:`_apply`).  Scalar gates absorb the phase, and
what is left of it is applied once, at the end.

For space-uniform angles every Fourier mode k = (k1, k2) evolves on its
own, and each shift S_k acts on it as the phase pair (e^{ik}, e^{-ik}).
The fused list then groups into three 2x2 factors, V_j(k) = C_j(k1)
B_j(k2) A_j(k1): A_j runs up to the last axis-1 shift before the axis-2
gates, B_j holds the four axis-2 gates and C_j the rest.
:func:`plane_wave_transfer_matrix` is their product at one k, and
:func:`evolve` steps such angles in Fourier space: one in-place transform,
then per step one in-place pass over blocks of k1 rows, each of at most
_CHUNK modes, that applies B_j along axis 2 and then A_{j+1} C_j along
axis 1 to the block, and one inverse transform at the end.  No shift runs.

The Fourier loop builds none of this one step at a time.  It reads the
angles in runs of _RUN steps, and the run's slice records, T, mass gates
and W chains are arrays over its times: each gate is a (steps, 2, 2)
stack, still built and ordered by :func:`_step_gates`.  The factors are
built in pieces of a run (:func:`_piece`: 4 steps at 256^2, bounded by
memory), each as one array of its entries over the piece's steps and the
wavenumbers; A_{j+1} C_j of a piece's steps is one product, and the last
step's waits for the next piece's first A.  Every entry takes the same
float operations in the same order, each complex product with its operands
in the same order, so a run's factors have a single step's bits: where a
step's operands were scalars, what a run does on arrays instead (real
arithmetic, tan, 2x2 products, multiplying by 1; the other complex
products were on arrays already) gives numpy's scalar bits.  A run of one
step reads its slices as scalars, as :func:`step` and the transfer matrix
do.  A singular slice inside a run is named by its own time, and one read
before a slice that fails to read is named first.

Per-site angles are stepped in real space, through two field buffers and
a scratch array that the loop allocates once.  A gate runs over pieces of
at most _CHUNK = 2^14 sites, both of its rows per piece, so that the
piece's source, product and sum stay in cache; the scratch holds one
piece's temporary (256 KiB).  All public operations are pure: they read
only the input field and return a fresh array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, GeometryError, even_pair, finite, integer

KL_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))

PI_MATRIX = np.array([[-1j, 1.0], [-1.0, 1j]]) / math.sqrt(2.0)
PI_INV_MATRIX = PI_MATRIX.conj().T

#: |det C| below this is treated as degenerate geometry.
SINGULAR_DET_TOL = 1e-10


# ---------------------------------------------------------------------------
# coin matrices
# ---------------------------------------------------------------------------

# Every coin gate is K * [[cos a, sin a], [sin a, cos a]] taken entrywise,
# with a constant K and an angle a: a = th for U(th), th/2 for R(th) and
# for R^-1(th) U(th), and m for the mass gate Q(m) = exp(-i m sigma_x).  Q
# is a rotation by m so that one step with argument eps*(m - T/4) contributes
# exactly -i*eps*(m - T/4)*sigma_x at first order, which is what the
# continuum Hamiltonian requires.
_Q_K = np.array([[1.0, -1j], [-1j, 1.0]])
_R_K = np.array([[1j, 1j], [-1.0, 1.0]])
_U_K = np.array([[-1.0, 1j], [-1j, 1.0]])
# R^-1(th) U(th) = _UR_K * [[cos th/2, sin th/2], [sin th/2, cos th/2]]
_UR_K = np.array([[1j, 1.0], [-1j, 1.0]])
_COINS = {"U": (_U_K, 1.0), "R": (_R_K, 0.5), "Q": (_Q_K, 1.0)}


def coin_matrix(kind: str, arg: float = 0.0) -> np.ndarray:
    """Return one of the coin-space gates by name: U, R, Q or PI."""
    kind = kind.upper()
    if kind == "PI":
        return PI_MATRIX.copy()
    if kind not in _COINS:
        raise ConfigurationError(f"unknown coin matrix kind {kind!r}")
    finite(arg, "arg")
    k, scale = _COINS[kind]
    return _gate(k, np.cos(scale * arg), np.sin(scale * arg))[0]


# ---------------------------------------------------------------------------
# walk parameters and angle providers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkParams:
    """Lattice parameter eps, mass m and perturbation amplitude xi."""

    epsilon: float = 1.0
    mass: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        finite(self.epsilon, "epsilon", "positive")
        finite(self.mass, "mass", "nonnegative")
        finite(self.xi, "xi")


class AngleProvider:
    """Source of the four coin-angle fields theta^{kl}, one time slice at a time.

    ``fn(j)`` returns the four angles at time j in ``KL_PAIRS`` order:
    scalars when ``uniform_in_space``, else (L1, L2) arrays covering the
    lattice, which callers only read.  It must be deterministic, free of
    side effects and defined for every integer time j >= 0; the stepper
    also asks for j+1.
    """

    def __init__(self, fn: Callable, uniform_in_space: bool = False):
        self._fn = fn
        self.uniform_in_space = bool(uniform_in_space)

    def angle(self, j: int, p1, p2, kl: tuple[int, int]):
        """One angle at site (p1, p2); sites wrap with the periodic lattice."""
        a = self._fn(int(integer(j, "j", 0)))[KL_PAIRS.index(tuple(kl))]
        return a if self.uniform_in_space else a[p1 % a.shape[0], p2 % a.shape[1]]

    def fields(self, j: int, shape: tuple[int, int]) -> dict:
        """Angles of all four kinds at time j, as scalars or (L1, L2) arrays."""
        th = dict(zip(KL_PAIRS, self._fn(int(integer(j, "j", 0)))))
        if self.uniform_in_space:
            return {kl: float(a) for kl, a in th.items()}
        bad = [np.shape(a) for a in th.values() if np.shape(a) != tuple(shape)]
        if bad:
            raise ConfigurationError(f"angle slice at time j={j} has shape {bad[0]}, "
                                     f"not the lattice's {tuple(shape)}")
        return th


def flat_angles() -> AngleProvider:
    """Angles whose cosine matrix is the identity (flat geometry)."""
    return uniform_time_angles(0.0, math.pi / 2, math.pi / 2, 0.0)


def uniform_time_angles(t11, t12, t21, t22, epsilon: float = 1.0) -> AngleProvider:
    """Space-uniform angles; each argument is a constant or a function of T = j*eps."""
    finite(epsilon, "epsilon")
    fns = [v if callable(v) else (lambda T, c=finite(v, name): c)
           for v, name in zip((t11, t12, t21, t22), ("t11", "t12", "t21", "t22"))]
    return AngleProvider(lambda j: tuple(f(j * epsilon) for f in fns),
                         uniform_in_space=True)


def pure_shear_angles(xi: float, g, epsilon: float = 1.0) -> AngleProvider:
    """Shear-only wave: th12 = th21 = pi/2 - xi*G(T), th11 = th22 = 0."""
    finite(xi, "xi")
    gf = g if callable(g) else (lambda T, _g=finite(g, "g"): _g)

    def shear(T):
        return math.pi / 2 - xi * gf(T)

    return uniform_time_angles(0.0, shear, shear, 0.0, epsilon)


def array_angles(arrays: dict) -> AngleProvider:
    """Provider backed by precomputed stacks of shape (n_times, L1, L2).

    Slice j is a read-only view of each stack; float64 stacks are not
    copied.  Stacks of shape (n_times, 1, 1) give space-uniform angles;
    otherwise each slice must have the lattice's shape.  Stepping up to
    time j requires n_times >= j + 2, one extra slice for the time
    difference in the mass-like term.
    """
    if set(arrays) != set(KL_PAIRS):
        raise ConfigurationError("array_angles needs all four (k, l) angle arrays")
    stacks = [np.asarray(arrays[kl], dtype=float).view() for kl in KL_PAIRS]
    for a in stacks:
        a.flags.writeable = False
    times = min(a.shape[0] for a in stacks)
    uniform = all(a.shape[1:] == (1, 1) for a in stacks)

    def fn(j):
        if j >= times:
            raise ConfigurationError(
                f"angle arrays cover times [0, {times}), queried j={j}")
        return tuple(a[j, 0, 0] if uniform else a[j] for a in stacks)

    return AngleProvider(fn, uniform_in_space=uniform)


# ---------------------------------------------------------------------------
# spinor field
# ---------------------------------------------------------------------------

def _norm(data: np.ndarray) -> float:
    """2-norm of a complex array, as einsum on its float view: einsum runs
    no BLAS threads, and threaded OpenBLAS stalled on a BLAS dot in some
    runs."""
    flat = data.view(np.float64).ravel()
    return math.sqrt(np.einsum("i,i", flat, flat))


@dataclass
class SpinorField:
    """Two complex amplitudes per site, stored as a (2, L1, L2) array."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 3 or self.data.shape[0] != 2:
            raise ConfigurationError(
                f"spinor field must have shape (2, L1, L2), got {self.data.shape}")
        even_pair(self.data.shape[1:], "lattice")
        if not np.all(np.isfinite(self.data.view(np.float64))):
            raise ConfigurationError("spinor field contains non-finite amplitudes")

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[1:]

    @classmethod
    def zeros(cls, shape: tuple[int, int]) -> "SpinorField":
        return cls(np.zeros((2, shape[0], shape[1]), dtype=np.complex128))

    @classmethod
    def delta(cls, shape, site: tuple[int, int], component: int = 0,
              amplitude: complex = 1.0) -> "SpinorField":
        f = cls.zeros(shape)
        f.data[component, site[0], site[1]] = amplitude
        return f

    @classmethod
    def plane_wave(cls, shape, k1: float, k2: float,
                   polarization=(1.0, 0.0)) -> "SpinorField":
        """Field pol * exp(i (k1 p1 + k2 p2)); k need not be admissible."""
        p1, p2 = np.ogrid[:shape[0], :shape[1]]
        phase = np.exp(1j * (k1 * p1 + k2 * p2))
        pol = np.asarray(polarization, dtype=np.complex128)
        return cls(np.stack((pol[0] * phase, pol[1] * phase)))

    @classmethod
    def random(cls, shape, rng: np.random.Generator) -> "SpinorField":
        data = rng.standard_normal((2, *shape)) + 1j * rng.standard_normal((2, *shape))
        data /= _norm(data)
        return cls(data)

    def norm(self) -> float:
        return _norm(self.data)

    def density(self) -> np.ndarray:
        return (np.abs(self.data) ** 2).sum(axis=0)

    def copy(self) -> "SpinorField":
        return SpinorField(self.data.copy())


# ---------------------------------------------------------------------------
# time slices
# ---------------------------------------------------------------------------

class _Slice(NamedTuple):
    """One time slice of the angles as the step uses it, by (k, l): (cos,
    sin) of each theta/2 and cos theta; then det C and the smallest |det C|
    over the lattice."""

    half: dict
    cos: dict
    det: np.ndarray | float
    min_abs_det: float

    def part(self, times: slice) -> "_Slice":
        """The record of the slices `times` of a run of space-uniform slices
        (views; `min_abs_det` stays the run's)."""
        return _Slice({kl: (c[times], s[times]) for kl, (c, s) in self.half.items()},
                      {kl: v[times] for kl, v in self.cos.items()}, self.det[times],
                      self.min_abs_det)


def _cos_sin(x) -> tuple:
    """cos x and sin x from one tangent, a scalar or an (L1, L2) field:
    with t = tan(x/2) and u = 2/(1 + t^2), cos x = u - 1 and sin x = t u.
    One tan costs less than a cos or a sin.  Scalars run the same float
    operations as array elements, so a site's values do not depend on
    which was given; `x` is only read."""
    t = np.multiply(x, 0.5)
    if np.ndim(t) == 0:
        t = np.tan(t)
        u = 2.0 / (1.0 + t * t)
        return u - 1.0, t * u
    np.tan(t, out=t)
    u = np.multiply(t, t)
    u += 1.0
    np.divide(2.0, u, out=u)
    t *= u
    u -= 1.0
    return u, t


def _half(theta) -> tuple:
    """cos and sin of theta/2; theta is a scalar or an (L1, L2) field."""
    return _cos_sin(np.multiply(theta, 0.5))


def _cos(half):
    """cos theta = (c - s)(c + s) from half = (cos, sin) of theta/2."""
    c, s = half
    x = c - s
    x *= c + s
    return x


def _slice(th: dict, j: int, site=None) -> _Slice:
    """The record of the angles `th` at time j; `site` names the site of
    single-site angles in the error raised where C is singular."""
    # a non-finite angle gives NaN half angles, which the check below names
    with np.errstate(invalid="ignore"):
        half = {kl: _half(th[kl]) for kl in KL_PAIRS}
    cos = {kl: _cos(half[kl]) for kl in KL_PAIRS}
    det = cos[1, 1] * cos[2, 2]
    det -= cos[1, 2] * cos[2, 1]
    min_abs_det = float(np.min(np.abs(det)))
    if not min_abs_det >= SINGULAR_DET_TOL:
        bad = ~(np.abs(det) >= SINGULAR_DET_TOL)
        if np.ndim(bad) == 1:
            # a run of space-uniform slices from time j: name its first bad time
            j, site = j + int(np.argmax(bad)), (0, 0)
        elif site is None:
            # a space-uniform C is singular everywhere: name site (0, 0)
            site = np.unravel_index(np.argmax(bad), np.shape(bad)) or (0, 0)
        raise GeometryError(
            f"cosine matrix singular (|det| < {SINGULAR_DET_TOL:g}) or non-finite "
            f"at time j={j}, site {tuple(int(p) for p in site)}")
    return _Slice(half, cos, det, min_abs_det)


def _step_gate_lists(provider: AngleProvider, j0: int, steps: int,
                     shape: tuple[int, int], params: WalkParams, margins: list,
                     run: int = 1):
    """Yield the lazy gate list (:func:`_step_gates`) of each run of steps
    from j0: up to `run` steps for a space-uniform provider, else one (module
    docstring).  Sets `margins` to [min |det C|, max |T|] over the slices
    read.  A consumed one-step list frees its slice, so that at most two
    per-site slices are held."""
    stacked = provider.uniform_in_space and run > 1
    th = provider.fields(j0, shape)
    rec = _slice(th, j0)
    margins[:] = [rec.min_abs_det, 0.0]
    # the slice a run starts at, read by the run before; no per-site slice
    # is kept
    held, th = (th if stacked else None), None
    for start in range(j0, j0 + steps, run if stacked else 1):
        if stacked:
            read = [held]
            try:
                for j in range(start + 1, min(start + run, j0 + steps) + 1):
                    read.append(provider.fields(j, shape))
            finally:
                # checked when a read fails too, so that a singular slice
                # before it is named first, as in time order
                times = _slice({kl: np.array([a[kl] for a in read]) for kl in KL_PAIRS},
                               start)
            rec, nxt, held = times.part(np.s_[:-1]), times.part(np.s_[1:]), read[-1]
        else:
            nxt = _slice(provider.fields(start + 1, shape), start + 1)
        te = _t_values(rec, nxt, params)
        top = np.abs(te).tolist() if stacked else [float(np.max(np.abs(te)))]
        margins[:] = [min(margins[0], nxt.min_abs_det), max(margins[1], *top)]
        gates, rec, te = _step_gates(rec.half, rec.cos, te, params), nxt, None
        yield gates


# ---------------------------------------------------------------------------
# gate list
# ---------------------------------------------------------------------------

def _gate(k: np.ndarray, c, s, axis: int = 0) -> tuple:
    """Gate K * [[c, s], [s, c]], then the shift along `axis` (0: none).
    Space-uniform entries, scalars or arrays over a run's times, give the
    matrix or its (steps, 2, 2) stack.  Per-site field entries stay apart
    from K: no complex coefficient field is built."""
    if np.ndim(c) < 2:
        # [[c, s], [s, c]] is symmetric: .T puts a run's time axis first, and
        # order="C" lays the stack out as `@` takes it
        return np.multiply(k, np.array([[c, s], [s, c]]).T, order="C"), None, axis
    return k, (c, s), axis


def _w_chain(*blocks):
    """The gates of W blocks given as (half, cos, axis), first block first,
    where W_k(th) = R^-1(th) U(th) S_k U(th) S_k R(th), `half` is (c, s) =
    (cos, sin) of th/2 and `cos` is cos th.  Each seam is fused into one
    gate: U(th), then R^-1(th), then R(th') is U((th + th')/2), whose cos and
    sin follow from the two half angles by angle addition; the last U(th),
    then R^-1(th), is _UR_K * [[c, s], [s, c]]."""
    prev = None
    for half, cos, axis in blocks:
        c, s = half
        if prev is None:
            yield _gate(_R_K, c, s, axis)
        else:
            pc, ps = prev
            yield _gate(_U_K, pc * c - ps * s, ps * c + pc * s, axis)
        yield _gate(_U_K, cos, 2.0 * c * s, axis)
        prev = half
    yield _gate(_UR_K, *prev)


def _mass_angle(te, params: WalkParams):
    """The mass gate's angle eps*(m - T/4); an array `te` is overwritten."""
    if np.ndim(te) == 0:
        return params.epsilon * (params.mass - te / 4.0)
    te /= 4.0
    np.subtract(params.mass, te, out=te)
    te *= params.epsilon
    return te


def _step_gates(h: dict, c: dict, te, params: WalkParams):
    """The gates of V_j in the order they act, Q first (module docstring),
    from the half angles `h` and cosines `c` of a :class:`_Slice` and T,
    which is overwritten."""
    yield _gate(_Q_K, *_cos_sin(_mass_angle(te, params)))
    del te  # free the mass angle before the W gates are built
    yield from _w_chain((h[1, 1], c[1, 1], 1), (h[2, 1], c[2, 1], 2))
    yield PI_MATRIX, None, 0
    yield from _w_chain((h[2, 2], c[2, 2], 2), (h[1, 2], c[1, 2], 1))
    yield PI_INV_MATRIX, None, 0


def _fused(gates):
    """Multiply neighbouring scalar gates with no shift between them into one.
    Per-site gates stay single: a per-site 2x2 product costs two applies."""
    prev = next(gates)
    for gate in gates:
        if prev[1] is None and gate[1] is None and prev[2] == 0:
            prev = (gate[0] @ prev[0], None, gate[2])
        else:
            yield prev
            prev = gate
    yield prev


#: sites per piece of a gate row: a piece's product, temporary and sum
#: stay in a 2 MiB L2 cache (2^13 and 2^14 measured alike; 2^12 and 2^15
#: were slower)
_CHUNK = 2 ** 14


def _rolls(l1: int, l2: int) -> dict:
    """(destination, source) flat slices of S_k along each axis (0: none),
    in pieces of at most _CHUNK sites: the minus component is pulled from
    p+1, the plus one from p-1 by the same pairs swapped.  Along axis 2 the
    last pair rewrites the column that wraps around."""
    n = l1 * l2
    pulls = {0: [(slice(0, n), slice(0, n))]}
    for axis, d in ((1, l2), (2, 1)):
        pulls[axis] = [(slice(0, n - d), slice(d, n)), (slice(n - d, n), slice(0, d))]
    pulls[2].append((slice(l2 - 1, n, l2), slice(0, n, l2)))

    def pieces(pull):
        for dst, at in pull:
            dst, at = range(n)[dst], range(n)[at]
            for i in range(0, len(dst), _CHUNK):
                yield tuple(slice(r.start, r.stop, r.step)
                            for r in (dst[i:i + _CHUNK], at[i:i + _CHUNK]))

    return {axis: list(pieces(pull)) for axis, pull in pulls.items()}


def _apply(src: np.ndarray, spare: np.ndarray, scratch: np.ndarray, gates,
           phase=(1, 1)) -> tuple:
    """Apply the gates in order to x = diag(phase) src, ping-ponging between
    the (2, L1, L2) arrays `src` and `spare`, both overwritten; `scratch`
    holds one piece of a row (:func:`_scratch`).  Returns (out, the free
    buffer, phase'), where the result is diag(phase') out.

    The phases are units in {+-1, +-i}.  Row r of a per-site gate
    K * [[c, s], [s, c]] is psi_r (a x_0 + rho_r b x_1) on the stored x,
    with (a, b) = (c, s) or (s, c), psi_r = K_r0 phase_0 and
    rho_r = K_r1 phase_1 / psi_r, and psi becomes the phase: only the real
    fields multiply the field.  Where rho_r = +-i, the stored x_1 is first
    multiplied by i.  A scalar gate absorbs the phase into its matrix.
    """
    shape = src.shape
    rolls = _rolls(*shape[1:])
    src, spare = src.reshape(2, -1), spare.reshape(2, -1)
    for k, fields, axis in gates:
        if fields is None:
            coef, ops = k * np.asarray(phase), (np.add, np.add)
            phase = (1, 1)
        else:
            if (k[0, 1] * phase[1] * np.conj(k[0, 0] * phase[0])).imag:
                np.multiply(src[1], 1j, out=src[1])
                phase = (phase[0], -1j * phase[1])
            psi = k[:, 0] * phase[0]
            rho = k[:, 1] * phase[1] * np.conj(psi)
            c, s = (np.broadcast_to(f, shape[1:]).reshape(-1) for f in fields)
            coef, ops = ((c, s), (s, c)), tuple(np.add if r.real > 0 else np.subtract
                                                for r in rho)
            phase = tuple(psi)
        # both rows of a piece run while its source is in cache
        for pull in rolls[axis]:
            for row, (dst, at) in enumerate((pull, pull[::-1])):
                a, b = coef[row]
                o = spare[row, dst]
                t = scratch[:o.size]
                np.multiply(src[0, at], a if fields is None else a[at], out=o)
                np.multiply(src[1, at], b if fields is None else b[at], out=t)
                ops[row](o, t, out=o)
        src, spare = spare, src
        # drop this gate's fields before the lazy list builds the next gate
        k = fields = coef = c = s = a = b = None
    return src.reshape(shape), spare.reshape(shape), phase


def _unphased(data: np.ndarray, phase) -> np.ndarray:
    """diag(phase) data, in place; multiplying by +-1 or +-i is exact."""
    for comp, p in enumerate(phase):
        if p != 1:
            data[comp] *= p
    return data


def _scratch(shape) -> int:
    """Length of :func:`_apply`'s scratch for (2, L1, L2) fields: one piece."""
    return min(shape[1] * shape[2], _CHUNK)


# ---------------------------------------------------------------------------
# per-axis factors of a space-uniform step
# ---------------------------------------------------------------------------

def _times(m, n) -> np.ndarray:
    """The stacked entries of the 2x2 product M N, each matrix given by its
    entries (m00, m01, m10, m11); entries are arrays that broadcast.  Each
    entry is summed in place, as x y + z w."""
    a, b, c, d = m
    e, f, g, h = n
    out = np.empty(np.broadcast(m, n).shape, complex)
    for o, (x, y, z, w) in zip(out, ((a, e, b, g), (a, f, b, h), (c, e, d, g), (c, f, d, h))):
        np.multiply(x, y, out=o)
        o += z * w
    return out


def _entry_phases(k1, k2) -> dict:
    """The phases (e^{ik}, e^{ik}, e^{-ik}, e^{-ik}) that a shift along
    each axis (0: none) puts on the entries (m00, m01, m10, m11) of a gate,
    at the wavenumbers k1 and k2 (scalars or 1-D arrays), as (4, 1, L)."""
    def entries(k):
        p, q = np.exp(1j * k), np.exp(-1j * k)
        return np.reshape(np.stack((p, p, q, q)), (4, 1, -1))

    return {0: np.ones((4, 1, 1)), 1: entries(k1), 2: entries(k2)}


def _factor_gates(gates) -> list:
    """The fused gates (:func:`_fused`) of a gate list of space-uniform
    steps, grouped into the factors [A, B, C] (module docstring): a gate
    joins the factor before it when it shifts along that factor's axis or
    along none.  Each factor is a list of (K, axis), first gate first."""
    factors = []
    for k, _, axis in _fused(gates):
        k = np.reshape(k, (-1, 2, 2))  # a stack over the steps, of one for scalars
        if factors and axis in (0, factors[-1][0][1]):
            factors[-1].append((k, axis))
        else:
            factors.append([(k, axis)])
    return factors


def _factor(gates, phases: dict) -> np.ndarray:
    """The product of a factor's gates (:func:`_factor_gates`), with the
    shifts' phases `phases` (:func:`_entry_phases`): the stack of its
    entries, which run over the steps and then over the wavenumbers."""
    product = None
    for k, axis in gates:
        entries = np.reshape(k, (-1, 4)).T[..., None]
        gate = np.empty(np.broadcast(phases[axis], entries).shape, complex)
        # one entry at a time: numpy buffers a broadcast operand up to the
        # size of the output
        for out, ph, e in zip(gate, phases[axis], entries):
            np.multiply(ph, e, out=out)
        product = gate if product is None else _times(gate, product)
    return product


def _mode_apply(src: np.ndarray, m, out: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
    """out = M src at every Fourier mode of a (2, rows, L2) array; the
    entries of M broadcast against one (rows, L2) component, which
    `scratch` is."""
    a, b, c, d = m
    for row, (x, y) in enumerate(((a, b), (c, d))):
        np.multiply(src[0], x, out=out[row])
        np.multiply(src[1], y, out=scratch)
        out[row] += scratch
    return out


# ---------------------------------------------------------------------------
# mass-like time-difference scalar
# ---------------------------------------------------------------------------

#: T's terms in order as (a, b, sign): sign * C^a D0 (C^b / det C)
_T_TERMS = (((1, 2), (2, 2), 1), ((1, 1), (2, 1), 1),
            ((2, 2), (1, 2), -1), ((2, 1), (1, 1), -1))


def _t_values(rec: _Slice, nxt: _Slice, params: WalkParams):
    """T from the slices at times j and j+1, a scalar or an (L1, L2) array:
    sum_k [ C^{k2} D0 (C^-1)^{1k} - C^{k1} D0 (C^-1)^{2k} ], C at time j.
    With C^-1 = [[C^22, -C^12], [-C^21, C^11]] / det C this is the sum of
    _T_TERMS.  Taking a sign out of an entry of C^-1 negates its difference
    and its term exactly, so each term keeps its bits up to the sign, and
    adding a negated term is subtracting it.  Built in place, one term at a
    time."""
    t = None
    for a, b, sign in _T_TERMS:
        d = nxt.cos[b] / nxt.det
        d -= rec.cos[b] / rec.det
        d /= params.epsilon
        d *= rec.cos[a]
        if t is None:
            t = d
        elif sign > 0:
            t += d
        else:
            t -= d
    return t


def t_epsilon(provider: AngleProvider, j: int, p1: int, p2: int,
              params: WalkParams) -> float:
    """Time-difference scalar entering the mass gate, at one site.

    Vanishes whenever the cosine matrix is diagonal, antidiagonal or
    independent of j.
    """
    site = (int(p1), int(p2))
    rec, nxt = (_slice({kl: provider.angle(t, *site, kl) for kl in KL_PAIRS}, t, site)
                for t in (j, j + 1))
    return float(_t_values(rec, nxt, params))


def t_epsilon_field(provider: AngleProvider, j: int, shape: tuple[int, int],
                    params: WalkParams):
    """T over the whole lattice; scalar for space-uniform providers."""
    return _t_values(*(_slice(provider.fields(t, shape), t) for t in (j, j + 1)), params)


# ---------------------------------------------------------------------------
# full step
# ---------------------------------------------------------------------------

def step(field: SpinorField, j: int, provider: AngleProvider,
         params: WalkParams) -> SpinorField:
    """Advance the field from time j to j+1 with the unitary V_j.

    Reads the angle provider at times j and j+1 (the latter only through
    the time difference in the mass gate).  Site-local gates always use
    the angle at the site where they act.
    """
    # reading two slices and building T peak before _real_steps allocates
    # its buffers, not on top of them
    gates = next(_step_gate_lists(provider, j, 1, field.shape, params, []))
    return SpinorField(_real_steps(field.data, [gates])[0])


class _Run(NamedTuple):
    """What :func:`_time_loop` returns: the final field, the norm after each
    step, the smallest |det C| over the slices read and the largest |T|
    over the steps (0.0 for no steps)."""

    field: SpinorField
    norms: list
    min_abs_det_c: float
    max_abs_t_eps: float


#: where each time loop's field, spare (Fourier: block temporary) and scratch
#: buffers start in a 4 KiB page, in bytes (measured on evolve-field, and
#: among the fastest on evolve)
_PAGE_OFFSETS = (2048, 1024, 0)


def _paged(shape, offset: int) -> np.ndarray:
    """An uninitialised complex array starting ``offset`` bytes into a page.
    The allocator's own placement of large arrays depends on what was
    allocated before, and the step's speed on the buffers' offsets."""
    size = 16 * int(np.prod(shape))
    raw = np.empty(size + 4096, np.uint8)
    start = (offset - raw.ctypes.data) % 4096
    return raw[start:start + size].view(complex).reshape(shape)


def _time_loop(field: SpinorField, j0: int, steps: int, provider: AngleProvider,
               params: WalkParams) -> _Run:
    """`steps` walk steps from time j0 (module docstring).  In Fourier space
    the norms come from Parseval's identity."""
    integer(steps, "steps", 0)
    margins = []
    gate_lists = _step_gate_lists(provider, j0, steps, field.shape, params, margins, _RUN)
    if steps == 0 or not provider.uniform_in_space:
        data, norms = _real_steps(field.data, gate_lists)
        return _Run(SpinorField(data), norms, *margins)
    spec = _paged(field.data.shape, _PAGE_OFFSETS[0])
    spec[...] = field.data
    for axis in (1, 2):
        np.fft.fft(spec, axis=axis, norm="ortho", out=spec)
    spec, norms = _fourier_steps(spec, gate_lists)
    for axis in (1, 2):
        np.fft.ifft(spec, axis=axis, norm="ortho", out=spec)
    return _Run(SpinorField(spec), norms, *margins)


def _real_steps(data: np.ndarray, gate_lists) -> tuple[np.ndarray, list[float]]:
    """Step a copy of the (2, L1, L2) array `data`, which is only read, in
    real space, one step per gate list in `gate_lists` (module docstring);
    returns the result and the norm after each step."""
    src, spare, scratch = (_paged(shape, offset) for shape, offset in zip(
        (data.shape, data.shape, _scratch(data.shape)), _PAGE_OFFSETS))
    src[...] = data
    phase, norms = (1, 1), []
    for gates in gate_lists:
        src, spare, phase = _apply(src, spare, scratch, _fused(gates), phase)
        norms.append(_norm(src))
    return _unphased(src, phase), norms


#: space-uniform steps per run, whose slices, T and gates are built at once
#: as arrays over the run's times: about 1.5 KiB a step, on any lattice
_RUN = 32


def _piece(shape) -> int:
    """Steps per piece (module docstring) on an (L1, L2) lattice: one
    stacked factor of a piece (4 entries per step and wavenumber) holds at
    most 1/32 of a field's values, and a piece at least one step.  With 4
    at 256^2 the Fourier loop peaks at 1.38 field sizes (1.51 with 8)."""
    return max(1, min(shape) // 64)


def _step_factors(gate_lists, phases: dict, piece: int):
    """Yield (A_0 at step 0, else None; B_j; A_{j+1} C_j) of each step j of
    the runs in `gate_lists`, built in pieces of `piece` steps (module
    docstring); the last step's third factor is C_j alone.  A and C are
    shaped to broadcast as columns.  B is built after A and C are freed,
    and what a piece keeps for the next is copied, so that while a factor
    is built at most one other of its piece is held."""
    first = held = None
    for gates in gate_lists:
        factors = _factor_gates(gates)
        for start in range(0, len(factors[0][0][0]), piece):
            a, b, c = ([(k[start:start + piece], axis) for k, axis in f] for f in factors)
            a, c = _factor(a, phases), _factor(c, phases)
            if held is None:
                first = a[:, 0, :, None].copy()
            else:
                yield first, held[0], _times(a[:, 0], held[1])[..., None]
                first = None
            lasts = _times(a[:, 1:], c[:, :-1])[..., None]
            a, c = None, c[:, -1].copy()
            b = _factor(b, phases)
            for j in range(lasts.shape[1]):
                yield first, b[:, j], lasts[:, j]
                first = None
            held, b, lasts = (b[:, -1].copy(), c), None, None
    yield first, held[0], held[1][..., None]


def _fourier_steps(spec: np.ndarray, gate_lists) -> tuple[np.ndarray, list[float]]:
    """Step the unitary Fourier transform `spec` of a field in place, one
    run of steps per gate list in `gate_lists` (at least one step; module
    docstring); returns it and the norm after each step, taken after
    A_{j+1} C_j, which is unitary too.  A block of k1 rows holds at most
    _CHUNK modes, so that it and its two temporaries stay in cache."""
    l1, l2 = spec.shape[1:]
    k1, k2 = (2 * np.pi * np.arange(n) / n for n in (l1, l2))
    rows = max(1, _CHUNK // (2 * l2))
    tmp, scratch = (_paged(shape, offset) for shape, offset in zip(
        ((2, rows, l2), (rows, l2)), _PAGE_OFFSETS[1:]))
    norms = []
    for first, mid, last in _step_factors(gate_lists, _entry_phases(k1, k2),
                                          _piece((l1, l2))):
        for r in range(0, l1, rows):
            block = spec[:, r:r + rows]
            n = block.shape[1]
            out, scr = tmp[:, :n], scratch[:n]
            if first is not None:
                block[...] = _mode_apply(block, first[:, r:r + n], out, scr)
            _mode_apply(block, mid, out, scr)
            _mode_apply(out, last[:, r:r + n], block, scr)
        norms.append(_norm(spec))
        # so that a piece's factors are freed before the next piece's are built
        first = mid = last = None
    return spec, norms


def evolve(field: SpinorField, j0: int, steps: int, provider: AngleProvider,
           params: WalkParams) -> SpinorField:
    """Compose `steps` walk steps starting at time j0; steps = 0 is the identity
    (slice j0 is still read and checked).  Space-uniform angles are stepped
    in Fourier space (module docstring)."""
    return _time_loop(field, j0, steps, provider, params).field


def plane_wave_transfer_matrix(provider: AngleProvider, j: int,
                               k1: float, k2: float,
                               params: WalkParams) -> np.ndarray:
    """Exact 2x2 action of one step on the plane wave exp(i(k1 p1 + k2 p2)).

    Only defined for space-uniform angles, where every Fourier mode evolves
    independently.  The double jumps make this a function of q = 2k.  It is
    the product C B A of the step's per-axis factors at (k1, k2).
    """
    if not provider.uniform_in_space:
        raise ConfigurationError(
            "plane-wave transfer matrix requires space-uniform angles")
    finite(k1, "k1")
    finite(k2, "k2")
    gates = next(_step_gate_lists(provider, j, 1, (2, 2), params, []))
    a, b, c = (_factor(f, _entry_phases(k1, k2)) for f in _factor_gates(gates))
    return np.reshape(_times(c, _times(b, a)), (2, 2))
