"""Unitary lattice walk: spinor fields, coin gates, shifts and the full step.

The walker carries a two-component spinor on a finite periodic L1 x L2
lattice.  One time step applies, right to left,

    V_j = Pi^-1 [W_1(th12) W_2(th22)] Pi [W_2(th21) W_1(th11)] Q(eps*(m - T/4))

where W_k(th) = R^-1(th) U(th) S_k U(th) S_k R(th) is a pair of
spin-dependent double jumps S_k dressed by local coin rotations, and T is
the time-difference scalar built from the four cosine fields (see
:func:`t_epsilon`).  The chain is written once, as a gate list that
:func:`step` applies in real space.  Neighbouring scalar gates with no
shift between them are fused (9 gates per step for space-uniform angles);
per-site gates are applied one by one.

For space-uniform angles every Fourier mode k = (k1, k2) evolves on its
own, and each shift S_k acts on it as the phase pair (e^{ik}, e^{-ik}).
The fused list then groups into three 2x2 factors, V_j(k) = C_j(k1)
B_j(k2) A_j(k1): A_j runs up to the last axis-1 shift before the axis-2
gates, B_j holds the four axis-2 gates and C_j the rest.
:func:`plane_wave_transfer_matrix` is their product at one k, and
:func:`evolve` steps such angles in Fourier space: one in-place transform,
then per step one apply of B_j along axis 2 and one of A_{j+1} C_j along
axis 1, and one inverse transform at the end.  No shift runs.  Per-site
angles are stepped in real space.  All operations are pure: they read only
the input field and return a fresh array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, GeometryError

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
# R^-1(th), and m for the mass gate Q(m) = exp(-i m sigma_x).  Q is a
# rotation by m so that one step with argument eps*(m - T/4) contributes
# exactly -i*eps*(m - T/4)*sigma_x at first order, which is what the
# continuum Hamiltonian requires.
_Q_K = np.array([[1.0, -1j], [-1j, 1.0]])
_R_K = np.array([[1j, 1j], [-1.0, 1.0]])
_U_K = np.array([[-1.0, 1j], [-1j, 1.0]])
_R_INV_K = np.array([[-1j, -1.0], [-1j, 1.0]])
_COINS = {"U": (_U_K, 1.0), "R": (_R_K, 0.5), "Q": (_Q_K, 1.0)}


def coin_matrix(kind: str, arg: float = 0.0) -> np.ndarray:
    """Return one of the coin-space gates by name: U, R, Q or PI."""
    kind = kind.upper()
    if kind == "PI":
        return PI_MATRIX.copy()
    if kind not in _COINS:
        raise ConfigurationError(f"unknown coin matrix kind {kind!r}")
    if not np.isfinite(arg):
        raise ConfigurationError(f"coin matrix argument must be finite, got {arg!r}")
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
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon!r}")
        if not (np.isfinite(self.mass) and self.mass >= 0):
            raise ConfigurationError(f"mass must be nonnegative, got {self.mass!r}")
        if not np.isfinite(self.xi):
            raise ConfigurationError(f"xi must be finite, got {self.xi!r}")


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
        a = self._fn(int(j))[KL_PAIRS.index(tuple(kl))]
        return a if self.uniform_in_space else a[p1 % a.shape[0], p2 % a.shape[1]]

    def fields(self, j: int, shape: tuple[int, int]) -> dict:
        """Angles of all four kinds at time j, as scalars or (L1, L2) arrays."""
        th = dict(zip(KL_PAIRS, self._fn(int(j))))
        if self.uniform_in_space:
            return {kl: float(a) for kl, a in th.items()}
        bad = [np.shape(a) for a in th.values() if np.shape(a) != tuple(shape)]
        if bad:
            raise ConfigurationError(f"angle slice at time j={j} has shape {bad[0]}, "
                                     f"not the lattice's {tuple(shape)}")
        return th


def constant_angles(t11: float, t12: float, t21: float, t22: float) -> AngleProvider:
    return uniform_time_angles(t11, t12, t21, t22)


def flat_angles() -> AngleProvider:
    """Angles whose cosine matrix is the identity (flat geometry)."""
    return constant_angles(0.0, math.pi / 2, math.pi / 2, 0.0)


def uniform_time_angles(t11, t12, t21, t22, epsilon: float = 1.0) -> AngleProvider:
    """Space-uniform angles; each argument is a constant or a function of T = j*eps."""
    fns = [v if callable(v) else (lambda T, c=float(v): c) for v in (t11, t12, t21, t22)]
    return AngleProvider(lambda j: tuple(f(j * epsilon) for f in fns),
                         uniform_in_space=True)


def pure_shear_angles(xi: float, g, epsilon: float = 1.0) -> AngleProvider:
    """Shear-only wave: th12 = th21 = pi/2 - xi*G(T), th11 = th22 = 0."""
    gf = g if callable(g) else (lambda T, _g=float(g): _g)

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
        if not 0 <= j < times:
            raise ConfigurationError(
                f"angle arrays cover times [0, {times}), queried j={j}")
        return tuple(a[j, 0, 0] if uniform else a[j] for a in stacks)

    return AngleProvider(fn, uniform_in_space=uniform)


# ---------------------------------------------------------------------------
# spinor field
# ---------------------------------------------------------------------------

@dataclass
class SpinorField:
    """Two complex amplitudes per site, stored as a (2, L1, L2) array."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 3 or self.data.shape[0] != 2:
            raise ConfigurationError(
                f"spinor field must have shape (2, L1, L2), got {self.data.shape}")
        l1, l2 = self.data.shape[1:]
        if l1 <= 0 or l2 <= 0 or l1 % 2 or l2 % 2:
            raise ConfigurationError(
                f"lattice dimensions must be positive and even, got ({l1}, {l2})")
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
        data /= np.linalg.norm(data)
        return cls(data)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def density(self) -> np.ndarray:
        return (np.abs(self.data) ** 2).sum(axis=0)

    def copy(self) -> "SpinorField":
        return SpinorField(self.data.copy())


# ---------------------------------------------------------------------------
# gate list
# ---------------------------------------------------------------------------

def _gate(k: np.ndarray, c, s, axis: int = 0) -> tuple:
    """Gate K * [[c, s], [s, c]], then the shift along `axis` (0: none).
    Field entries stay apart from K: no complex coefficient field is built."""
    if np.ndim(c) == 0:
        return k * np.array([[c, s], [s, c]]), None, axis
    return k, (c, s), axis


def _w_gates(theta, axis: int):
    """W_k(theta) = R^-1(th) U(th) S_k U(th) S_k R(th), first gate first."""
    half = np.asarray(theta) / 2.0
    r = (np.cos(half), np.sin(half))
    u = _gate(_U_K, np.cos(theta), np.sin(theta))
    yield _gate(_R_K, *r, axis)
    yield u[:2] + (axis,)
    yield u
    yield _gate(_R_INV_K, *r)


def _step_gates(th: dict, te, params: WalkParams):
    """The gates of V_j in the order they act, Q first (module docstring)."""
    m_arg = params.epsilon * (params.mass - te / 4.0)
    yield _gate(_Q_K, np.cos(m_arg), np.sin(m_arg))
    yield from _w_gates(th[(1, 1)], 1)
    yield from _w_gates(th[(2, 1)], 2)
    yield PI_MATRIX, None, 0
    yield from _w_gates(th[(2, 2)], 2)
    yield from _w_gates(th[(1, 2)], 1)
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


def _rolls(l1: int, l2: int) -> dict:
    """(destination, source) flat slices of S_k: the minus component is
    pulled from p+1, the plus one from p-1 by the same pairs swapped.  Along
    axis 2 the last pair rewrites the column that wraps around."""
    n = l1 * l2
    rolls = {0: [[(slice(None), slice(None))]] * 2}
    for axis, d in ((1, l2), (2, 1)):
        pull = [(slice(0, n - d), slice(d, n)), (slice(n - d, n), slice(0, d))]
        if axis == 2:
            pull.append((slice(l2 - 1, n, l2), slice(0, n, l2)))
        rolls[axis] = [pull, [(at, dst) for dst, at in pull]]
    return rolls


def _apply(data: np.ndarray, gates) -> np.ndarray:
    """Apply the gates in order to a (2, L1, L2) array, which is only read,
    through two ping-pong buffers and a scratch array allocated per call."""
    shape = data.shape
    rolls = _rolls(*shape[1:])
    bufs = (np.empty(shape, dtype=complex), np.empty(shape, dtype=complex))
    scratch = np.empty(shape[1] * shape[2], dtype=complex)
    src = data.reshape(2, -1)
    for n, (k, fields, axis) in enumerate(gates):
        out = bufs[n % 2].reshape(2, -1)
        if fields is not None:
            fields = [np.broadcast_to(f, shape[1:]).reshape(-1) for f in fields]
        for row, pairs in enumerate(rolls[axis]):
            # the second component is not written yet while the first is
            tmp = out[1] if row == 0 else scratch
            for dst, at in pairs:
                o, t = out[row, dst], tmp[dst]
                np.multiply(src[0, at], k[row, 0], out=o)
                np.multiply(src[1, at], k[row, 1], out=t)
                if fields is not None:
                    o *= fields[row][at]
                    t *= fields[1 - row][at]
                o += t
        src = out
    return src.reshape(shape)


# ---------------------------------------------------------------------------
# per-axis factors of a space-uniform step
# ---------------------------------------------------------------------------

def _times(m, n) -> tuple:
    """Entries of the 2x2 product M N, each matrix given by its entries
    (m00, m01, m10, m11); entries are scalars or arrays over one axis."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _factors(th: dict, te, params: WalkParams, k1, k2) -> list:
    """The step's factors [A(k1), B(k2), C(k1)] (module docstring) at the
    wavenumbers k1 and k2, scalars or 1-D arrays, as entry tuples."""
    phases = {0: (1.0, 1.0), 1: (np.exp(1j * k1), np.exp(-1j * k1)),
              2: (np.exp(1j * k2), np.exp(-1j * k2))}
    factors, axes = [], []
    for k, _, axis in _fused(_step_gates(th, te, params)):
        p, q = phases[axis]
        gate = (p * k[0, 0], p * k[0, 1], q * k[1, 0], q * k[1, 1])
        if factors and axis in (0, axes[-1]):
            factors[-1] = _times(gate, factors[-1])
        else:
            factors.append(gate)
            axes.append(axis)
    return factors


def _mode_apply(src: np.ndarray, m, axis: int, out: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
    """out = M src at every Fourier mode of a (2, L1, L2) array; the entries
    of M are arrays along `axis`.  `scratch` is one (L1, L2) component."""
    a, b, c, d = (np.reshape(e, (-1, 1)) if axis == 1 else e for e in m)
    for row, (x, y) in enumerate(((a, b), (c, d))):
        np.multiply(src[0], x, out=out[row])
        np.multiply(src[1], y, out=scratch)
        out[row] += scratch
    return out


def _check_axis(axis: int) -> None:
    if axis not in (1, 2):
        raise ConfigurationError(f"axis must be 1 or 2, got {axis!r}")


def shift_apply(field: SpinorField, axis: int) -> SpinorField:
    """Spin-dependent translation S_k along lattice axis 1 or 2."""
    _check_axis(axis)
    return SpinorField(_apply(field.data, [(np.eye(2), None, axis)]))


def w_block_apply(field: SpinorField, axis: int, theta) -> SpinorField:
    """One double-jump block W_k(theta); theta is a scalar or (L1, L2) field."""
    _check_axis(axis)
    return SpinorField(_apply(field.data, _fused(_w_gates(theta, axis))))


# ---------------------------------------------------------------------------
# mass-like time-difference scalar
# ---------------------------------------------------------------------------

def _cos_and_inverse(th: dict, j: int, site=None):
    """Entries of the cosine matrix C and of its inverse from the angles at
    time j; `site` names the site of single-site angles."""
    c11, c12, c21, c22 = (np.cos(th[kl]) for kl in KL_PAIRS)
    det = c11 * c22 - c12 * c21
    bad = np.abs(det) < SINGULAR_DET_TOL
    if np.any(bad):
        if site is None:
            # a space-uniform C is singular everywhere: name site (0, 0)
            site = np.unravel_index(np.argmax(bad), np.shape(bad)) or (0, 0)
        raise GeometryError(
            f"cosine matrix singular (|det| < {SINGULAR_DET_TOL:g}) "
            f"at time j={j}, site {tuple(int(p) for p in site)}")
    return (c11, c12, c21, c22), (c22 / det, -c12 / det, -c21 / det, c11 / det)


def _t_epsilon_values(th: dict, th_next: dict, j: int, params: WalkParams, site=None):
    """T from the angles at times j and j+1, scalars or (L1, L2) arrays."""
    (c11, c12, c21, c22), inv = _cos_and_inverse(th, j, site)
    _, inv_next = _cos_and_inverse(th_next, j + 1, site)
    d11, d12, d21, d22 = ((b - a) / params.epsilon for a, b in zip(inv, inv_next))
    # sum_k [ C^{k2} D0 (C^-1)^{1k} - C^{k1} D0 (C^-1)^{2k} ]
    return c12 * d11 - c11 * d21 + c22 * d12 - c21 * d22


def t_epsilon(provider: AngleProvider, j: int, p1: int, p2: int,
              params: WalkParams) -> float:
    """Time-difference scalar entering the mass gate, at one site.

    Vanishes whenever the cosine matrix is diagonal, antidiagonal or
    independent of j.
    """
    site = (int(p1), int(p2))
    th = [{kl: provider.angle(t, *site, kl) for kl in KL_PAIRS} for t in (j, j + 1)]
    return float(_t_epsilon_values(*th, j, params, site))


def t_epsilon_field(provider: AngleProvider, j: int, shape: tuple[int, int],
                    params: WalkParams):
    """T over the whole lattice; scalar for space-uniform providers."""
    return _t_epsilon_values(provider.fields(j, shape), provider.fields(j + 1, shape),
                             j, params)


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
    th = provider.fields(j, field.shape)
    te = t_epsilon_field(provider, j, field.shape, params)
    return SpinorField(_apply(field.data, _fused(_step_gates(th, te, params))))


def _time_loop(field: SpinorField, j0: int, steps: int, provider: AngleProvider,
               params: WalkParams) -> tuple[SpinorField, list[float]]:
    """`steps` walk steps from time j0: the final field and the norm after
    each step.  Space-uniform angles are stepped in Fourier space, where the
    norms come from Parseval's identity; others call :func:`step`."""
    if steps < 0:
        raise ConfigurationError(f"steps must be >= 0, got {steps}")
    if steps == 0 or not provider.uniform_in_space:
        out, norms = field.copy(), []
        for n in range(steps):
            out = step(out, j0 + n, provider, params)
            norms.append(out.norm())
        return out, norms
    spec = field.data.copy()
    for axis in (1, 2):
        np.fft.fft(spec, axis=axis, norm="ortho", out=spec)
    # the second buffer and the scratch are freed when this call returns
    spec, norms = _fourier_steps(spec, j0, steps, provider, params)
    for axis in (1, 2):
        np.fft.ifft(spec, axis=axis, norm="ortho", out=spec)
    return SpinorField(spec), norms


def _fourier_steps(spec: np.ndarray, j0: int, steps: int, provider: AngleProvider,
                   params: WalkParams) -> tuple[np.ndarray, list[float]]:
    """Step the unitary Fourier transform `spec` of a field, which is
    overwritten, through ping-pong buffers; see the module docstring.  The
    norm after step j is taken after A_{j+1} C_j, which is unitary too."""
    shape = spec.shape[1:]
    k1, k2 = (2 * np.pi * np.arange(n) / n for n in shape)

    def factors(j):
        th = provider.fields(j, shape)
        return _factors(th, t_epsilon_field(provider, j, shape, params), params, k1, k2)

    dst, scratch = np.empty_like(spec), np.empty(shape, dtype=complex)
    a, b, c = factors(j0)
    src, dst = _mode_apply(spec, a, 1, dst, scratch), spec
    norms = []
    for j in range(j0, j0 + steps):
        src, dst = _mode_apply(src, b, 2, dst, scratch), src
        last = c
        if j + 1 < j0 + steps:
            a, b, c = factors(j + 1)
            last = _times(a, last)
        src, dst = _mode_apply(src, last, 1, dst, scratch), src
        # einsum, not a BLAS dot: threaded OpenBLAS stalled on it in some runs
        flat = src.view(np.float64).ravel()
        norms.append(math.sqrt(np.einsum("i,i", flat, flat)))
    return src, norms


def evolve(field: SpinorField, j0: int, steps: int, provider: AngleProvider,
           params: WalkParams) -> SpinorField:
    """Compose `steps` walk steps starting at time j0; steps = 0 is the identity.
    Space-uniform angles are stepped in Fourier space (module docstring)."""
    return _time_loop(field, j0, steps, provider, params)[0]


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
    th = provider.fields(j, (2, 2))
    te = t_epsilon_field(provider, j, (2, 2), params)
    a, b, c = _factors(th, te, params, k1, k2)
    return np.reshape(_times(c, _times(b, a)), (2, 2))
