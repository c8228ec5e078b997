"""Unitary lattice walk: spinor fields, coin gates, shifts and the full step.

The walker carries a two-component spinor on a finite periodic L1 x L2
lattice.  One time step applies, right to left,

    V_j = Pi^-1 [W_1(th12) W_2(th22)] Pi [W_2(th21) W_1(th11)] Q(eps*(m - T/4))

where W_k(th) = R^-1(th) U(th) S_k U(th) S_k R(th) is a pair of
spin-dependent double jumps S_k dressed by local coin rotations, and T is
the time-difference scalar built from the four cosine fields (see
:func:`t_epsilon`).  The chain is written once, as a gate list that
:func:`step` applies and :func:`plane_wave_transfer_matrix` multiplies with
each S_k replaced by its plane-wave phase.  Neighbouring scalar gates with
no shift between them are fused (9 gates per step for space-uniform
angles); per-site gates are applied one by one.  All operations are pure:
they read only the input field and return a fresh array.
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
    """Source of the four coin angles theta^{kl}(j, p1, p2).

    ``fn(j, p1, p2, kl)`` must be deterministic and side-effect free,
    defined for every integer time j >= 0 (the stepper also queries j+1)
    and at any integer site, including out-of-range ones, which wrap with
    the periodic lattice; it must accept integer arrays for p1/p2.
    Providers that do not depend on the site should set
    ``uniform_in_space`` so callers can use the cheaper scalar paths.
    """

    def __init__(self, fn: Callable, uniform_in_space: bool = False):
        self._fn = fn
        self.uniform_in_space = bool(uniform_in_space)

    def angle(self, j: int, p1, p2, kl: tuple[int, int]):
        return self._fn(int(j), p1, p2, tuple(kl))

    def fields(self, j: int, shape: tuple[int, int]) -> dict:
        """Angles of all four kinds at time j, as scalars or (L1, L2) arrays."""
        if self.uniform_in_space:
            return {kl: float(self.angle(j, 0, 0, kl)) for kl in KL_PAIRS}
        p1, p2 = np.indices(shape)
        return {kl: np.asarray(self.angle(j, p1, p2, kl), dtype=float)
                for kl in KL_PAIRS}


def constant_angles(t11: float, t12: float, t21: float, t22: float) -> AngleProvider:
    return uniform_time_angles(t11, t12, t21, t22)


def flat_angles() -> AngleProvider:
    """Angles whose cosine matrix is the identity (flat geometry)."""
    return constant_angles(0.0, math.pi / 2, math.pi / 2, 0.0)


def uniform_time_angles(t11, t12, t21, t22, epsilon: float = 1.0) -> AngleProvider:
    """Space-uniform angles; each argument is a constant or a function of T = j*eps."""
    def as_fn(v):
        return v if callable(v) else (lambda T, _v=float(v): _v)
    fns = {(1, 1): as_fn(t11), (1, 2): as_fn(t12),
           (2, 1): as_fn(t21), (2, 2): as_fn(t22)}
    return AngleProvider(lambda j, p1, p2, kl: fns[kl](j * epsilon),
                         uniform_in_space=True)


def pure_shear_angles(xi: float, g, epsilon: float = 1.0) -> AngleProvider:
    """Shear-only wave: th12 = th21 = pi/2 - xi*G(T), th11 = th22 = 0."""
    gf = g if callable(g) else (lambda T, _g=float(g): _g)

    def shear(T):
        return math.pi / 2 - xi * gf(T)

    return uniform_time_angles(0.0, shear, shear, 0.0, epsilon)


def array_angles(arrays: dict) -> AngleProvider:
    """Provider backed by precomputed arrays of shape (n_times, L1, L2).

    Stepping up to time j requires n_times >= j + 2, one extra slice for
    the time difference in the mass-like term.
    """
    arrs = {tuple(kl): np.asarray(a, dtype=float) for kl, a in arrays.items()}
    if set(arrs) != set(KL_PAIRS):
        raise ConfigurationError("array_angles needs all four (k, l) angle arrays")
    uniform = all(a.shape[1:] == (1, 1) for a in arrs.values())

    def fn(j, p1, p2, kl):
        a = arrs[kl]
        if j >= a.shape[0]:
            raise ConfigurationError(
                f"angle arrays cover times [0, {a.shape[0]}), queried j={j}")
        # sites wrap with the periodic lattice
        return a[j][np.mod(p1, a.shape[1]), np.mod(p2, a.shape[2])]

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

def _cos_and_inverse(provider: AngleProvider, j: int, p1, p2):
    """Entries of the cosine matrix C at time j and of its inverse."""
    c11, c12, c21, c22 = (np.cos(provider.angle(j, p1, p2, kl)) for kl in KL_PAIRS)
    det = c11 * c22 - c12 * c21
    bad = np.abs(det) < SINGULAR_DET_TOL
    if np.any(bad):
        idx = np.unravel_index(np.argmax(bad), np.shape(bad))
        site = (int(np.asarray(p1)[idx]), int(np.asarray(p2)[idx]))
        raise GeometryError(
            f"cosine matrix singular (|det| < {SINGULAR_DET_TOL:g}) "
            f"at time j={j}, site {site}")
    return (c11, c12, c21, c22), (c22 / det, -c12 / det, -c21 / det, c11 / det)


def _t_epsilon_values(provider: AngleProvider, j: int, p1, p2,
                      params: WalkParams):
    """T at (j, p1, p2); p1/p2 may be integer arrays."""
    (c11, c12, c21, c22), inv = _cos_and_inverse(provider, j, p1, p2)
    _, inv_next = _cos_and_inverse(provider, j + 1, p1, p2)
    d11, d12, d21, d22 = ((b - a) / params.epsilon for a, b in zip(inv, inv_next))
    # sum_k [ C^{k2} D0 (C^-1)^{1k} - C^{k1} D0 (C^-1)^{2k} ]
    return c12 * d11 - c11 * d21 + c22 * d12 - c21 * d22


def t_epsilon(provider: AngleProvider, j: int, p1: int, p2: int,
              params: WalkParams) -> float:
    """Time-difference scalar entering the mass gate.

    Vanishes whenever the cosine matrix is diagonal, antidiagonal or
    independent of j.
    """
    return float(_t_epsilon_values(provider, j, int(p1), int(p2), params))


def t_epsilon_field(provider: AngleProvider, j: int, shape: tuple[int, int],
                    params: WalkParams):
    """T over the whole lattice; scalar for space-uniform providers."""
    if provider.uniform_in_space:
        return t_epsilon(provider, j, 0, 0, params)
    return _t_epsilon_values(provider, j, *np.indices(shape), params)


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


def evolve(field: SpinorField, j0: int, steps: int, provider: AngleProvider,
           params: WalkParams) -> SpinorField:
    """Compose `steps` walk steps starting at time j0; steps = 0 is the identity."""
    if steps < 0:
        raise ConfigurationError(f"steps must be >= 0, got {steps}")
    out = field.copy()
    for n in range(steps):
        out = step(out, j0 + n, provider, params)
    return out


def plane_wave_transfer_matrix(provider: AngleProvider, j: int,
                               k1: float, k2: float,
                               params: WalkParams) -> np.ndarray:
    """Exact 2x2 action of one step on the plane wave exp(i(k1 p1 + k2 p2)).

    Only defined for space-uniform angles, where every Fourier mode evolves
    independently.  The double jumps make this a function of q = 2k.  It is
    the product of the step's gate list with each shift S_k replaced by
    diag(e^{ik}, e^{-ik}).
    """
    if not provider.uniform_in_space:
        raise ConfigurationError(
            "plane-wave transfer matrix requires space-uniform angles")
    th = provider.fields(j, (2, 2))
    te = t_epsilon(provider, j, 0, 0, params)
    phases = {0: 1.0, 1: np.exp([[1j * k1], [-1j * k1]]),
              2: np.exp([[1j * k2], [-1j * k2]])}
    tm = np.eye(2)
    for k, _, axis in _fused(_step_gates(th, te, params)):
        tm = phases[axis] * (k @ tm)
    return tm
