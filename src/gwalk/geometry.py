"""Frame fields and metrics behind the coin angles.

The four angles define a 3x3 triad whose spatial block is the cosine
matrix [cos th^{kl}]; its inverse block is the dual triad, and the metric
is the eta-contraction of the dual with itself.  For a weak plane wave
with polarizations F (compression) and G (shear) the angles are produced
directly from the waveform.  The frame-field contraction of the
time-difference scalar lives here too, as an oracle for the walk's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GeometryError, SignConditionError, finite
from .walk import KL_PAIRS, SINGULAR_DET_TOL, AngleProvider, WalkParams

ETA = np.diag([1.0, -1.0, -1.0])
_ETA = (1.0, -1.0, -1.0)
_LEVI = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
         (0, 2, 1): -1.0, (2, 1, 0): -1.0, (1, 0, 2): -1.0}

_BORDER_TOL = 1e-12


def _check_border(m: np.ndarray, name: str) -> None:
    if m.shape != (3, 3):
        raise GeometryError(f"{name} must be 3x3, got {m.shape}")
    if abs(m[0, 0] - 1.0) > _BORDER_TOL or np.abs(m[0, 1:]).max() > _BORDER_TOL \
            or np.abs(m[1:, 0]).max() > _BORDER_TOL:
        raise GeometryError(
            f"{name} must have unit time-time entry and vanishing mixed "
            f"time-space entries")


@dataclass(frozen=True)
class Triad:
    """Frame components e[mu][a]; spatial block is the cosine matrix."""

    e: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "e", np.asarray(self.e, dtype=float))
        _check_border(self.e, "triad")

    @property
    def spatial(self) -> np.ndarray:
        return self.e[1:, 1:]


@dataclass(frozen=True)
class DualTriad:
    """Dual frame components d[a][mu]; spatial block inverts the triad's."""

    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float))
        _check_border(self.d, "dual triad")

    @property
    def spatial(self) -> np.ndarray:
        return self.d[1:, 1:]


@dataclass(frozen=True)
class Metric3:
    """Symmetric metric with g00 = 1 and vanishing time-space entries."""

    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))
        _check_border(self.g, "metric")
        if np.abs(self.g - self.g.T).max() > _BORDER_TOL:
            raise GeometryError("metric must be symmetric")


@dataclass(frozen=True)
class GwParams:
    """Wave amplitude xi, waveforms F and G of time, and offsets K, K'.

    K and K' shift the compression channel so that both square roots in
    the angle map stay real; choose them so -xi*(F(T) - K) >= 0 and
    xi*(F(T) + K') >= 0 over the simulated time range.
    """

    xi: float
    f: Callable | float = 0.0
    g: Callable | float = 0.0
    k: float = 0.0
    k_prime: float = 0.0

    def __post_init__(self):
        for name in ("xi", "f", "g", "k", "k_prime"):
            value = getattr(self, name)
            if not (name in ("f", "g") and callable(value)):
                finite(value, name)

    def f_at(self, t: float) -> float:
        return float(self.f(t)) if callable(self.f) else float(self.f)

    def g_at(self, t: float) -> float:
        return float(self.g(t)) if callable(self.g) else float(self.g)


def triad_from_angles(t11: float, t12: float, t21: float, t22: float) -> Triad:
    e = np.zeros((3, 3))
    e[0, 0] = 1.0
    e[1:, 1:] = [[np.cos(t11), np.cos(t12)],
                 [np.cos(t21), np.cos(t22)]]
    return Triad(e)


def dual_triad(t: Triad) -> DualTriad:
    det = float(np.linalg.det(t.spatial))
    if abs(det) < SINGULAR_DET_TOL:
        raise GeometryError(
            f"triad spatial block is singular (|det| = {abs(det):.3e})")
    d = np.zeros((3, 3))
    d[0, 0] = 1.0
    d[1:, 1:] = np.linalg.inv(t.spatial)
    return DualTriad(d)


def metric_from_dual_triad(d: DualTriad) -> Metric3:
    """g_{mu nu} = eta_ab e^(a)_mu e^(b)_nu, computed exactly as d^T eta d."""
    return Metric3(d.d.T @ ETA @ d.d)


def gw_angles(gw: GwParams, t: float) -> tuple[float, float, float, float]:
    """The four coin angles of a weak plane wave at time t.

    th11 = sqrt(-xi (F - K)), th22 = sqrt(xi (F + K')), and the shear pair
    th12 = th21 = pi/2 - xi G(t).  Nonnegative roots are taken so the
    compression angles stay near zero.
    """
    finite(t, "t")
    f_val = gw.f_at(t)
    roots = []
    for v, name, key in ((-gw.xi * (f_val - gw.k), "-xi*(F(T) - K)", "K"),
                         (gw.xi * (f_val + gw.k_prime), "xi*(F(T) + K')", "K'")):
        if not v >= -_BORDER_TOL:   # a NaN fails too
            raise SignConditionError(
                f"{name} = {v:.6g} < 0 at T = {t:g}: increase {key} so the "
                f"compression angle stays real")
        roots.append(float(np.sqrt(max(v, 0.0))))   # forgive pure roundoff below zero
    shear = np.pi / 2 - gw.xi * gw.g_at(t)
    return roots[0], float(shear), float(shear), roots[1]


def gw_metric_reference(gw: GwParams, t: float) -> Metric3:
    """First-order target metric of the wave, written down directly.

    Cross-validation caveat: the angle map carries the shear in both
    off-diagonal cosines, so the metric generated through the triads has
    twice this reference's g12 at first order; the compression entries
    and all second-order behaviour agree.
    """
    f_val, g_val = gw.f_at(t), gw.g_at(t)
    g = np.diag([1.0, -(1.0 - gw.xi * (f_val - gw.k)),
                 -(1.0 + gw.xi * (f_val + gw.k_prime))])
    g[1, 2] = g[2, 1] = gw.xi * g_val
    return Metric3(g)


def gw_angle_provider(gw: GwParams, epsilon: float = 1.0) -> AngleProvider:
    """Angle provider evaluating the wave at lattice times T = j*eps."""
    finite(epsilon, "epsilon")
    return AngleProvider(lambda j: gw_angles(gw, j * epsilon), uniform_in_space=True)


# ---------------------------------------------------------------------------
# frame-field form of the time-difference scalar
# ---------------------------------------------------------------------------

def _triad_pair(provider, j, p1, p2):
    """Embedded 3x3 triad and dual triad at one site and time."""
    triad = triad_from_angles(*(provider.angle(j, p1, p2, kl) for kl in KL_PAIRS))
    return triad, dual_triad(triad)


def _site_rates(provider, j, p1, p2, eps) -> list:
    """Centered differences of the dual triad along lattice axes 1 and 2."""
    return [(_triad_pair(provider, j, p1 + dp1, p2 + dp2)[1].d
             - _triad_pair(provider, j, p1 - dp1, p2 - dp2)[1].d) / eps
            for dp1, dp2 in ((1, 0), (0, 1))]


def t_epsilon_compact(provider: AngleProvider, j: int, p1: int, p2: int,
                      params: WalkParams) -> float:
    """Same scalar via the frame-field contraction -levi^{abc} eta_cd e^mu_(a) D_b e^(d)_mu.

    The derivative triple uses the forward time difference for b = 0 and
    centered site differences for b = 1, 2; the spatial terms vanish
    identically because of the block structure of the frames, so the value
    agrees with :func:`gwalk.walk.t_epsilon` to roundoff.
    """
    eps = params.epsilon
    p1, p2 = int(p1), int(p2)
    triad, dual = _triad_pair(provider, j, p1, p2)
    rates = [(_triad_pair(provider, j + 1, p1, p2)[1].d - dual.d) / eps]
    rates += _site_rates(provider, j, p1, p2, eps)
    return -sum(sign * _ETA[c] * float(triad.e[:, a] @ rates[b][c, :])
                for (a, b, c), sign in _LEVI.items())


def spatial_nullity_terms(provider: AngleProvider, j: int, p1: int, p2: int,
                          params: WalkParams) -> tuple[float, float]:
    """The two site-difference contractions K^i = levi^{ibc} e^mu_(b) eta_cd D_i e^(d)_mu.

    Both are identically zero for the embedded frames; exposed so tests can
    assert the nullity on arbitrary angle fields.
    """
    p1, p2 = int(p1), int(p2)
    triad, _ = _triad_pair(provider, j, p1, p2)
    rates = _site_rates(provider, j, p1, p2, params.epsilon)
    return tuple(sum(sign * _ETA[c] * float(triad.e[:, b] @ rates[i - 1][c, :])
                     for (a, b, c), sign in _LEVI.items() if a == i)
                 for i in (1, 2))
