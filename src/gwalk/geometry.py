"""Coin angles of a weak plane gravitational wave.

The four angles define the cosine matrix [cos th^{kl}], the spatial block
of the walk's triad; its inverse is the dual triad's, and the metric is
the eta-contraction of the dual with itself.  For a weak plane wave with
polarizations F (compression) and G (shear) the angles are produced
directly from the waveform.  The frame-field forms of the triads, the
metric and the time-difference scalar are the tests' oracles
(``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SignConditionError, finite
from .walk import AngleProvider

#: a radicand this far below zero is roundoff and is taken as zero
_ROUNDOFF_TOL = 1e-12


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
        if not v >= -_ROUNDOFF_TOL:   # a NaN fails too, and no K can cure it
            raise SignConditionError(
                f"{name} is not a number at T = {t:g}" if np.isnan(v) else
                f"{name} = {v:.6g} < 0 at T = {t:g}: increase {key} so the "
                f"compression angle stays real")
        roots.append(float(np.sqrt(max(v, 0.0))))   # forgive pure roundoff below zero
    shear = np.pi / 2 - gw.xi * gw.g_at(t)
    return roots[0], float(shear), float(shear), roots[1]


def gw_angle_provider(gw: GwParams, epsilon: float = 1.0) -> AngleProvider:
    """Angle provider evaluating the wave at lattice times T = j*eps."""
    finite(epsilon, "epsilon")
    return AngleProvider(lambda j: gw_angles(gw, j * epsilon), uniform_in_space=True)
