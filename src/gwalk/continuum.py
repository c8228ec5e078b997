"""Small-eps limit of the walk: the curved-space Dirac generator.

The walk step expands as V_j = 1 - i*eps*H + O(eps^2) where

    H = sum_k [ -i (B^k d_k + (d_k B^k)/2) ] + (m - T0/4) gamma0

with B^k built from the cosine fields and spatial derivatives taken along
X = p1*eps/2, Y = p2*eps/2.  Spatial derivatives are spectral so that the
residual of the expansion isolates the walk's own discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .geometry import _ETA, _LEVI, DualTriad
from .walk import KL_PAIRS, AngleProvider, SpinorField, WalkParams, step, t_epsilon_field

GAMMA0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
GAMMA1 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
GAMMA2 = np.array([[1j, 0.0], [0.0, -1j]], dtype=complex)


@dataclass(frozen=True)
class GammaRep:
    g0: np.ndarray
    g1: np.ndarray
    g2: np.ndarray

    def raised(self, a: int) -> np.ndarray:
        return (self.g0, self.g1, self.g2)[a]

    def lowered(self, a: int) -> np.ndarray:
        return _ETA[a] * self.raised(a)


def gamma_rep() -> GammaRep:
    return GammaRep(GAMMA0.copy(), GAMMA1.copy(), GAMMA2.copy())


def spin_generator(rep: GammaRep, c: int, d: int) -> np.ndarray:
    """S_cd = (i/2) [gamma_c, gamma_d] with lowered indices."""
    gc, gd = rep.lowered(c), rep.lowered(d)
    return 0.5j * (gc @ gd - gd @ gc)


def j_tensor(rep: GammaRep, b: int, c: int, d: int) -> np.ndarray:
    """J_bcd = {gamma_b, S_cd}; antisymmetric in (c,d) and in (b,c)."""
    gb = rep.lowered(b)
    s = spin_generator(rep, c, d)
    return gb @ s + s @ gb


# ---------------------------------------------------------------------------
# Hamiltonian pieces
# ---------------------------------------------------------------------------

def b_matrices(t11: float, t12: float, t21: float, t22: float):
    """The two Hermitian coefficient matrices of the derivative terms."""
    c11, c12 = np.cos(t11), np.cos(t12)
    c21, c22 = np.cos(t21), np.cos(t22)
    b1 = np.array([[-c11, -1j * c12], [1j * c12, c11]])
    b2 = np.array([[-c21, -1j * c22], [1j * c22, c21]])
    return b1, b2


@dataclass
class HamiltonianField:
    """Per-site generator data: four cosine fields plus the mass-like scalar.

    Entries may be scalars (uniform angles) or (L1, L2) arrays.  The
    derivative scale is set by the site spacing eps/2.
    """

    cos11: object
    cos12: object
    cos21: object
    cos22: object
    mass_like: object
    epsilon: float = 1.0


def hamiltonian_from_angles(t11, t12, t21, t22, mass: float = 0.0,
                            t0_value=0.0, epsilon: float = 1.0) -> HamiltonianField:
    return HamiltonianField(np.cos(t11), np.cos(t12), np.cos(t21), np.cos(t22),
                            mass - np.asarray(t0_value) / 4.0, epsilon)


def hamiltonian_from_provider(provider: AngleProvider, j: int,
                              shape: tuple[int, int],
                              params: WalkParams) -> HamiltonianField:
    """Generator built from the same angles the step reads at time j.

    The mass-like scalar uses the lattice time difference, which agrees
    with the continuum one to first order in eps.
    """
    th = provider.fields(j, shape)
    return hamiltonian_from_angles(*(th[kl] for kl in KL_PAIRS), params.mass,
                                   t_epsilon_field(provider, j, shape, params),
                                   params.epsilon)


def _spectral_derivative(comp: np.ndarray, axis: int, epsilon: float) -> np.ndarray:
    n = comp.shape[axis]
    k = 2.0 * np.pi * np.fft.fftfreq(n)
    shape = [1, 1]
    shape[axis] = n
    mult = 1j * k.reshape(shape) * (2.0 / epsilon)   # d/dX = (2/eps) d/dp
    return np.fft.ifft(mult * np.fft.fft(comp, axis=axis), axis=axis)


def _derive(value, axis: int, epsilon: float):
    if np.ndim(value) == 0:
        return 0.0
    return _spectral_derivative(np.asarray(value, dtype=complex), axis, epsilon)


def hamiltonian_apply(field: SpinorField, h: HamiltonianField) -> SpinorField:
    """H Psi with spectral spatial derivatives on the periodic lattice."""
    eps = h.epsilon
    d0_x = _spectral_derivative(field.data[0], 0, eps)
    d1_x = _spectral_derivative(field.data[1], 0, eps)
    d0_y = _spectral_derivative(field.data[0], 1, eps)
    d1_y = _spectral_derivative(field.data[1], 1, eps)

    c11, c12, c21, c22 = h.cos11, h.cos12, h.cos21, h.cos22
    # -i * B^k d_k Psi
    out0 = -1j * (-c11 * d0_x - 1j * c12 * d1_x - c21 * d0_y - 1j * c22 * d1_y)
    out1 = -1j * (1j * c12 * d0_x + c11 * d1_x + 1j * c22 * d0_y + c21 * d1_y)

    # -(i/2) (d_k B^k) Psi, nonzero only for space-dependent angles
    dx_c11 = _derive(c11, 0, eps)
    dx_c12 = _derive(c12, 0, eps)
    dy_c21 = _derive(c21, 1, eps)
    dy_c22 = _derive(c22, 1, eps)
    if np.ndim(dx_c11) or np.ndim(dx_c12) or np.ndim(dy_c21) or np.ndim(dy_c22):
        f0, f1 = field.data[0], field.data[1]
        out0 += -0.5j * ((-dx_c11 - dy_c21) * f0 + (-1j * dx_c12 - 1j * dy_c22) * f1)
        out1 += -0.5j * ((1j * dx_c12 + 1j * dy_c22) * f0 + (dx_c11 + dy_c21) * f1)

    # (m - T0/4) gamma0 Psi
    out0 = out0 + h.mass_like * field.data[1]
    out1 = out1 + h.mass_like * field.data[0]
    return SpinorField(np.stack((out0, out1)))


# ---------------------------------------------------------------------------
# mass-like scalar in the continuum
# ---------------------------------------------------------------------------

def _dual_and_rate(series: Callable, t: float, h: float):
    d_now = series(t)
    if not isinstance(d_now, DualTriad):
        raise ConfigurationError("dual triad series must return DualTriad values")
    rate = (series(t + h).d - series(t - h).d) / (2.0 * h)
    return d_now, rate


def t0(series: Callable, t: float, h: float = 1e-6) -> float:
    """Continuum mass-like scalar from a time series of dual triads.

    Time derivatives use centered differences with step h; the triad is
    the block inverse of the dual.
    """
    d_now, rate = _dual_and_rate(series, t, h)
    triad = np.zeros((3, 3))
    triad[0, 0] = 1.0
    triad[1:, 1:] = np.linalg.inv(d_now.spatial)
    total = 0.0
    for (a, b, c), sign in _LEVI.items():
        if b != 0:
            continue   # only the time derivative survives the block structure
        total -= sign * _ETA[c] * float(triad[:, a] @ rate[c, :])
    return total


def t0_dual_form(series: Callable, t: float, h: float = 1e-6) -> float:
    """Equivalent contraction e^(1)nu d0 e^(2)_nu - e^(2)nu d0 e^(1)_nu.

    The raised duals are eta-rescaled triad columns; agreement with
    :func:`t0` is an identity of the block frames.
    """
    d_now, rate = _dual_and_rate(series, t, h)
    triad = np.zeros((3, 3))
    triad[0, 0] = 1.0
    triad[1:, 1:] = np.linalg.inv(d_now.spatial)
    e1_up = _ETA[1] * triad[:, 1]
    e2_up = _ETA[2] * triad[:, 2]
    return float(e1_up @ rate[2, :] - e2_up @ rate[1, :])


# ---------------------------------------------------------------------------
# residual of the first-order expansion
# ---------------------------------------------------------------------------

def bandlimit_fraction(field: SpinorField) -> float:
    """Norm fraction carried by the top half of the spectrum (per axis)."""
    modes = np.fft.fft2(field.data, axes=(1, 2), norm="ortho")
    l1, l2 = field.shape
    n1 = np.fft.fftfreq(l1) * l1
    n2 = np.fft.fftfreq(l2) * l2
    low = (np.abs(n1)[:, None] < l1 / 4) & (np.abs(n2)[None, :] < l2 / 4)
    total = float(np.sum(np.abs(modes) ** 2))
    high = float(np.sum(np.abs(modes[:, ~low]) ** 2))
    return high / total if total > 0 else 0.0


def continuum_residual(provider: AngleProvider, params: WalkParams,
                       field: SpinorField, j: int,
                       bandlimit_tol: float = 1e-8, *,
                       bandlimit: float | None = None) -> float:
    """|| step(Psi) - Psi + i*eps*H*Psi || / ||Psi|| at time j.

    ``bandlimit`` is the field's ``bandlimit_fraction`` when the caller has
    taken it already; the guard compares it with ``bandlimit_tol``.
    """
    frac = bandlimit_fraction(field) if bandlimit is None else bandlimit
    if frac > bandlimit_tol:
        raise ConfigurationError(
            f"field is not bandlimited: top-half spectral mass {frac:.3e} "
            f"exceeds {bandlimit_tol:g}")
    stepped = step(field, j, provider, params)
    h = hamiltonian_from_provider(provider, j, field.shape, params)
    h_psi = hamiltonian_apply(field, h)
    res = stepped.data - field.data + 1j * params.epsilon * h_psi.data
    return float(np.linalg.norm(res) / np.linalg.norm(field.data))
