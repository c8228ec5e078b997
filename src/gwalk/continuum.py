"""Small-eps limit of the walk: the curved-space Dirac generator.

The walk step expands as V_j = 1 - i*eps*H + O(eps^2) where

    H = sum_k [ -i (B^k d_k + (d_k B^k)/2) ] + (m - T0/4) gamma0

with B^k built from the cosine fields and spatial derivatives taken along
X = p1*eps/2, Y = p2*eps/2.  Spatial derivatives are spectral so that the
residual of the expansion isolates the walk's own discretization error.
The gamma algebra and the continuum forms of T0 are the tests' oracles
(``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .walk import KL_PAIRS, AngleProvider, SpinorField, WalkParams, step, t_epsilon_field


# ---------------------------------------------------------------------------
# Hamiltonian pieces
# ---------------------------------------------------------------------------

def _b_apply(ca, cb, v) -> np.ndarray:
    """B v for B = [[-ca, -i cb], [i cb, ca]], the coefficient matrix of one
    derivative term, on the two components v[0], v[1]."""
    return np.stack((-ca * v[0] - 1j * cb * v[1], 1j * cb * v[0] + ca * v[1]))


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


def _spectral_derivative(values: np.ndarray, axis: int, epsilon: float) -> np.ndarray:
    """d/dX (axis -2) or d/dY (axis -1) of every leading slice at once."""
    n = values.shape[axis]
    k = 2.0 * np.pi * np.fft.fftfreq(n)
    mult = 1j * k.reshape((n,) + (1,) * (-1 - axis)) * (2.0 / epsilon)  # d/dX = (2/eps) d/dp
    return np.fft.ifft(mult * np.fft.fft(values, axis=axis), axis=axis)


def _derive(value, axis: int, epsilon: float):
    if np.ndim(value) == 0:
        return 0.0
    return _spectral_derivative(np.asarray(value, dtype=complex), axis, epsilon)


def hamiltonian_apply(field: SpinorField, h: HamiltonianField) -> SpinorField:
    """H Psi with spectral spatial derivatives on the periodic lattice."""
    eps, psi = h.epsilon, field.data
    # -i * B^k d_k Psi
    out = -1j * (_b_apply(h.cos11, h.cos12, _spectral_derivative(psi, -2, eps))
                 + _b_apply(h.cos21, h.cos22, _spectral_derivative(psi, -1, eps)))
    # -(i/2) (d_k B^k) Psi, where d_k B^k = B(d_X c11 + d_Y c21, d_X c12 + d_Y c22);
    # nonzero only for space-dependent angles
    ca = _derive(h.cos11, -2, eps) + _derive(h.cos21, -1, eps)
    cb = _derive(h.cos12, -2, eps) + _derive(h.cos22, -1, eps)
    if np.ndim(ca) or np.ndim(cb):
        out += -0.5j * _b_apply(ca, cb, psi)
    # (m - T0/4) gamma0 Psi
    out += h.mass_like * psi[::-1]
    return SpinorField(out)


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
