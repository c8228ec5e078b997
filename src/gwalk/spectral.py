"""Fourier-space analysis of the shear-wave walk.

With space-uniform angles every lattice mode evolves under a 2x2 unitary
W(xi, g; qX, qY) where q = 2k because of the double jumps; the zone for q
is [-2pi, 2pi) per axis.  At first order W = W0 + xi*g*W1, and the size
of W1's eigenvalues maps out where the shear wave acts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import csvio
from .errors import ConfigurationError
from .walk import SpinorField, WalkParams, plane_wave_transfer_matrix, pure_shear_angles

TWO_PI = 2.0 * np.pi


class ModePoint(NamedTuple):
    qX: float
    qY: float


# ---------------------------------------------------------------------------
# lattice Fourier transform
# ---------------------------------------------------------------------------

def dft_field(field: SpinorField) -> np.ndarray:
    """Unitary DFT of each spin component; mode (n1, n2) has k = 2*pi*n/L."""
    return np.fft.fft2(field.data, axes=(1, 2), norm="ortho")


def idft_field(modes: np.ndarray) -> SpinorField:
    return SpinorField(np.fft.ifft2(modes, axes=(1, 2), norm="ortho"))


# ---------------------------------------------------------------------------
# mode operators
# ---------------------------------------------------------------------------

def mode_w0(qx, qy) -> np.ndarray:
    """Unperturbed one-mode operator; shape (..., 2, 2) under broadcasting."""
    qx, qy = np.broadcast_arrays(np.asarray(qx, float), np.asarray(qy, float))
    ex, cy, sy = np.exp(1j * qx), np.cos(qy), np.sin(qy)
    out = np.empty(qx.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = ex * cy
    out[..., 0, 1] = -np.conj(ex) * sy
    out[..., 1, 0] = ex * sy
    out[..., 1, 1] = np.conj(ex) * cy
    return out


def _amplitude_parts(qx, qy) -> tuple:
    """Real and imaginary parts of Abar and Bbar, in that order."""
    qx = np.asarray(qx, float)
    qy = np.asarray(qy, float)
    cy, sy = np.cos(qy), np.sin(qy)
    a_re = -np.cos(qx - qy) + cy - sy + 2.0 * sy * cy
    a_im = -np.cos(qx + qy) + cy + sy
    b_re = np.sin(qx + qy) - sy + cy - (cy - sy) * (cy + sy)
    b_im = np.sin(qx - qy) + sy + cy - 1.0
    return a_re, a_im, b_re, b_im


def amplitude_pair_bar(qx, qy) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled complex amplitudes (Abar, Bbar) of the first-order operator."""
    a_re, a_im, b_re, b_im = _amplitude_parts(qx, qy)
    return a_re + 1j * a_im, b_re + 1j * b_im


def mode_w1(qx, qy) -> np.ndarray:
    """First-order (in xi*g) mode operator, from the closed-form amplitudes."""
    qx, qy = np.broadcast_arrays(np.asarray(qx, float), np.asarray(qy, float))
    abar, bbar = amplitude_pair_bar(qx, qy)
    # exp(+-i pi/4) / sqrt(2) = (1 +- i) / 2
    a = (0.5 + 0.5j) * abar
    b = (0.5 - 0.5j) * bbar
    ex = np.exp(1j * qx)
    out = np.empty(qx.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = ex * a
    out[..., 0, 1] = -np.conj(ex) * b
    out[..., 1, 0] = ex * np.conj(b)
    out[..., 1, 1] = np.conj(ex) * np.conj(a)
    return out


def rho(qx, qy):
    """Shear-coupling strength sqrt(|Abar|^2 + |Bbar|^2).

    Uses the unscaled amplitude pair; the eigenvalue modulus of
    :func:`mode_w1` is rho / sqrt(2).
    """
    a_re, a_im, b_re, b_im = _amplitude_parts(qx, qy)
    return np.sqrt(a_re ** 2 + a_im ** 2 + b_re ** 2 + b_im ** 2)


@dataclass(frozen=True)
class ModeOperator:
    """One-mode operator pieces with the perturbation metadata (xi, g)."""

    w0: np.ndarray
    w1: np.ndarray
    xi: float
    g: float
    qx: float
    qy: float

    def first_order(self) -> np.ndarray:
        return self.w0 + self.xi * self.g * self.w1

    def exact(self, mass: float = 0.0, epsilon: float = 1.0) -> np.ndarray:
        """Exact plane-wave transfer matrix of the shear-wave lattice step."""
        return transfer_matrix(self.xi, self.g, self.qx, self.qy,
                               mass=mass, epsilon=epsilon)


def mode_operator(xi: float, g: float, qx: float, qy: float) -> ModeOperator:
    return ModeOperator(mode_w0(qx, qy), mode_w1(qx, qy),
                        float(xi), float(g), float(qx), float(qy))


def transfer_matrix(xi: float, g: float, qx: float, qy: float,
                    mass: float = 0.0, epsilon: float = 1.0) -> np.ndarray:
    """Exact one-mode matrix of the shear-wave step at wavenumber q = 2k."""
    provider = pure_shear_angles(xi, g, epsilon=epsilon)
    params = WalkParams(epsilon=epsilon, mass=mass, xi=xi)
    return plane_wave_transfer_matrix(provider, 0, qx / 2.0, qy / 2.0, params)


# ---------------------------------------------------------------------------
# eigenstructure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenPair:
    eigenvalue: complex
    eigenvector: np.ndarray
    energy: float


def _energy(lam: complex) -> float:
    e = -float(np.angle(lam))
    if e <= -np.pi:
        e += TWO_PI
    return e


def _fix_phase(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    for comp in v:
        if abs(comp) > 1e-14:
            v = v * np.exp(-1j * np.angle(comp))
            break
    return v


def eigen(mat: np.ndarray) -> tuple[EigenPair, ...]:
    """Closed-form eigendecomposition of a 2x2 complex matrix.

    Pairs are sorted by ascending energy (-arg of the eigenvalue, mapped
    into (-pi, pi]); each eigenvector is normalized with its first nonzero
    component made real positive.  A defective matrix yields a single pair
    and a warning.
    """
    mat = np.asarray(mat, dtype=complex)
    a, b, c, d = mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1]
    tr, det = a + d, a * d - b * c
    disc = np.sqrt(complex(tr * tr - 4.0 * det))
    lams = ((tr + disc) / 2.0, (tr - disc) / 2.0)
    scale = max(1.0, abs(lams[0]), abs(lams[1]))

    if abs(lams[0] - lams[1]) < 1e-12 * scale:
        lam = tr / 2.0
        if max(abs(b), abs(c), abs(a - lam), abs(d - lam)) < 1e-12 * scale:
            # scalar matrix: any orthonormal basis diagonalizes it
            pairs = (EigenPair(lam, np.array([1.0 + 0j, 0.0]), _energy(lam)),
                     EigenPair(lam, np.array([0.0, 1.0 + 0j]), _energy(lam)))
            return pairs
        warnings.warn("defective 2x2 matrix: repeated eigenvalue, single "
                      "eigenvector returned", stacklevel=2)
        vec = _eigvec(a, b, c, d, lam)
        return (EigenPair(lam, vec, _energy(lam)),)

    pairs = [EigenPair(lam, _eigvec(a, b, c, d, lam), _energy(lam))
             for lam in lams]
    pairs.sort(key=lambda p: (p.energy,
                              tuple(np.round([p.eigenvector[0].real,
                                              p.eigenvector[0].imag,
                                              p.eigenvector[1].real,
                                              p.eigenvector[1].imag], 12))))
    return tuple(pairs)


def _eigvec(a, b, c, d, lam) -> np.ndarray:
    v1 = np.array([b, lam - a])
    v2 = np.array([lam - d, c])
    v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
    if np.linalg.norm(v) < 1e-14 * max(1.0, abs(lam)):
        v = np.array([1.0 + 0j, 0.0])
    return _fix_phase(v)


# ---------------------------------------------------------------------------
# landscape searches
# ---------------------------------------------------------------------------

def _coordinate_descent(fn: Callable, x: float, y: float, step: float,
                        min_step: float, maximize: bool = True):
    """Derivative-free local search with shrinking axis-aligned steps."""
    sign = 1.0 if maximize else -1.0
    best = sign * float(fn(x, y))
    while step > min_step:
        moved = False
        for dx, dy in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            cand = sign * float(fn(x + dx, y + dy))
            if cand > best:
                x, y, best = x + dx, y + dy, cand
                moved = True
        if not moved:
            step /= 2.0
    return x, y, sign * best


def _wrap_zone(q: float) -> float:
    """Map into [-2pi, 2pi) by the 4pi periodicity of the zone."""
    return (q + TWO_PI) % (2 * TWO_PI) - TWO_PI


def find_rho_maxima(resolution: int = 1024) -> list[tuple[ModePoint, float]]:
    """The four equal absolute maxima of rho over the zone, sorted by (qX, qY).

    A coarse resolution^2 scan, then refinement down to a 1e-8 step: the
    coordinates hold only to about 1e-8 (acceptance tolerance 1e-3), so past
    that their 17 printed digits follow last-digit roundoff in rho.
    """
    if resolution < 256:
        raise ConfigurationError("resolution must be at least 256")
    ax = -TWO_PI + 2 * TWO_PI * np.arange(resolution) / resolution
    qx, qy = np.meshgrid(ax, ax, indexing="ij")
    values = rho(qx, qy)
    peak = values.max()
    local = np.ones_like(values, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            local &= values >= np.roll(np.roll(values, di, 0), dj, 1)
    cands = np.argwhere(local & (values > 0.99 * peak))

    h = 2 * TWO_PI / resolution
    found: list[tuple[float, float, float]] = []
    for i, j in cands:
        x, y, v = _coordinate_descent(rho, ax[i], ax[j], h, 1e-8)
        x, y = _wrap_zone(x), _wrap_zone(y)
        if all((x - fx) ** 2 + (y - fy) ** 2 > 1e-8 for fx, fy, _ in found):
            found.append((x, y, v))
    found.sort(key=lambda t: -t[2])
    # lexicographic order on coordinates, insensitive to refinement jitter
    top = sorted(found[:4], key=lambda t: (round(t[0], 6), round(t[1], 6)))
    return [(ModePoint(x, y), v) for x, y, v in top]


def unaffected_modes(tolerance: float = 1e-6,
                     resolution: int = 512) -> list[ModePoint]:
    """All points of the zone where both first-order amplitudes vanish.

    The scan covers the closed square [-2pi, 2pi]^2, so zeros sitting on
    opposite edges are reported separately; that matches the enumeration
    of thirteen unaffected modes.
    """
    if tolerance <= 0:
        raise ConfigurationError("tolerance must be positive")
    ax = np.linspace(-TWO_PI, TWO_PI, resolution + 1)
    qx, qy = np.meshgrid(ax, ax, indexing="ij")
    values = rho(qx, qy)
    padded = np.pad(values, 1, constant_values=np.inf)
    local = np.ones_like(values, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            local &= values <= padded[1 + di:values.shape[0] + 1 + di,
                                      1 + dj:values.shape[1] + 1 + dj]
    cands = np.argwhere(local & (values < 0.5))

    h = 2 * TWO_PI / resolution
    zeros: list[tuple[float, float]] = []
    for i, j in cands:
        x, y, v = _coordinate_descent(rho, ax[i], ax[j], h, 1e-10,
                                      maximize=False)
        if v >= tolerance:
            continue
        x = min(max(x, -TWO_PI), TWO_PI)
        y = min(max(y, -TWO_PI), TWO_PI)
        if all((x - zx) ** 2 + (y - zy) ** 2 > 1e-8 for zx, zy in zeros):
            zeros.append((x, y))
    zeros.sort(key=lambda t: (round(t[0], 6), round(t[1], 6)))
    return [ModePoint(x, y) for x, y in zeros]


# ---------------------------------------------------------------------------
# large-scale expansion
# ---------------------------------------------------------------------------

def large_scale_operator(xi: float, g: float, qx: float, qy: float) -> np.ndarray:
    """First order in q of the one-mode operator, valid for |q| << 1."""
    xg = xi * g
    alpha = qx + xg * qy
    beta = qy + xg * qx
    return np.array([[1.0 + 1j * alpha, -beta],
                     [beta, 1.0 - 1j * alpha]])


@dataclass(frozen=True)
class PerturbativeEigs:
    """First-order eigenstructure of the large-scale operator (qX > 0 branch)."""

    lambda_plus: complex
    lambda_minus: complex
    energy_plus: float
    energy_minus: float
    v0_plus: np.ndarray
    v1_plus: np.ndarray


def perturbative_eigs(xi: float, g: float, qx: float, qy: float) -> PerturbativeEigs:
    """Closed-form eigenvalues, energies and the + eigenvector pieces.

    The energies pick up the anisotropic factor (1 + 2 xi g qX qY / |q|^2).
    The eigenvector pieces are normalized with second component 1; the
    first-order piece is the derivative of the exact eigenvector in xi*g,
    so the eigen-equation residual is quadratic in the perturbation.  Only
    the qX > 0 branch has this closed form; diagonalize
    :func:`large_scale_operator` numerically for qX <= 0.
    """
    aq = float(np.hypot(qx, qy))
    if aq == 0.0:
        raise ConfigurationError("|q| = 0: mode direction undefined")
    if qx <= 0.0:
        raise ConfigurationError(
            "closed-form eigenvectors cover only qX > 0; use eigen() on "
            "large_scale_operator for the other branch")
    factor = (1.0 + 2.0 * xi * g * qx * qy / aq ** 2) * aq
    lam_p = 1.0 - 1j * factor
    lam_m = 1.0 + 1j * factor
    v0 = np.array([-1j * qy / (qx + aq), 1.0])
    bracket = qx - qy ** 2 * (1.0 + 2.0 * qx / aq) / (qx + aq)
    v1 = np.array([-1j * bracket / (qx + aq), 0.0])
    return PerturbativeEigs(lam_p, lam_m, factor, -factor, v0, v1)


# ---------------------------------------------------------------------------
# sampled grids
# ---------------------------------------------------------------------------

@dataclass
class SpectrumGrid:
    """Scalar samples over the uniform [-2pi, 2pi)^2 grid."""

    qx: np.ndarray
    qy: np.ndarray
    values: np.ndarray
    kind: str

    @classmethod
    def sample(cls, fn: Callable, resolution: int, kind: str) -> "SpectrumGrid":
        """Evaluate fn(qX, qY) one qX row at a time into a preallocated grid,
        so no full-grid coordinate or temporary arrays are built."""
        ax = -TWO_PI + 2 * TWO_PI * np.arange(resolution) / resolution
        values = np.empty((resolution, resolution))
        for i, x in enumerate(ax):
            values[i] = fn(np.full(resolution, x), ax)
        return cls(ax, ax.copy(), values, kind)

    def to_csv(self, path) -> int:
        """Write the grid as qX,qY,value rows, qY fastest; returns the row count."""
        return csvio.write_csv(path, ["qX", "qY", "value"],
                               csvio.grid_rows(self.values, axes=(self.qx, self.qy)))
