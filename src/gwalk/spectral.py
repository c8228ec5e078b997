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
from .errors import ConfigurationError, ConsistencyError, finite, integer
from .walk import WalkParams, plane_wave_transfer_matrix, pure_shear_angles

TWO_PI = 2.0 * np.pi


class ModePoint(NamedTuple):
    qX: float
    qY: float


# ---------------------------------------------------------------------------
# mode operators
# ---------------------------------------------------------------------------

def _mode_matrix(qx, a, b) -> np.ndarray:
    """[[e a, -conj(e) b], [e conj(b), conj(e) conj(a)]] with e = exp(i qX), shape
    (..., 2, 2): the layout both one-mode operators share."""
    e = np.exp(1j * qx)
    return np.stack((e * a, -np.conj(e) * b, e * np.conj(b), np.conj(e) * np.conj(a)),
                    axis=-1).reshape(qx.shape + (2, 2))


def mode_w0(qx, qy) -> np.ndarray:
    """Unperturbed one-mode operator; shape (..., 2, 2) under broadcasting."""
    qx, qy = np.broadcast_arrays(np.asarray(qx, float), np.asarray(qy, float))
    return _mode_matrix(qx, np.cos(qy), np.sin(qy))


def _amplitude_parts(qx, qy) -> tuple:
    """Real and imaginary parts of Abar and Bbar, in that order; cos and sin
    of qX +- qY come by angle addition, so on broadcast axes (``ax[:, None]``,
    ``ax[None, :]``) only the axes take transcendentals."""
    qx = np.asarray(qx, float)
    qy = np.asarray(qy, float)
    cx, sx, cy, sy = np.cos(qx), np.sin(qx), np.cos(qy), np.sin(qy)
    cxcy, sxsy, sxcy, cxsy = cx * cy, sx * sy, sx * cy, cx * sy
    a_re = -(cxcy + sxsy) + cy - sy + 2.0 * sy * cy
    a_im = -(cxcy - sxsy) + cy + sy
    b_re = (sxcy + cxsy) - sy + cy - (cy - sy) * (cy + sy)
    b_im = (sxcy - cxsy) + sy + cy - 1.0
    return a_re, a_im, b_re, b_im


def mode_w1(qx, qy) -> np.ndarray:
    """First-order (in xi*g) mode operator, from the closed-form amplitudes."""
    qx, qy = np.broadcast_arrays(np.asarray(qx, float), np.asarray(qy, float))
    a_re, a_im, b_re, b_im = _amplitude_parts(qx, qy)
    # Abar, Bbar times exp(+-i pi/4) / sqrt(2) = (1 +- i) / 2
    return _mode_matrix(qx, (0.5 + 0.5j) * (a_re + 1j * a_im),
                        (0.5 - 0.5j) * (b_re + 1j * b_im))


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

#: values per block of :func:`_grid_values`: the largest power of two that
#: keeps ``SpectrumGrid.sample(rho, 1024)``'s peak under 0.3 of the 1024^2
#: grid (0.29, with the 0.25 cell; 2^13 reaches 0.33, 2^14 0.40)
_BLOCK = 2 ** 12


def _grid_values(fn: Callable, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """fn over the grid xs x ys, as a preallocated (len(xs), len(ys)) array.

    ``fn`` must act elementwise and broadcast a (rows, 1) qX column against
    the (1, len(ys)) qY row, as ``rho`` does; it is called on blocks of whole
    rows, at most ``_BLOCK`` values each (one row if a row is longer), so its
    temporaries stay a block's size and in cache, where one broadcast over
    the grid holds several grids' worth at once.  Each value is computed by
    the same operations as in that broadcast, so the bits are the same.
    """
    out = np.empty((len(xs), len(ys)))
    rows = max(1, _BLOCK // len(ys))
    col, row = xs[:, None], ys[None, :]
    for i in range(0, len(xs), rows):
        out[i:i + rows] = fn(col[i:i + rows], row)
    return out


# _amplitude_parts' four parts p as sum_j COS[p, j] cos(k_j . q) + SIN[p, j]
# sin(k_j . q) over the frequencies k_j = _FREQS[j]; for example
# a_re = -cos(qX - qY) + cos qY - sin qY + sin 2qY
_FREQS = np.array([[1, -1], [1, 1], [0, 1], [0, 2], [0, 0]], dtype=float)
_COS = np.array([[-1, 0, 1, 0, 0], [0, -1, 1, 0, 0],
                 [0, 0, 1, -1, 0], [0, 0, 1, 0, -1]], dtype=float)
_SIN = np.array([[0, 0, -1, 1, 0], [0, 0, 1, 0, 0],
                 [0, 1, -1, 0, 0], [1, 0, 1, 0, 0]], dtype=float)

#: Newton steps allowed to refine a scanned maximum; from a grid point it
#: takes four to reach a step below 1e-12
_NEWTON_STEPS = 20


def _rho2_derivatives(qx: float, qy: float) -> tuple:
    """rho^2 at one point, with its analytic gradient (2,) and Hessian (2, 2)."""
    theta = _FREQS @ np.array([qx, qy], dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    terms = _COS * c + _SIN * s                      # (part, frequency)
    parts = terms.sum(axis=1)
    d_parts = (_SIN * c - _COS * s) @ _FREQS         # (part, axis)
    d2_parts = -np.einsum("pj,ja,jb->pab", terms, _FREQS, _FREQS)
    grad = 2.0 * parts @ d_parts
    hess = 2.0 * (d_parts.T @ d_parts + np.einsum("p,pab->ab", parts, d2_parts))
    return float(parts @ parts), grad, hess


def _newton_maximum(qx: float, qy: float) -> tuple[float, float]:
    """Refine a local maximum of rho by Newton steps on rho^2."""
    q = np.array([qx, qy], dtype=float)
    for _ in range(_NEWTON_STEPS):
        _, grad, hess = _rho2_derivatives(*q)
        if not (hess[0, 0] < 0.0 and hess[0, 0] * hess[1, 1] > hess[0, 1] ** 2):
            raise ConsistencyError(f"rho^2 Hessian not negative definite at {q.tolist()}")
        step = np.linalg.solve(hess, grad)
        q -= step
        if np.abs(step).max() < 1e-12:
            return float(q[0]), float(q[1])
    raise ConsistencyError(f"rho maximum: Newton did not converge in {_NEWTON_STEPS} steps")


def find_rho_maxima(resolution: int = 1024) -> list[tuple[ModePoint, float]]:
    """The four equal absolute maxima of rho over the zone, sorted by (qX, qY).

    rho is 2pi-periodic in each axis, so the maxima are one point and its
    2pi-translates.  The cell [-2pi, 0)^2 is scanned on the zone grid's
    points (step 4pi / resolution) by :func:`_grid_values`, and its argmax
    is refined by Newton steps on the analytic gradient and Hessian of
    rho^2; a Hessian that is not negative definite, or no convergence,
    raises :class:`ConsistencyError`.
    """
    integer(resolution, "resolution", 256)
    cell = -TWO_PI + 2 * TWO_PI * np.arange((resolution + 1) // 2) / resolution
    values = _grid_values(rho, cell, cell)
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    # the translates of the refined point in [0, 2pi)^2 and in the zone
    x, y = (v % TWO_PI for v in _newton_maximum(cell[i], cell[j]))
    qx, qy = np.array([x - TWO_PI] * 2 + [x] * 2), np.array([y - TWO_PI, y] * 2)
    return [(ModePoint(float(a), float(b)), float(v))
            for a, b, v in zip(qx, qy, rho(qx, qy))]


def unaffected_modes(tolerance: float = 1e-6) -> list[ModePoint]:
    """The points of the closed zone [-2pi, 2pi]^2 where both first-order
    amplitudes vanish, sorted by (qX, qY).

    There are thirteen, and they are exact: the nine points 2pi(m, n) and
    the four (-pi/2, pi/2) + 2pi(m, n) with m in {0, 1}, n in {-1, 0}.
    Zeros on opposite edges of the zone are listed separately.  A point is
    returned only where rho is below ``tolerance``.
    """
    finite(tolerance, "tolerance", "positive")
    halves = [(4 * m, 4 * n) for m in (-1, 0, 1) for n in (-1, 0, 1)]
    halves += [(4 * m - 1, 4 * n + 1) for m in (0, 1) for n in (-1, 0)]
    qx, qy = (np.pi / 2 * np.array(halves, dtype=float)).T
    keep = rho(qx, qy) < tolerance
    return sorted(ModePoint(float(x), float(y))
                  for x, y in zip(qx[keep], qy[keep]))


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
    """Scalar samples over the uniform [-2pi, 2pi)^2 grid on the axes ``qx``
    and ``qy``.  ``values`` is the whole grid, or at even resolution the
    2pi cell [-2pi, 0)^2 that tiles it: ``csvio.Grid`` writes either."""

    qx: np.ndarray
    qy: np.ndarray
    values: np.ndarray

    @classmethod
    def sample(cls, fn: Callable, resolution: int) -> "SpectrumGrid":
        """Evaluate fn(qX, qY) over the axes by :func:`_grid_values`.

        ``fn`` must be 2π-periodic in each axis, as ``rho`` is.  For even
        ``resolution`` the axis point i + n/2 is point i moved by 2π, so only
        the cell [-2π, 0)², ``ax[:n/2]`` on both axes, is evaluated and kept:
        its first argmax is the whole grid's.  An odd ``resolution`` has no
        translate on the grid and evaluates every point.
        """
        integer(resolution, "resolution", 2)
        ax = -TWO_PI + 2 * TWO_PI * np.arange(resolution) / resolution
        cell = ax if resolution % 2 else ax[:resolution // 2]
        return cls(ax, ax.copy(), _grid_values(fn, cell, cell))

    def to_csv(self, path, digest=None) -> int:
        """Write the grid as qX,qY,value rows, qY fastest; returns the row count.
        ``digest`` is ``csvio.write_csv``'s."""
        return csvio.write_csv(path, ["qX", "qY", "value"],
                               csvio.grid_rows(self.values, axes=(self.qx, self.qy)),
                               digest)
