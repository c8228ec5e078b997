"""Fourier-space analysis of the shear-wave walk.

With space-uniform angles every lattice mode evolves under a 2x2 unitary
W(xi, g; qX, qY) where q = 2k because of the double jumps; the zone for q
is [-2pi, 2pi) per axis.  At first order W = W0 + xi*g*W1, and the size
of W1's eigenvalues, rho / sqrt(2), maps out where the shear wave acts.
W is :func:`gwalk.walk.plane_wave_transfer_matrix`; W0, W1 and the
large-scale expansion are written out as the tests' oracles
(``tests/oracles.py``).  This module holds what the runs compute: rho, its
maxima and zeros, and sampled grids of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import csvio
from .errors import ConsistencyError, finite, integer

TWO_PI = 2.0 * np.pi


class ModePoint(NamedTuple):
    qX: float
    qY: float


# ---------------------------------------------------------------------------
# first-order amplitudes
# ---------------------------------------------------------------------------

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


def rho(qx, qy):
    """Shear-coupling strength sqrt(|Abar|^2 + |Bbar|^2).

    Uses the unscaled amplitude pair; the eigenvalues of the first-order
    one-mode operator W1 have modulus rho / sqrt(2).
    """
    a_re, a_im, b_re, b_im = _amplitude_parts(qx, qy)
    return np.sqrt(a_re ** 2 + a_im ** 2 + b_re ** 2 + b_im ** 2)


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
