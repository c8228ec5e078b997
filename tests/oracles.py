"""Reference code that tests compare the package's output against.

The package ships what its runs compute.  The paper's other closed forms
live here, each written out on its own: the coin gates and the B^k
matrices entry by entry, the frame fields and metric as plain 3x3 arrays
(time-time entry 1, no time-space entries), the frame-field form of the
walk's time-difference scalar, the continuum T0, the gamma algebra, the
one-mode operators W0 and W1, and the large-scale expansion.  Beside them,
the real-space loop as it ran on complex values, the reference for the bits
of the loop on real planes; and which tan kernel and complex multiply numpy
runs, since pinned digests of the walk depend on them.
"""

import csv
import math
from typing import NamedTuple

import numpy as np

from gwalk import walk
from gwalk.spectral import _amplitude_parts
from gwalk.walk import KL_PAIRS


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    """Read back a numeric CSV written by the package."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def tan_is_libm() -> bool:
    """Whether numpy's array tan gives math.tan's bits."""
    probe = np.linspace(0.0, 1.0, 1001)
    return np.array_equal(np.tan(probe), [math.tan(v) for v in probe])


def complex_mul_is_fused() -> bool:
    """Whether numpy's complex multiply rounds otherwise than its four real
    products and two sums, each rounded on its own (as when it fuses a
    multiply and an add).  When it does, a general complex gate gives its
    bits only as a complex multiply, which is why the real-space loop runs
    the fused gates of a space-uniform step on complex values."""
    rng = np.random.default_rng(0)
    x, k = (rng.standard_normal(1001) + 1j * rng.standard_normal(1001) for _ in range(2))
    parts = np.empty_like(x)
    parts.real = x.real * k.real - x.imag * k.imag
    parts.imag = x.real * k.imag + x.imag * k.real
    return not np.array_equal((x * k).view(np.float64), parts.view(np.float64))


def broadcast_grid(fn, xs, ys):
    """fn over the grid xs x ys as one broadcast of the whole qX axis against
    the whole qY axis."""
    return fn(np.asarray(xs)[:, None], np.asarray(ys)[None, :])


def mode_w0_entries(qx, qy) -> np.ndarray:
    """The unperturbed one-mode operator, each entry written out."""
    qx, qy = np.broadcast_arrays(np.asarray(qx, float), np.asarray(qy, float))
    ex, cy, sy = np.exp(1j * qx), np.cos(qy), np.sin(qy)
    out = np.empty(qx.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = ex * cy
    out[..., 0, 1] = -np.conj(ex) * sy
    out[..., 1, 0] = ex * sy
    out[..., 1, 1] = np.conj(ex) * cy
    return out


def mode_w1_entries(qx, qy) -> np.ndarray:
    """The first-order one-mode operator, each entry written out from the
    closed-form amplitudes Abar, Bbar times exp(+-i pi/4) / sqrt(2)."""
    qx, qy = np.broadcast_arrays(np.asarray(qx, float), np.asarray(qy, float))
    a_re, a_im, b_re, b_im = _amplitude_parts(qx, qy)
    a = (0.5 + 0.5j) * (a_re + 1j * a_im)
    b = (0.5 - 0.5j) * (b_re + 1j * b_im)
    ex = np.exp(1j * qx)
    out = np.empty(qx.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = ex * a
    out[..., 0, 1] = -np.conj(ex) * b
    out[..., 1, 0] = ex * np.conj(b)
    out[..., 1, 1] = np.conj(ex) * np.conj(a)
    return out


def hamiltonian_entries(data, c11, c12, c21, c22, mass_like, epsilon):
    """H Psi of the continuum generator with every entry of B^k written out,
    each spinor component and each cosine field differentiated on its own."""
    def d(values, axis):
        if np.ndim(values) == 0:   # a uniform cosine
            return 0.0
        n = values.shape[axis]
        k = 2.0 * np.pi * np.fft.fftfreq(n) * (2.0 / epsilon)
        k = k[:, None] if axis == 0 else k[None, :]
        return np.fft.ifft(1j * k * np.fft.fft(values, axis=axis), axis=axis)

    f0, f1 = data
    d0_x, d1_x, d0_y, d1_y = d(f0, 0), d(f1, 0), d(f0, 1), d(f1, 1)
    out0 = -1j * (-c11 * d0_x - 1j * c12 * d1_x - c21 * d0_y - 1j * c22 * d1_y)
    out1 = -1j * (1j * c12 * d0_x + c11 * d1_x + 1j * c22 * d0_y + c21 * d1_y)
    dx_c11, dx_c12, dy_c21, dy_c22 = d(c11, 0), d(c12, 0), d(c21, 1), d(c22, 1)
    out0 += -0.5j * ((-dx_c11 - dy_c21) * f0 + (-1j * dx_c12 - 1j * dy_c22) * f1)
    out1 += -0.5j * ((1j * dx_c12 + 1j * dy_c22) * f0 + (dx_c11 + dy_c21) * f1)
    return np.stack((out0 + mass_like * f1, out1 + mass_like * f0))


# ---------------------------------------------------------------------------
# the real-space loop on complex values
# ---------------------------------------------------------------------------

def complex_real_steps(data, gate_lists) -> tuple[np.ndarray, list[float]]:
    """walk._real_steps as it ran on complex values, whole rows at a time:
    the result of the gate lists applied to a copy of the (2, L1, L2) array
    `data`, and the norm after each step.

    The field is held as diag(phase) x with units in {+-1, +-i}.  Row r of a
    per-site gate K * [[c, s], [s, c]] is psi_r (a x_0 + rho_r b x_1), with
    (a, b) = (c, s) or (s, c), psi_r = K_r0 phase_0 and rho_r = K_r1
    phase_1 / psi_r; x times a real field is a complex multiply by a + 0i,
    and where rho_r = +-i, x_1 is first multiplied by i.  A scalar gate
    absorbs the phase into its matrix; the phase left is applied at the end."""
    x, phase, norms = np.array(data, dtype=complex), (1, 1), []
    for gates in gate_lists:
        for k, fields, axis in walk._fused(iter(gates)):
            if fields is None:
                coef, ops = k * np.asarray(phase), (np.add, np.add)
                phase = (1, 1)
            else:
                if (k[0, 1] * phase[1] * np.conj(k[0, 0] * phase[0])).imag:
                    x[1] *= 1j
                    phase = (phase[0], -1j * phase[1])
                psi = k[:, 0] * phase[0]
                rho = k[:, 1] * phase[1] * np.conj(psi)
                c, s = (np.broadcast_to(f, x.shape[1:]) for f in fields)
                coef = ((c, s), (s, c))
                ops = tuple(np.add if r.real > 0 else np.subtract for r in rho)
                phase = tuple(psi)
            rows = [op(x[0] * a, x[1] * b) for (a, b), op in zip(coef, ops)]
            if axis:
                # S_k pulls the first component from p+1, the second from p-1
                rows = [np.roll(rows[0], -1, axis - 1), np.roll(rows[1], 1, axis - 1)]
            x = np.stack(rows)
        norms.append(walk._norm(x))
    for comp, p in enumerate(phase):
        if p != 1:
            x[comp] *= p
    return x, norms


# ---------------------------------------------------------------------------
# coin gates and derivative matrices, entry by entry
# ---------------------------------------------------------------------------

def coin_matrix(kind: str, arg: float = 0.0) -> np.ndarray:
    """One coin-space gate: U(th), R(th), the mass gate Q(m) = exp(-i m
    sigma_x), or the basis change PI (which takes no argument)."""
    c, s = np.cos(arg), np.sin(arg)
    ch, sh = np.cos(arg / 2), np.sin(arg / 2)
    return {"U": lambda: np.array([[-c, 1j * s], [-1j * s, c]]),
            "R": lambda: np.array([[1j * ch, 1j * sh], [-sh, ch]]),
            "Q": lambda: np.array([[c, -1j * s], [-1j * s, c]]),
            "PI": lambda: np.array([[-1j, 1.0], [-1.0, 1j]]) / np.sqrt(2.0)}[kind]()


def b_matrices(t11, t12, t21, t22):
    """The Hermitian coefficient matrices B^1, B^2 of the derivative terms."""
    def b(ca, cb):
        return np.array([[-ca, -1j * cb], [1j * cb, ca]])
    return b(np.cos(t11), np.cos(t12)), b(np.cos(t21), np.cos(t22))


# ---------------------------------------------------------------------------
# frame fields and the frame-field form of the time-difference scalar
# ---------------------------------------------------------------------------

ETA = np.diag([1.0, -1.0, -1.0])
_ETA = (1.0, -1.0, -1.0)
_LEVI = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
         (0, 2, 1): -1.0, (2, 1, 0): -1.0, (1, 0, 2): -1.0}


def triad_from_angles(t11, t12, t21, t22) -> np.ndarray:
    """Frame components e[mu][a]; the spatial block is the cosine matrix."""
    e = np.eye(3)
    e[1:, 1:] = [[np.cos(t11), np.cos(t12)], [np.cos(t21), np.cos(t22)]]
    return e


def dual_triad(e: np.ndarray) -> np.ndarray:
    """Dual frame components d[a][mu]: the spatial block inverts the triad's."""
    if abs(np.linalg.det(e[1:, 1:])) < 1e-10:
        raise ValueError("triad spatial block is singular")
    d = np.eye(3)
    d[1:, 1:] = np.linalg.inv(e[1:, 1:])
    return d


def metric_from_dual_triad(d: np.ndarray) -> np.ndarray:
    """g_{mu nu} = eta_ab e^(a)_mu e^(b)_nu, computed exactly as d^T eta d."""
    return d.T @ ETA @ d


def gw_metric_reference(gw, t: float) -> np.ndarray:
    """First-order target metric of the wave ``gw`` (a ``GwParams``).

    The angle map carries the shear in both off-diagonal cosines, so the
    metric generated through the triads has twice this reference's g12 at
    first order; the compression entries and all second-order behaviour
    agree.
    """
    f_val, g_val = gw.f_at(t), gw.g_at(t)
    g = np.diag([1.0, -(1.0 - gw.xi * (f_val - gw.k)),
                 -(1.0 + gw.xi * (f_val + gw.k_prime))])
    g[1, 2] = g[2, 1] = gw.xi * g_val
    return g


def site_angle(provider, j: int, p1: int, p2: int, kl, shape):
    """One angle of ``provider`` at time j and site (p1, p2) of an (L1, L2)
    lattice; sites wrap with the periodic lattice."""
    a = provider.fields(j, shape)[tuple(kl)]
    return a if provider.uniform_in_space else a[p1 % shape[0], p2 % shape[1]]


def _triad_pair(provider, j, p1, p2, shape):
    """Embedded 3x3 triad and dual triad at one site and time."""
    triad = triad_from_angles(*(site_angle(provider, j, p1, p2, kl, shape)
                                for kl in KL_PAIRS))
    return triad, dual_triad(triad)


def _site_rates(provider, j, p1, p2, eps, shape) -> list:
    """Centered differences of the dual triad along lattice axes 1 and 2."""
    return [(_triad_pair(provider, j, p1 + dp1, p2 + dp2, shape)[1]
             - _triad_pair(provider, j, p1 - dp1, p2 - dp2, shape)[1]) / eps
            for dp1, dp2 in ((1, 0), (0, 1))]


def t_epsilon_compact(provider, j: int, p1: int, p2: int, params, shape) -> float:
    """The walk's T at one site of the (L1, L2) lattice ``shape`` by the
    frame-field contraction -levi^{abc} eta_cd e^mu_(a) D_b e^(d)_mu.

    The derivative triple uses the forward time difference for b = 0 and
    centered site differences for b = 1, 2; the spatial terms vanish
    identically because of the block structure of the frames, so the value
    agrees with ``walk.t_epsilon_field`` at the site to roundoff.
    """
    eps = params.epsilon
    triad, dual = _triad_pair(provider, j, p1, p2, shape)
    rates = [(_triad_pair(provider, j + 1, p1, p2, shape)[1] - dual) / eps]
    rates += _site_rates(provider, j, p1, p2, eps, shape)
    return -sum(sign * _ETA[c] * float(triad[:, a] @ rates[b][c, :])
                for (a, b, c), sign in _LEVI.items())


def spatial_nullity_terms(provider, j: int, p1: int, p2: int, params, shape) -> tuple:
    """The two site-difference contractions K^i = levi^{ibc} e^mu_(b) eta_cd
    D_i e^(d)_mu on the (L1, L2) lattice ``shape``, identically zero for the
    embedded frames."""
    triad, _ = _triad_pair(provider, j, p1, p2, shape)
    rates = _site_rates(provider, j, p1, p2, params.epsilon, shape)
    return tuple(sum(sign * _ETA[c] * float(triad[:, b] @ rates[i - 1][c, :])
                     for (a, b, c), sign in _LEVI.items() if a == i)
                 for i in (1, 2))


# ---------------------------------------------------------------------------
# the continuum mass-like scalar T0
# ---------------------------------------------------------------------------

def _triad_and_rate(series, t: float, h: float):
    """The triad at t, the block inverse of the dual ``series(t)``, and the
    dual's centred time derivative with step h."""
    triad = np.eye(3)
    triad[1:, 1:] = np.linalg.inv(series(t)[1:, 1:])
    return triad, (series(t + h) - series(t - h)) / (2.0 * h)


def t0(series, t: float, h: float = 1e-6) -> float:
    """Continuum T0 from a time series of 3x3 dual triads; only the time
    derivative survives the block structure."""
    triad, rate = _triad_and_rate(series, t, h)
    return -sum(sign * _ETA[c] * float(triad[:, a] @ rate[c, :])
                for (a, b, c), sign in _LEVI.items() if b == 0)


def t0_dual_form(series, t: float, h: float = 1e-6) -> float:
    """The same T0 as e^(1)nu d0 e^(2)_nu - e^(2)nu d0 e^(1)_nu, with the raised
    duals taken as eta-rescaled triad columns."""
    triad, rate = _triad_and_rate(series, t, h)
    return float(_ETA[1] * triad[:, 1] @ rate[2, :] - _ETA[2] * triad[:, 2] @ rate[1, :])


# ---------------------------------------------------------------------------
# gamma algebra
# ---------------------------------------------------------------------------

GAMMAS = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
          np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex),
          np.array([[1j, 0.0], [0.0, -1j]], dtype=complex))


def spin_generator(c: int, d: int) -> np.ndarray:
    """S_cd = (i/2) [gamma_c, gamma_d] with lowered indices."""
    gc, gd = _ETA[c] * GAMMAS[c], _ETA[d] * GAMMAS[d]
    return 0.5j * (gc @ gd - gd @ gc)


def j_tensor(b: int, c: int, d: int) -> np.ndarray:
    """J_bcd = {gamma_b, S_cd}; antisymmetric in (c, d) and in (b, c)."""
    gb, s = _ETA[b] * GAMMAS[b], spin_generator(c, d)
    return gb @ s + s @ gb


# ---------------------------------------------------------------------------
# large-scale expansion of the one-mode operator
# ---------------------------------------------------------------------------

def large_scale_operator(xi: float, g: float, qx: float, qy: float) -> np.ndarray:
    """First order in q of the one-mode operator, valid for |q| << 1."""
    xg = xi * g
    alpha, beta = qx + xg * qy, qy + xg * qx
    return np.array([[1.0 + 1j * alpha, -beta], [beta, 1.0 - 1j * alpha]])


class PerturbativeEigs(NamedTuple):
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
    the qX > 0 branch has this closed form.
    """
    aq = float(np.hypot(qx, qy))
    if aq == 0.0:
        raise ValueError("|q| = 0: mode direction undefined")
    if qx <= 0.0:
        raise ValueError("closed-form eigenvectors cover only the qX > 0 branch")
    factor = (1.0 + 2.0 * xi * g * qx * qy / aq ** 2) * aq
    v0 = np.array([-1j * qy / (qx + aq), 1.0])
    bracket = qx - qy ** 2 * (1.0 + 2.0 * qx / aq) / (qx + aq)
    v1 = np.array([-1j * bracket / (qx + aq), 0.0])
    return PerturbativeEigs(1.0 - 1j * factor, 1.0 + 1j * factor, factor, -factor, v0, v1)
