"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with the measured numbers (run with ``pytest -s`` to see them).
"""

import itertools
import math
import time

import numpy as np
import pytest

from gwalk import continuum, interference, spectral, walk
from gwalk.csvio import sha256_file

import oracles
from oracles import read_csv

TWO_PI = 2 * math.pi

RHO_MAX_VALUE = 4.69826
QX_PLUS, QX_MINUS = 2.1423, -4.14088
QY_PLUS, QY_MINUS = 2.81949, -3.46369
DELTA_M_PEAK = 2.48161
Q_PEAK = 1.97504
WAVELENGTHS = (6.3626, 10.7722)


def _report(number: int, message: str) -> None:
    print(f"[criterion {number:2d}] PASS - {message}")


def test_criterion_01_rho_maxima():
    start = time.perf_counter()
    maxima = spectral.find_rho_maxima(1024)
    elapsed = time.perf_counter() - start

    assert len(maxima) == 4
    expected = sorted([(QX_MINUS, QY_MINUS), (QX_MINUS, QY_PLUS),
                       (QX_PLUS, QY_MINUS), (QX_PLUS, QY_PLUS)])
    for (pt, value), (ex, ey) in zip(maxima, expected):
        assert abs(pt.qX - ex) < 1e-3
        assert abs(pt.qY - ey) < 1e-3
        assert abs(value - RHO_MAX_VALUE) < 1e-3
    assert elapsed < 30.0
    _report(1, f"four maxima at value {maxima[0][1]:.5f} in {elapsed:.2f}s")


def test_criterion_02_unaffected_modes():
    modes = spectral.unaffected_modes()
    first = [(TWO_PI * rx, TWO_PI * ry) for rx in (-1, 0, 1) for ry in (-1, 0, 1)]
    second = [(-math.pi / 2 + TWO_PI * sx, math.pi / 2 + TWO_PI * sy)
              for sx, sy in ((0, 0), (0, -1), (1, 0), (1, -1))]
    expected = sorted(first + second)

    assert len(modes) == 13
    worst = 0.0
    for pt, (ex, ey) in zip(modes, expected):
        worst = max(worst, abs(pt.qX - ex), abs(pt.qY - ey))
    assert worst < 1e-6
    _report(2, f"13 zeros, worst coordinate error {worst:.2e}")


def test_criterion_03_delta_m_curve():
    q_peak, value = interference.delta_max_peak()
    assert abs(value - DELTA_M_PEAK) < 1e-3
    assert abs(q_peak - Q_PEAK) < 1e-3

    assert abs(interference.delta_max(math.pi / 2) - 2.0) < 1e-9
    assert interference.delta_max(0.0) < 1e-6
    assert interference.delta_max(math.pi - 1e-4) < 1e-6

    qs = np.linspace(0.0, math.pi, 512, endpoint=False)[1:]
    sym = max(abs(interference.delta_max(float(q))
                  - interference.delta_max(float(math.pi - q)))
              for q in qs if 0.0 < math.pi - q < math.pi)
    assert sym < 1e-10

    lam_short = 4 * math.pi / q_peak
    lam_long = 4 * math.pi / (math.pi - q_peak)
    assert abs(lam_short - WAVELENGTHS[0]) < 1e-2
    assert abs(lam_long - WAVELENGTHS[1]) < 1e-2
    _report(3, f"peak {value:.5f} at q={q_peak:.5f}, wavelengths "
               f"{lam_short:.4f}/{lam_long:.4f}, symmetry defect {sym:.1e}")


def test_criterion_04_interference_oracle():
    length = 64
    q = interference.admissible_q(Q_PEAK, length)
    xis = (1e-2, 1e-3, 1e-4)
    errs = []
    for xi in xis:
        setup = interference.InterferenceSetup(q=q, shape=(length, length),
                                               xi=xi, g0=1.0)
        profile = interference.delta_simulated(setup)
        expected = interference.delta_formula(q, profile.u)
        errs.append(float(np.abs(profile.delta - expected).max()))
    slope = float(np.polyfit(np.log(xis), np.log(errs), 1)[0])
    assert abs(slope - 1.0) <= 0.2
    _report(4, f"one-step response matches closed form, slope {slope:.3f} "
               f"(errors {errs[0]:.1e} -> {errs[-1]:.1e})")


def test_criterion_05_continuum_limit():
    start = time.perf_counter()
    length = 128
    eps_values = (0.2, 0.1, 0.05, 0.025)
    pol = np.array([0.6 + 0.2j, -0.3 + 0.7j])
    pol /= np.linalg.norm(pol)

    cases = {
        "flat": (walk.flat_angles(), 0.0, True),
        "shear": (walk.pure_shear_angles(1e-3, 1.0), 0.0, True),
        "massive": (walk.flat_angles(), 0.5, False),
    }
    slopes = {}
    for name, (provider, mass, scale_mode) in cases.items():
        residuals = []
        for eps in eps_values:
            n = round(eps / eps_values[-1]) if scale_mode else 0
            k = 2 * math.pi * n / length
            f = walk.SpinorField.plane_wave((length, length), k, k, pol)
            params = walk.WalkParams(epsilon=eps, mass=mass)
            residuals.append(continuum.continuum_residual(provider, params, f, 0))
        slope = float(np.polyfit(np.log(eps_values), np.log(residuals), 1)[0])
        slopes[name] = slope
        assert 1.8 <= slope <= 2.2, f"{name}: order {slope}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(5, "second-order continuum scaling: " +
               ", ".join(f"{k}={v:.3f}" for k, v in slopes.items()) +
               f" in {elapsed:.1f}s")


def test_criterion_06_appendix_identities():
    rng = np.random.default_rng(2024)
    params = walk.WalkParams(epsilon=0.7)
    worst_t = 0.0
    trials = 0
    while trials < 100:
        angles = {kl: rng.uniform(0.1, 1.4, (2, 1, 1)) for kl in walk.KL_PAIRS}
        dets = []
        for j in (0, 1):
            c = {kl: math.cos(angles[kl][j, 0, 0]) for kl in walk.KL_PAIRS}
            dets.append(c[(1, 1)] * c[(2, 2)] - c[(1, 2)] * c[(2, 1)])
        if min(abs(d) for d in dets) < 0.05:
            continue  # reject ill-conditioned histories, they are not valid inputs
        provider = walk.array_angles(angles)
        direct = walk.t_epsilon_field(provider, 0, (2, 2), params)
        compact = oracles.t_epsilon_compact(provider, 0, 0, 0, params, (2, 2))
        worst_t = max(worst_t, abs(direct - compact))
        trials += 1
    assert worst_t < 1e-12

    fns = [lambda t: 0.3 + 0.1 * math.sin(t), lambda t: 1.0 + 0.2 * math.cos(t),
           lambda t: 0.8 + 0.05 * math.sin(0.5 * t),
           lambda t: 0.4 + 0.3 * math.sin(0.7 * t)]

    def series(t):
        return oracles.dual_triad(
            oracles.triad_from_angles(*[f(t) for f in fns]))

    worst_t0 = max(abs(oracles.t0(series, t) - oracles.t0_dual_form(series, t))
                   for t in (0.0, 0.9, 1.7, 2.6))
    assert worst_t0 < 1e-10

    gammas = oracles.GAMMAS
    eta = np.diag([1.0, -1.0, -1.0])
    for a in range(3):
        for b in range(3):
            anti = gammas[a] @ gammas[b] + gammas[b] @ gammas[a]
            assert np.array_equal(anti, 2 * eta[a, b] * np.eye(2))

    for b, c, d in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        assert np.array_equal(oracles.j_tensor(b, c, d), 2 * np.eye(2))
    for b, c, d in itertools.product(range(3), repeat=3):
        jbcd = oracles.j_tensor(b, c, d)
        assert np.array_equal(jbcd, -oracles.j_tensor(b, d, c))
        assert np.array_equal(jbcd, -oracles.j_tensor(c, b, d))
        if len({b, c, d}) < 3:
            assert np.array_equal(jbcd, np.zeros((2, 2)))

    _report(6, f"time-difference forms agree to {worst_t:.1e}; dual "
               f"contractions to {worst_t0:.1e}; algebra identities exact")


def test_criterion_07_unitarity_suite():
    rng = np.random.default_rng(7)
    params = walk.WalkParams()
    worst = 0.0
    for _ in range(50):
        arrays = {
            (1, 1): rng.uniform(0.1, 0.7, (2, 8, 8)),
            (2, 2): rng.uniform(0.1, 0.7, (2, 8, 8)),
            (1, 2): rng.uniform(0.9, 1.4, (2, 8, 8)),
            (2, 1): rng.uniform(0.9, 1.4, (2, 8, 8)),
        }
        provider = walk.array_angles(arrays)
        f = walk.SpinorField.random((8, 8), rng)
        out = walk.step(f, 0, provider, params)
        worst = max(worst, abs(out.norm() - f.norm()))
    assert worst < 1e-12

    n = 256
    ax = -TWO_PI + 2 * TWO_PI * np.arange(n) / n
    qx, qy = np.meshgrid(ax, ax, indexing="ij")
    w0, w1 = oracles.mode_w0_entries(qx, qy), oracles.mode_w1_entries(qx, qy)
    defect = np.einsum("...ji,...jk->...ik", w0.conj(), w1) \
        + np.einsum("...ji,...jk->...ik", w1.conj(), w0)
    first_order = float(np.abs(defect).max())
    assert first_order < 1e-12
    _report(7, f"norm drift {worst:.1e} over 50 random configs; first-order "
               f"unitarity defect {first_order:.1e} on a {n}x{n} grid")


def test_criterion_08_mode_operator_oracle():
    rng = np.random.default_rng(8)
    points = rng.uniform(-TWO_PI, TWO_PI, (100, 2))
    bounds = []
    for xi in (1e-2, 1e-3):
        worst = 0.0
        for qx, qy in points:
            exact = walk.plane_wave_transfer_matrix(walk.pure_shear_angles(xi, 1.0), 0,
                                                    qx / 2, qy / 2, walk.WalkParams(xi=xi))
            first_order = oracles.mode_w0_entries(qx, qy) + xi * oracles.mode_w1_entries(qx, qy)
            worst = max(worst, float(np.abs(exact - first_order).max()))
        bounds.append(worst)
        assert worst < 30.0 * xi ** 2
    assert bounds[1] < bounds[0] / 50.0  # clean quadratic shrinkage
    _report(8, f"lattice mode operator within O(xi^2) of W0 + xi*g*W1 "
               f"({bounds[0]:.1e} at 1e-2, {bounds[1]:.1e} at 1e-3)")


def test_criterion_09_large_scale_perturbation():
    # eigenvalue formula error, quadratic in the perturbation
    qx, qy = 0.18, 0.24
    xis = (1e-2, 1e-3, 1e-4)
    lam_errs, vec_errs = [], []
    for xg in xis:
        out = oracles.perturbative_eigs(xg, 1.0, qx, qy)
        w = oracles.large_scale_operator(xg, 1.0, qx, qy)
        exact = np.linalg.eigvals(w)
        lam_errs.append(min(abs(exact[0] - out.lambda_plus),
                            abs(exact[1] - out.lambda_plus)))
        v = out.v0_plus + xg * out.v1_plus
        vec_errs.append(float(np.linalg.norm(w @ v - out.lambda_plus * v)))
    lam_slope = float(np.polyfit(np.log(xis), np.log(lam_errs), 1)[0])
    vec_slope = float(np.polyfit(np.log(xis), np.log(vec_errs), 1)[0])
    assert abs(lam_slope - 2.0) <= 0.2
    assert abs(vec_slope - 2.0) <= 0.2

    # residual stays inside the stated envelope over directions and scales
    for xg in xis:
        for qn in (0.3, 0.1, 0.03):
            for phi in (0.25, 0.8, 1.35):
                qxx, qyy = qn * math.cos(phi), qn * math.sin(phi)
                out = oracles.perturbative_eigs(xg, 1.0, qxx, qyy)
                v = out.v0_plus + xg * out.v1_plus
                resid = float(np.linalg.norm(
                    oracles.large_scale_operator(xg, 1.0, qxx, qyy) @ v
                    - out.lambda_plus * v))
                assert resid <= 5.0 * (xg ** 2 + qn ** 2 * xg)

    # small-q agreement of the expansion with the mode operators
    xg = 1e-3
    qs = (0.1, 0.05, 0.025)
    errs = []
    for qn in qs:
        qxx, qyy = qn * 0.6, qn * 0.8
        approx = oracles.mode_w0_entries(qxx, qyy) + xg * oracles.mode_w1_entries(qxx, qyy)
        errs.append(float(np.abs(
            oracles.large_scale_operator(1.0, xg, qxx, qyy) - approx).max()))
    q_slope = float(np.polyfit(np.log(qs), np.log(errs), 1)[0])
    assert abs(q_slope - 2.0) <= 0.2
    _report(9, f"eigenvalue slope {lam_slope:.2f}, eigenvector residual slope "
               f"{vec_slope:.2f}, small-q slope {q_slope:.2f}")


def test_criterion_10_figure_regeneration(tmp_path):
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    kwargs = dict(resolution=512, lattice=64, sweep_resolution=4096)
    paths_a = interference.figure_tables(out_a, **kwargs)
    paths_b = interference.figure_tables(out_b, **kwargs)

    for name in ("fig1", "fig2", "fig3", "fig4"):
        assert sha256_file(paths_a[name]) == sha256_file(paths_b[name])

    _, rows = read_csv(paths_a["fig1"])
    values = np.array([r[2] for r in rows])
    assert abs(values.max() - RHO_MAX_VALUE) < 1e-3
    arg = rows[int(np.argmax(values))]
    maxima = spectral.find_rho_maxima(1024)
    grid_h = 2 * TWO_PI / 512
    assert any(abs(arg[0] - pt.qX) <= grid_h and abs(arg[1] - pt.qY) <= grid_h
               for pt, _ in maxima)

    _, rows4 = read_csv(paths_a["fig4"])
    dm = np.array([r[1] for r in rows4])
    qs = np.array([r[0] for r in rows4])
    assert abs(dm.max() - DELTA_M_PEAK) < 1e-3
    # the curve peaks twice, at q_peak and its mirror about pi/2
    q_arg = qs[int(np.argmax(dm))]
    assert min(abs(q_arg - Q_PEAK), abs(q_arg - (math.pi - Q_PEAK))) < 1e-3
    mirror = dm[np.abs(qs - (math.pi - Q_PEAK)).argmin()]
    assert abs(mirror - DELTA_M_PEAK) < 1e-3
    assert dm[0] == 0.0
    assert dm[-1] < 1e-2  # last grid point sits pi/4096 short of pi

    _report(10, f"figure tables stable across runs; fig1 max {values.max():.5f}, "
                f"fig4 max {dm.max():.5f} at q={qs[int(np.argmax(dm))]:.5f}")
