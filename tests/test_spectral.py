import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwalk import spectral
from gwalk.cli import parse_config, run
from gwalk.csvio import sha256_file
from gwalk.errors import ConfigurationError, ConsistencyError
from gwalk.spectral import SpectrumGrid, find_rho_maxima, rho, unaffected_modes
from gwalk.walk import (SpinorField, WalkParams, plane_wave_transfer_matrix,
                        pure_shear_angles, step)

from oracles import (broadcast_grid, large_scale_operator, mode_w0_entries,
                     mode_w1_entries, perturbative_eigs)

TWO_PI = 2 * math.pi

# the nine zone-corner zeros plus the four spin-flip zeros
FIRST_ZERO_SET = [(TWO_PI * rx, TWO_PI * ry)
                  for rx in (-1, 0, 1) for ry in (-1, 0, 1)]
SECOND_ZERO_SET = [(-math.pi / 2 + TWO_PI * sx, math.pi / 2 + TWO_PI * sy)
                   for sx, sy in ((0, 0), (0, -1), (1, 0), (1, -1))]

zone_coords = st.floats(-TWO_PI, TWO_PI, allow_nan=False)


# ---------------------------------------------------------------------------
# oracles: the landscape written out term by term, and numeric searches over
# the whole zone that know nothing of its period or of the closed forms
# ---------------------------------------------------------------------------

def direct_rho(qx, qy):
    """rho with cos(qX +- qY) and sin(qX +- qY) taken directly."""
    cy, sy = np.cos(qy), np.sin(qy)
    a_re = -np.cos(qx - qy) + cy - sy + 2.0 * sy * cy
    a_im = -np.cos(qx + qy) + cy + sy
    b_re = np.sin(qx + qy) - sy + cy - (cy - sy) * (cy + sy)
    b_im = np.sin(qx - qy) + sy + cy - 1.0
    return np.sqrt(a_re ** 2 + a_im ** 2 + b_re ** 2 + b_im ** 2)


def coordinate_descent(fn, x, y, step, min_step, maximize=True):
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


def local_extrema(values, maximize, pad=None):
    """Mask of grid points no worse than their eight neighbours; ``pad``
    None wraps around the edges, a number pads them with it."""
    sign = 1.0 if maximize else -1.0
    v = sign * values
    n1, n2 = v.shape
    if pad is None:
        neighbours = np.pad(v, 1, mode="wrap")
    else:
        neighbours = np.pad(v, 1, constant_values=sign * pad)
    mask = np.ones_like(v, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                mask &= v >= neighbours[1 + di:n1 + 1 + di, 1 + dj:n2 + 1 + dj]
    return mask


def oracle_maxima(resolution):
    """Scan the whole zone, hill-climb every near-peak local maximum."""
    ax = -TWO_PI + 2 * TWO_PI * np.arange(resolution) / resolution
    values = direct_rho(*np.meshgrid(ax, ax, indexing="ij"))
    cands = np.argwhere(local_extrema(values, True)
                        & (values > 0.99 * values.max()))
    found = []
    for i, j in cands:
        x, y, v = coordinate_descent(direct_rho, ax[i], ax[j],
                                     2 * TWO_PI / resolution, 1e-8)
        x = (x + TWO_PI) % (2 * TWO_PI) - TWO_PI
        y = (y + TWO_PI) % (2 * TWO_PI) - TWO_PI
        if all(math.hypot(x - fx, y - fy) > 1e-4 for fx, fy, _ in found):
            found.append((x, y, v))
    return sorted(found)


def oracle_zeros(resolution=512, tolerance=1e-6):
    """Scan the closed zone, descend from every small local minimum."""
    ax = np.linspace(-TWO_PI, TWO_PI, resolution + 1)
    values = direct_rho(*np.meshgrid(ax, ax, indexing="ij"))
    cands = np.argwhere(local_extrema(values, False, pad=np.inf) & (values < 0.5))
    zeros = []
    for i, j in cands:
        x, y, v = coordinate_descent(direct_rho, ax[i], ax[j],
                                     2 * TWO_PI / resolution, 1e-10,
                                     maximize=False)
        x, y = min(max(x, -TWO_PI), TWO_PI), min(max(y, -TWO_PI), TWO_PI)
        if v < tolerance and all(math.hypot(x - zx, y - zy) > 1e-4
                                 for zx, zy in zeros):
            zeros.append((x, y))
    return sorted(zeros)


def dft_field(field):
    """Unitary DFT of each spin component; mode (n1, n2) has k = 2*pi*n/L."""
    return np.fft.fft2(field.data, axes=(1, 2), norm="ortho")


def idft_field(modes):
    return SpinorField(np.fft.ifft2(modes, axes=(1, 2), norm="ortho"))


class TestDft:
    def test_uniform_field_single_peak(self):
        f = SpinorField(np.ones((2, 8, 8), dtype=complex))
        modes = dft_field(f)
        assert abs(modes[0, 0, 0]) > 1e-12
        modes[0, 0, 0] = modes[1, 0, 0] = 0.0
        assert np.abs(modes).max() < 1e-12

    def test_plane_wave_delta(self):
        k1, k2 = 2 * np.pi * 3 / 8, 2 * np.pi * 5 / 8
        f = SpinorField.plane_wave((8, 8), k1, k2, (1, 0))
        modes = dft_field(f)
        assert abs(modes[0, 3, 5]) == pytest.approx(8.0)
        modes[0, 3, 5] = 0.0
        assert np.abs(modes).max() < 1e-12

    def test_round_trip_and_parseval(self):
        rng = np.random.default_rng(0)
        f = SpinorField.random((16, 16), rng)
        modes = dft_field(f)
        back = idft_field(modes)
        assert np.abs(back.data - f.data).max() < 1e-12
        assert abs(np.sum(np.abs(modes) ** 2)
                   - np.sum(np.abs(f.data) ** 2)) < 1e-12


def exact_mode_matrix(xi, g, qx, qy):
    """The shear-wave step's exact one-mode matrix at q = 2k."""
    return plane_wave_transfer_matrix(pure_shear_angles(xi, g), 0, qx / 2, qy / 2,
                                      WalkParams(xi=xi))


class TestModeOperators:
    def test_w0_at_origin_is_identity(self):
        np.testing.assert_allclose(mode_w0_entries(0.0, 0.0), np.eye(2), atol=1e-15)

    def test_w0_spin_flip_point(self):
        m = mode_w0_entries(-math.pi / 2, math.pi / 2)
        sigma1 = np.array([[0, 1], [1, 0]])
        np.testing.assert_allclose(m, -1j * sigma1, atol=1e-15)

    def test_w0_trace_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            qx, qy = rng.uniform(-TWO_PI, TWO_PI, 2)
            tr = np.trace(mode_w0_entries(qx, qy))
            assert tr == pytest.approx(2 * math.cos(qx) * math.cos(qy), abs=1e-12)

    def test_w1_zero_points(self):
        for qx, qy in [(0.0, 0.0), (-math.pi / 2, math.pi / 2)]:
            assert np.abs(mode_w1_entries(qx, qy)).max() < 1e-14

    def test_w1_matches_lattice_derivative(self):
        # Richardson-style check: the residual shrinks linearly with xi
        rng = np.random.default_rng(2)
        points = rng.uniform(-TWO_PI, TWO_PI, (20, 2))
        errs = []
        for xi in (1e-3, 1e-4):
            worst = 0.0
            for qx, qy in points:
                w_exact = exact_mode_matrix(xi, 1.0, qx, qy)
                w1_num = (w_exact - mode_w0_entries(qx, qy)) / xi
                worst = max(worst, np.abs(w1_num - mode_w1_entries(qx, qy)).max())
            errs.append(worst)
        assert errs[0] < 0.02
        assert errs[1] < errs[0] / 5.0

    def test_first_order_unitarity(self):
        rng = np.random.default_rng(3)
        qx = rng.uniform(-TWO_PI, TWO_PI, 500)
        qy = rng.uniform(-TWO_PI, TWO_PI, 500)
        w0, w1 = mode_w0_entries(qx, qy), mode_w1_entries(qx, qy)
        defect = np.einsum("...ji,...jk->...ik", w0.conj(), w1) \
            + np.einsum("...ji,...jk->...ik", w1.conj(), w0)
        assert np.abs(defect).max() < 1e-12

    def test_exact_mode_operator_is_the_plane_wave_step(self):
        xi, g = 3e-3, 0.8
        k1, k2 = 2 * np.pi * 5 / 32, 2 * np.pi * 9 / 32
        pol = np.array([0.48 - 0.6j, 0.64])
        f = SpinorField.plane_wave((32, 32), k1, k2, pol)
        out = step(f, 0, pure_shear_angles(xi, g), WalkParams(xi=xi))
        expected = exact_mode_matrix(xi, g, 2 * k1, 2 * k2) @ pol
        assert np.abs(out.data[:, 0, 0] - expected).max() < 1e-12

    def test_mode_operator_exact_vs_first_order(self):
        rng = np.random.default_rng(4)
        for xi in (1e-3, 1e-4):
            for _ in range(10):
                qx, qy = rng.uniform(-TWO_PI, TWO_PI, 2)
                first_order = mode_w0_entries(qx, qy) + xi * mode_w1_entries(qx, qy)
                diff = np.abs(exact_mode_matrix(xi, 1.0, qx, qy) - first_order).max()
                assert diff < 30 * xi ** 2

    def test_broadcast_shapes(self):
        qx = np.zeros((3, 4))
        assert mode_w0_entries(qx, qx).shape == (3, 4, 2, 2)
        assert mode_w1_entries(qx, qx).shape == (3, 4, 2, 2)


class TestRho:
    def test_vanishes_at_origin(self):
        assert rho(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_known_maximum_value(self):
        assert rho(2.1423, 2.81949) == pytest.approx(4.69826, abs=1e-3)
        assert rho(-4.14088, -3.46369) == pytest.approx(4.69826, abs=1e-3)

    def test_w1_eigenvalue_modulus_is_rho_over_sqrt2(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            qx, qy = rng.uniform(-TWO_PI, TWO_PI, 2)
            lams = np.linalg.eigvals(mode_w1_entries(qx, qy))
            target = rho(qx, qy) / math.sqrt(2.0)
            np.testing.assert_allclose(np.abs(lams), target, atol=1e-10)
            # eigenvalues come in a conjugate pair
            assert lams[0] == pytest.approx(np.conj(lams[1]), abs=1e-10)

    def test_positive_away_from_zeros(self):
        n = 201
        ax = np.linspace(-TWO_PI, TWO_PI, n)
        qx, qy = np.meshgrid(ax, ax, indexing="ij")
        values = rho(qx, qy)
        zeros = FIRST_ZERO_SET + SECOND_ZERO_SET
        dist = np.full_like(values, np.inf)
        for zx, zy in zeros:
            dist = np.minimum(dist, np.hypot(qx - zx, qy - zy))
        assert values[dist > 0.3].min() > 0.05

    def test_angle_addition_matches_direct_form(self):
        rng = np.random.default_rng(9)
        qx, qy = rng.uniform(-TWO_PI, TWO_PI, (2, 10_000))
        np.testing.assert_allclose(rho(qx, qy), direct_rho(qx, qy),
                                   rtol=0, atol=1e-14)

    def test_broadcast_axes_match_meshgrid(self):
        ax = -TWO_PI + 2 * TWO_PI * np.arange(96) / 96
        ay = np.linspace(-TWO_PI, TWO_PI, 80)
        on_axes = rho(ax[:, None], ay[None, :])
        assert on_axes.shape == (96, 80)
        np.testing.assert_allclose(on_axes, rho(*np.meshgrid(ax, ay, indexing="ij")),
                                   rtol=0, atol=1e-14)


class TestRho2Derivatives:
    @given(zone_coords, zone_coords)
    def test_value_is_rho_squared(self, qx, qy):
        value, _, _ = spectral._rho2_derivatives(qx, qy)
        assert value == pytest.approx(float(rho(qx, qy)) ** 2, rel=1e-12, abs=1e-13)

    @given(zone_coords, zone_coords)
    def test_gradient_matches_central_differences(self, qx, qy):
        h = 1e-5
        _, grad, _ = spectral._rho2_derivatives(qx, qy)
        num = [(rho(qx + h, qy) ** 2 - rho(qx - h, qy) ** 2) / (2 * h),
               (rho(qx, qy + h) ** 2 - rho(qx, qy - h) ** 2) / (2 * h)]
        np.testing.assert_allclose(grad, num, rtol=0, atol=1e-7)

    @given(zone_coords, zone_coords)
    def test_hessian_matches_central_differences(self, qx, qy):
        h = 1e-6
        _, _, hess = spectral._rho2_derivatives(qx, qy)
        gx = [spectral._rho2_derivatives(qx + d, qy)[1] for d in (h, -h)]
        gy = [spectral._rho2_derivatives(qx, qy + d)[1] for d in (h, -h)]
        num = np.array([(gx[0] - gx[1]) / (2 * h), (gy[0] - gy[1]) / (2 * h)])
        np.testing.assert_allclose(hess, hess.T, rtol=0, atol=0)
        np.testing.assert_allclose(hess, num, rtol=0, atol=1e-7)


class TestMaximaSearch:
    def test_four_maxima_match_reference(self):
        maxima = find_rho_maxima(512)
        assert len(maxima) == 4
        qxp, qxm = 2.1423, -4.14088
        qyp, qym = 2.81949, -3.46369
        expected = sorted([(qxm, qym), (qxm, qyp), (qxp, qym), (qxp, qyp)])
        for (pt, value), (ex, ey) in zip(maxima, expected):
            assert pt.qX == pytest.approx(ex, abs=1e-3)
            assert pt.qY == pytest.approx(ey, abs=1e-3)
            assert value == pytest.approx(4.69826, abs=1e-3)
        values = [v for _, v in maxima]
        assert max(values) - min(values) < 1e-6

    def test_resolution_floor(self):
        with pytest.raises(ConfigurationError):
            find_rho_maxima(128)

    @pytest.mark.parametrize("resolution", [256, 1024, 1025])
    def test_maxima_are_exact_translates(self, resolution):
        (p00, v00), (p01, v01), (p10, v10), (p11, v11) = find_rho_maxima(resolution)
        assert p00.qX == p01.qX and p10.qX == p11.qX
        assert p00.qY == p10.qY and p01.qY == p11.qY
        assert abs(p10.qX - p00.qX - TWO_PI) < 1e-12
        assert abs(p01.qY - p00.qY - TWO_PI) < 1e-12
        assert max(v00, v01, v10, v11) - min(v00, v01, v10, v11) < 1e-12

    def test_gradient_vanishes_at_maxima(self):
        for pt, value in find_rho_maxima(1024):
            rho2, grad, hess = spectral._rho2_derivatives(pt.qX, pt.qY)
            assert np.abs(grad).max() < 1e-12
            assert np.all(np.linalg.eigvalsh(hess) < 0)
            assert value == pytest.approx(math.sqrt(rho2), rel=1e-15)

    def test_matches_numeric_oracle(self):
        found = oracle_maxima(1024)
        assert len(found) == 4
        for (pt, value), (x, y, v) in zip(find_rho_maxima(1024), found):
            assert abs(pt.qX - x) < 1e-7 and abs(pt.qY - y) < 1e-7
            assert value >= v - 1e-12  # no point the oracle found is higher

    def test_newton_refuses_a_minimum(self):
        with pytest.raises(ConsistencyError, match="negative definite"):
            spectral._newton_maximum(0.1, -0.05)

    def test_newton_reports_no_convergence(self, monkeypatch):
        monkeypatch.setattr(spectral, "_NEWTON_STEPS", 1)
        with pytest.raises(ConsistencyError, match="converge"):
            find_rho_maxima(256)

    def test_scan_allocates_a_fraction_of_the_grid(self):
        # the bound of test_sample_allocates_only_the_cell: the 512^2 cell
        # is 0.25 of the 1024^2 grid, and its blocks' temporaries are small
        tracemalloc.start()
        try:
            find_rho_maxima(1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.3 * 1024 ** 2 * 8


class TestUnaffectedModes:
    def test_exactly_thirteen(self):
        modes = unaffected_modes()
        assert len(modes) == 13

    def test_matches_both_enumerated_sets(self):
        modes = unaffected_modes()
        expected = sorted(FIRST_ZERO_SET + SECOND_ZERO_SET)
        for pt, (ex, ey) in zip(modes, expected):
            assert pt.qX == pytest.approx(ex, abs=1e-6)
            assert pt.qY == pytest.approx(ey, abs=1e-6)

    def test_contains_specific_points(self):
        modes = unaffected_modes()
        def has(x, y):
            return any(abs(pt.qX - x) < 1e-6 and abs(pt.qY - y) < 1e-6
                       for pt in modes)
        assert has(0.0, -TWO_PI)
        assert has(3 * math.pi / 2, math.pi / 2)

    def test_coordinates_are_multiples_of_half_pi(self):
        for pt in unaffected_modes():
            for q in pt:
                assert q == round(q / (math.pi / 2)) * (math.pi / 2)

    def test_matches_numeric_oracle(self):
        found = oracle_zeros()
        modes = unaffected_modes()
        assert len(found) == len(modes) == 13
        for pt, (x, y) in zip(modes, found):
            assert abs(pt.qX - x) < 1e-6 and abs(pt.qY - y) < 1e-6

    def test_tolerance_filters_points(self):
        modes = unaffected_modes(1e-300)
        assert modes == [spectral.ModePoint(0.0, 0.0)]
        with pytest.raises(ConfigurationError, match="positive"):
            unaffected_modes(0.0)


class TestArgumentKinds:
    @pytest.mark.parametrize("make, name", [
        (lambda: find_rho_maxima(256.5), "resolution"),
        (lambda: unaffected_modes(math.nan), "tolerance"),
    ], ids=["resolution-float", "tolerance-nan"])
    def test_bad_argument_is_a_config_error_naming_it(self, make, name):
        with pytest.raises(ConfigurationError, match=name):
            make()

    def test_numpy_integer_resolution(self):
        assert find_rho_maxima(np.int64(256)) == find_rho_maxima(256)


class TestEigen:
    # W0's eigenstructure, by numpy's eig: energies are -arg of the eigenvalues
    def test_w0_on_axis(self):
        q = 0.9
        values, vectors = np.linalg.eig(mode_w0_entries(q, 0.0))
        order = np.argsort(-np.angle(values))
        values, vectors = values[order], vectors[:, order]
        np.testing.assert_allclose(-np.angle(values), [-q, q], atol=1e-12)
        # (0, 1) belongs to the exp(-iq) eigenvalue
        assert values[1] == pytest.approx(np.exp(-1j * q), abs=1e-12)
        np.testing.assert_allclose(np.abs(vectors[:, 1]), [0.0, 1.0], atol=1e-12)

    def test_w0_energies_arccos_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            qx, qy = rng.uniform(-TWO_PI, TWO_PI, 2)
            energies = sorted(-np.angle(np.linalg.eigvals(mode_w0_entries(qx, qy))))
            e = math.acos(np.clip(math.cos(qx) * math.cos(qy), -1.0, 1.0))
            assert energies[0] == pytest.approx(-e, abs=1e-10)
            assert energies[1] == pytest.approx(e, abs=1e-10)


class TestLargeScale:
    def test_identity_at_origin(self):
        np.testing.assert_allclose(large_scale_operator(0.0, 1.0, 0.0, 0.0),
                                   np.eye(2), atol=0)

    def test_direct_entry(self):
        m = large_scale_operator(0.01, 1.0, 0.1, 0.05)
        assert m[0, 0] == pytest.approx(1 + 0.1005j)

    def test_matches_mode_operators_at_small_q(self):
        xg = 1e-3
        qs = (0.1, 0.05, 0.025)
        errs = []
        for qn in qs:
            qx, qy = qn * 0.6, qn * 0.8
            approx = mode_w0_entries(qx, qy) + xg * mode_w1_entries(qx, qy)
            errs.append(np.abs(large_scale_operator(1.0, xg, qx, qy) - approx).max())
        slope = np.polyfit(np.log(qs), np.log(errs), 1)[0]
        assert slope > 1.9


class TestPerturbativeEigs:
    def test_axis_aligned_energies_unshifted(self):
        out = perturbative_eigs(0.01, 1.0, 0.3, 0.0)
        assert out.energy_plus == pytest.approx(0.3)
        assert out.energy_minus == pytest.approx(-0.3)

    def test_diagonal_energy_factor(self):
        out = perturbative_eigs(0.01, 1.0, 0.1, 0.1)
        assert out.energy_plus == pytest.approx(1.01 * 0.1 * math.sqrt(2.0))

    def test_v0_value(self):
        out = perturbative_eigs(0.0, 1.0, 0.3, 0.4)
        np.testing.assert_allclose(out.v0_plus, [-0.5j, 1.0], atol=1e-15)

    def test_eigen_residual_quadratic_in_xi(self):
        qx, qy = 0.18, 0.24
        errs = []
        xis = (1e-2, 1e-3, 1e-4)
        for xg in xis:
            out = perturbative_eigs(xg, 1.0, qx, qy)
            v = out.v0_plus + xg * out.v1_plus
            resid = large_scale_operator(xg, 1.0, qx, qy) @ v - out.lambda_plus * v
            errs.append(np.linalg.norm(resid))
        slope = np.polyfit(np.log(xis), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_residual_within_stated_bound(self):
        for xg in (1e-2, 1e-3, 1e-4):
            for qn in (0.3, 0.1, 0.03):
                for phi in (0.2, 0.9, 1.3):
                    qx, qy = qn * math.cos(phi), qn * math.sin(phi)
                    out = perturbative_eigs(xg, 1.0, qx, qy)
                    v = out.v0_plus + xg * out.v1_plus
                    resid = np.linalg.norm(
                        large_scale_operator(xg, 1.0, qx, qy) @ v
                        - out.lambda_plus * v)
                    assert resid <= 1.0 * (xg ** 2 + qn ** 2 * xg)

    def test_errors(self):
        with pytest.raises(ValueError, match="direction"):
            perturbative_eigs(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="branch"):
            perturbative_eigs(0.0, 1.0, -0.1, 0.2)


class TestSpectrumGrid:
    def test_csv_round_trip(self, tmp_path):
        grid = SpectrumGrid.sample(rho, 8)
        path = tmp_path / "rho.csv"
        grid.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "qX,qY,value"
        assert len(lines) == 1 + 64
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert tuple(rows[0, :2]) == (-TWO_PI, -TWO_PI)
        np.testing.assert_allclose(rows[:, 2], rho(rows[:, 0], rows[:, 1]),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("resolution", [8, 1024])
    def test_sample_with_a_scalar_row_equals_the_full_row_evaluation(self, resolution):
        # rho broadcasts a block's qX column against the cell's qY row; that
        # gives the same floats as a row of repeated qX
        grid = SpectrumGrid.sample(rho, resolution)
        cell = grid.qy[:resolution // 2]
        full = np.stack([rho(np.full(cell.size, x), cell) for x in cell])
        assert np.array_equal(grid.values, full)

    @pytest.mark.parametrize("resolution", [8, 64, 1024])
    def test_even_grid_is_exactly_periodic_and_near_direct_evaluation(self, resolution):
        # the grid keeps the cell [-2pi, 0)^2, which tiles the whole grid
        grid = SpectrumGrid.sample(rho, resolution)
        half = resolution // 2
        assert grid.values.shape == (half, half)
        assert grid.qx.size == grid.qy.size == resolution
        direct = np.stack([rho(x, grid.qy) for x in grid.qx])
        # the translates differ from their own evaluation in the last bits
        assert np.abs(np.tile(grid.values, (2, 2)) - direct).max() <= 1e-14

    def test_odd_grid_equals_direct_evaluation(self):
        # no 2pi translate falls on an odd grid: every row is evaluated
        grid = SpectrumGrid.sample(rho, 63)
        direct = np.stack([rho(x, grid.qy) for x in grid.qx])
        assert np.array_equal(grid.values, direct)

    @pytest.mark.parametrize("resolution, rows, width",
                             [(8, 4, 4), (7, 7, 7), (1024, 512, 512), (1025, 1025, 1025)])
    def test_even_grid_evaluates_the_cell_only(self, resolution, rows, width):
        # fn sees blocks of whole rows: a qX column and the cell's qY row
        calls = []

        def fn(x, y):
            calls.append((x.copy(), y.copy()))
            return rho(x, y)

        grid = SpectrumGrid.sample(fn, resolution)
        assert np.array_equal(np.concatenate([x.ravel() for x, _ in calls]),
                              grid.qx[:rows])
        for x, y in calls:
            assert x.shape[1] == 1 and x.size * width <= max(spectral._BLOCK, width)
            assert y.shape == (1, width) and np.array_equal(y[0], grid.qy[:width])

    def test_sample_allocates_only_the_cell(self):
        # a 512^2 cell is 0.25 of the 1024^2 grid it stands for
        tracemalloc.start()
        try:
            SpectrumGrid.sample(rho, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.3 * 1024 ** 2 * 8

    @pytest.mark.parametrize("resolution", [-2, 0, 1, 2.5, True, "8", None])
    def test_resolution_is_an_integer_of_at_least_two(self, resolution):
        with pytest.raises(ConfigurationError, match="resolution"):
            SpectrumGrid.sample(rho, resolution)

    def test_numpy_integer_resolution(self):
        assert SpectrumGrid.sample(rho, np.int64(4)).values.shape == (2, 2)


class TestGridValues:
    """Blocks of rows give the bits of one broadcast over the whole cell."""

    # a few values per block, so rows and blocks of one row, and a short last
    # block, all occur; larger blocks take several rows of the scan's cell
    blocks = st.integers(1, 64) | st.integers(65, 2 ** 14)

    @given(resolution=st.integers(2, 80), block=blocks)
    def test_sample_has_the_bits_of_one_broadcast(self, resolution, block):
        with mock.patch.object(spectral, "_BLOCK", block):
            grid = SpectrumGrid.sample(rho, resolution)
        cell = grid.qx if resolution % 2 else grid.qx[:resolution // 2]
        assert grid.values.tobytes() == broadcast_grid(rho, cell, cell).tobytes()

    @given(resolution=st.integers(256, 700), block=blocks)
    def test_maxima_have_the_bits_of_one_broadcast(self, resolution, block):
        with mock.patch.object(spectral, "_grid_values", broadcast_grid):
            expected = find_rho_maxima(resolution)
        with mock.patch.object(spectral, "_BLOCK", block):
            found = find_rho_maxima(resolution)
        assert (np.array([(p.qX, p.qY, v) for p, v in found]).tobytes()
                == np.array([(p.qX, p.qY, v) for p, v in expected]).tobytes())

    @pytest.mark.parametrize("resolution, digest", [
        (1024, "55d9eb90543929972ebf8a7bd6f13b87579fb5c014318c4a2cb23fc475d23bd0"),
        (1023, "ed2e3f7d37ec6d111d170ce270fe6943a859c03001c850fdc2acb496f259041f"),
    ])
    def test_rho_maxima_csv_is_pinned(self, tmp_path, resolution, digest):
        # the digests of the whole-cell broadcast scan
        config = {"experiment": "rho-max", "resolution": resolution,
                  "out_dir": str(tmp_path)}
        assert run(parse_config(None, config)) == 0
        assert sha256_file(tmp_path / "rho_maxima.csv") == digest
