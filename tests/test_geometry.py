import math

import numpy as np
import pytest

from gwalk.errors import ConfigurationError, GeometryError, SignConditionError
from gwalk.geometry import (DualTriad, GwParams, Metric3, Triad, dual_triad,
                            gw_angle_provider, gw_angles, gw_metric_reference,
                            metric_from_dual_triad, triad_from_angles)
from gwalk.walk import pure_shear_angles, uniform_time_angles

FLAT = (0.0, math.pi / 2, math.pi / 2, 0.0)


class TestTriad:
    def test_flat_angles_give_identity_block(self):
        t = triad_from_angles(*FLAT)
        np.testing.assert_allclose(t.spatial, np.eye(2), atol=1e-16)
        np.testing.assert_allclose(t.e[0], [1, 0, 0], atol=0)

    def test_pure_shear_block_first_order(self):
        xg = 1e-6
        t = triad_from_angles(0.0, math.pi / 2 - xg, math.pi / 2 - xg, 0.0)
        expected = np.array([[1.0, xg], [xg, 1.0]])
        assert np.abs(t.spatial - expected).max() < 10 * xg ** 3 + 1e-16

    def test_single_angle_entry(self):
        t = triad_from_angles(math.pi / 3, math.pi / 2, math.pi / 2, 0.0)
        assert t.spatial[0, 0] == pytest.approx(0.5)

    def test_border_validation(self):
        bad = np.eye(3)
        bad[0, 1] = 0.1
        with pytest.raises(GeometryError):
            Triad(bad)


class TestDualTriad:
    def test_identity(self):
        d = dual_triad(triad_from_angles(*FLAT))
        np.testing.assert_allclose(d.spatial, np.eye(2), atol=1e-16)

    def test_symmetric_two_by_two_inverse(self):
        a = 0.3
        t = triad_from_angles(0.0, math.acos(a), math.acos(a), 0.0)
        d = dual_triad(t)
        expected = np.array([[1.0, -a], [-a, 1.0]]) / (1.0 - a * a)
        np.testing.assert_allclose(d.spatial, expected, atol=1e-14)

    def test_contraction_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            angles = np.concatenate([rng.uniform(0.1, 0.7, 1),
                                     rng.uniform(0.9, 1.4, 2),
                                     rng.uniform(0.1, 0.7, 1)])
            t = triad_from_angles(angles[0], angles[1], angles[2], angles[3])
            d = dual_triad(t)
            np.testing.assert_allclose(t.e @ d.d, np.eye(3), atol=1e-12)

    def test_singular_rejected(self):
        t = triad_from_angles(0.4, 0.4, 0.4, 0.4)
        with pytest.raises(GeometryError, match="singular"):
            dual_triad(t)


class TestMetric:
    def test_identity_gives_minkowski(self):
        m = metric_from_dual_triad(dual_triad(triad_from_angles(*FLAT)))
        np.testing.assert_allclose(m.g, np.diag([1.0, -1.0, -1.0]), atol=1e-15)

    def test_eta_contraction_exact(self):
        rng = np.random.default_rng(1)
        eta = np.diag([1.0, -1.0, -1.0])
        for _ in range(10):
            t = triad_from_angles(rng.uniform(0.1, 0.6), rng.uniform(0.9, 1.4),
                                  rng.uniform(0.9, 1.4), rng.uniform(0.1, 0.6))
            d = dual_triad(t)
            m = metric_from_dual_triad(d)
            np.testing.assert_array_equal(m.g, d.d.T @ eta @ d.d)

    def test_block_entries(self):
        t = triad_from_angles(0.2, 1.1, 1.3, 0.4)
        d = dual_triad(t)
        m = metric_from_dual_triad(d)
        ds = d.spatial
        assert m.g[1, 1] == pytest.approx(-(ds[0, 0] ** 2 + ds[1, 0] ** 2))
        assert m.g[2, 2] == pytest.approx(-(ds[1, 1] ** 2 + ds[0, 1] ** 2))
        assert m.g[1, 2] == pytest.approx(-(ds[0, 1] * ds[0, 0] + ds[1, 0] * ds[1, 1]))
        assert m.g[0, 0] == 1.0 and m.g[0, 1] == 0.0 and m.g[0, 2] == 0.0

    def test_spatial_block_negative_definite(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = triad_from_angles(rng.uniform(0.0, 0.5), rng.uniform(1.0, 1.5),
                                  rng.uniform(1.0, 1.5), rng.uniform(0.0, 0.5))
            m = metric_from_dual_triad(dual_triad(t))
            eig = np.linalg.eigvalsh(m.g[1:, 1:])
            assert np.all(eig < 0)

    def test_symmetry_enforced(self):
        bad = np.diag([1.0, -1.0, -1.0])
        bad[1, 2] = 0.1
        with pytest.raises(GeometryError):
            Metric3(bad)


class TestGwAngles:
    def test_zero_amplitude_is_flat(self):
        gw = GwParams(xi=0.0, f=lambda t: math.cos(t), g=lambda t: math.sin(t))
        assert gw_angles(gw, 0.7) == pytest.approx(FLAT)

    def test_pure_shear_values(self):
        gw = GwParams(xi=1.0, g=0.01)
        t11, t12, t21, t22 = gw_angles(gw, 0.0)
        assert t12 == pytest.approx(math.pi / 2 - 0.01)
        assert t21 == pytest.approx(math.pi / 2 - 0.01)
        assert t11 == 0.0 and t22 == 0.0

    def test_compression_at_crest(self):
        omega = 2.0
        gw = GwParams(xi=1e-4, f=lambda t: math.cos(omega * t), k=1.0, k_prime=1.0)
        t11, _, _, t22 = gw_angles(gw, 0.0)  # F = 1 at the crest
        assert t11 == 0.0
        assert t22 == pytest.approx(math.sqrt(2e-4))

    def test_sign_violation_names_constant(self):
        gw = GwParams(xi=1e-3, f=lambda t: 1.0, k=0.0, k_prime=0.0)
        with pytest.raises(SignConditionError, match="K"):
            gw_angles(gw, 0.0)
        gw2 = GwParams(xi=1e-3, f=lambda t: -1.0, k=0.0, k_prime=0.0)
        with pytest.raises(SignConditionError, match="K'"):
            gw_angles(gw2, 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, "0"])
    def test_time_that_is_not_a_finite_number_is_rejected(self, t):
        gw = GwParams(xi=1e-3, f=math.sin, k=2, k_prime=2)
        with pytest.raises(ConfigurationError, match="t must be a finite number"):
            gw_angles(gw, t)

    @pytest.mark.parametrize("f, key", [(lambda t: math.nan, "K"),
                                        (lambda t: math.inf, "K"),
                                        (lambda t: -math.inf, "K'")],
                             ids=["nan", "inf", "-inf"])
    def test_radicand_that_is_not_nonnegative_fails_the_sign_condition(self, f, key):
        # nan fails both conditions and names the first; an infinite F makes
        # one radicand -inf
        gw = GwParams(xi=1e-3, f=f, k=2, k_prime=2)
        with pytest.raises(SignConditionError, match=f"increase {key} so"):
            gw_angles(gw, 0.0)

    def test_nan_from_zero_times_inf_fails_the_sign_condition(self):
        # xi = 0 against an infinite waveform gives 0 * inf = nan radicands
        gw = GwParams(xi=0.0, f=lambda t: math.inf)
        with pytest.raises(SignConditionError, match=r"-xi\*\(F\(T\) - K\) = nan"):
            gw_angles(gw, 1.0)

    def test_overflowing_radicand_stays_infinite(self):
        # K - F overflows to +inf: a real root, infinite; the CLI exits 3 on it
        gw = GwParams(xi=0.03, f=-1e308, k=1e308, k_prime=1e308)
        assert gw_angles(gw, 0.0)[0] == math.inf

    def test_roundoff_below_zero_is_forgiven_and_signed_zero_kept(self):
        gw = GwParams(xi=1.0, f=1e-13, k=0.0, k_prime=-6e-13)
        t11, _, _, t22 = gw_angles(gw, 0.0)
        assert (t11, t22) == (0.0, 0.0)
        # -xi * (F - K) is -0.0 at F = K, and its root keeps the sign
        t11 = gw_angles(GwParams(xi=1e-3), 0.0)[0]
        assert math.copysign(1.0, t11) == -1.0


class TestGwMetricReference:
    def test_zero_amplitude(self):
        m = gw_metric_reference(GwParams(xi=0.0), 0.0)
        np.testing.assert_allclose(m.g, np.diag([1.0, -1.0, -1.0]), atol=0)

    def test_shear_cross_term(self):
        m = gw_metric_reference(GwParams(xi=0.01, g=1.0), 0.0)
        assert m.g[1, 2] == pytest.approx(0.01)

    def test_compression_diagonal(self):
        m = gw_metric_reference(GwParams(xi=0.01, f=1.0), 0.0)
        assert m.g[1, 1] == pytest.approx(-0.99)
        assert m.g[2, 2] == pytest.approx(-1.01)


class TestRoundTrip:
    @staticmethod
    def _round_trip(gw, t):
        return metric_from_dual_triad(
            dual_triad(triad_from_angles(*gw_angles(gw, t)))).g

    def test_compression_matches_reference_at_second_order(self):
        # G = 0: the angle map reproduces the reference metric up to O(xi^2)
        errs = []
        xis = (1e-3, 1e-4, 1e-5)
        for xi in xis:
            gw = GwParams(xi=xi, f=lambda t: math.cos(t), k=1.5, k_prime=0.5)
            diff = self._round_trip(gw, 0.3) - gw_metric_reference(gw, 0.3).g
            errs.append(np.abs(diff).max())
        slope = np.polyfit(np.log(xis), np.log(errs), 1)[0]
        assert 1.8 < slope < 2.2

    def test_shear_channel_carries_double_weight(self):
        # both off-diagonal cosines carry the shear, so the generated metric
        # has twice the reference cross term at first order
        for xi in (1e-4, 1e-5):
            gw = GwParams(xi=xi, g=0.7)
            g12 = self._round_trip(gw, 0.0)[1, 2]
            ref = gw_metric_reference(gw, 0.0).g[1, 2]
            assert g12 == pytest.approx(2.0 * ref, rel=1e-6)
            assert g12 > 0  # same orientation as the reference cross term

    def test_full_wave_nonshear_entries(self):
        xi = 1e-5
        gw = GwParams(xi=xi, f=lambda t: math.cos(t), g=lambda t: math.sin(t),
                      k=2.0, k_prime=2.0)
        rt = self._round_trip(gw, 0.4)
        ref = gw_metric_reference(gw, 0.4).g
        for idx in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2)):
            assert abs(rt[idx] - ref[idx]) < 50 * xi ** 2


class TestGwAngleProvider:
    def test_matches_direct_evaluation(self):
        gw = GwParams(xi=1e-3, f=lambda t: math.cos(t), g=lambda t: math.sin(t),
                      k=1.0, k_prime=1.0)
        provider = gw_angle_provider(gw, epsilon=0.5)
        expected = gw_angles(gw, 3 * 0.5)
        got = tuple(provider.angle(3, 0, 0, kl)
                    for kl in ((1, 1), (1, 2), (2, 1), (2, 2)))
        assert got == pytest.approx(expected)
        assert provider.uniform_in_space


class TestWaveInputs:
    # each raises where it is given, before any angle is computed
    @pytest.mark.parametrize("bad", [math.nan, math.inf, True], ids=["NaN", "inf", "bool"])
    @pytest.mark.parametrize("name", ["xi", "f", "g", "k", "k_prime"])
    def test_gw_params_number_must_be_finite(self, name, bad):
        with pytest.raises(ConfigurationError, match=f"^{name} must be a finite number"):
            GwParams(**{"xi": 1e-3, name: bad})

    @pytest.mark.parametrize("make", [
        lambda eps: gw_angle_provider(GwParams(xi=1e-3), epsilon=eps),
        lambda eps: uniform_time_angles(0.0, 1.0, 1.0, 0.0, epsilon=eps),
        lambda eps: pure_shear_angles(1e-3, 1.0, epsilon=eps)],
        ids=["gw_angle_provider", "uniform_time_angles", "pure_shear_angles"])
    def test_provider_epsilon_must_be_finite(self, make):
        with pytest.raises(ConfigurationError, match="^epsilon must be a finite number, got nan"):
            make(math.nan)

    def test_callable_waveforms_and_numpy_numbers_are_accepted(self):
        gw = GwParams(xi=np.float64(1e-3), f=math.cos, g=lambda t: 0.5, k=np.int64(1),
                      k_prime=1.0)
        assert gw_angle_provider(gw, epsilon=np.float32(0.5)).fields(2, (2, 2)) == dict(
            zip(((1, 1), (1, 2), (2, 1), (2, 2)), gw_angles(gw, 1.0)))
