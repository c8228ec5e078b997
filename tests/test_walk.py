import contextlib
import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gwalk import walk
from gwalk.errors import ConfigurationError, GeometryError
from gwalk.walk import (AngleProvider, SpinorField, WalkParams, array_angles, evolve,
                        flat_angles, plane_wave_transfer_matrix, pure_shear_angles, step,
                        t_epsilon_field, uniform_time_angles)

from oracles import (coin_matrix, complex_real_steps, mode_w0_entries, mode_w1_entries,
                     site_angle, spatial_nullity_terms, t_epsilon_compact, tan_is_libm)

RNG_ANGLE_RANGES = ((0.1, 0.7), (0.9, 1.4))  # keeps the cosine matrix well conditioned


def random_uniform_provider(rng):
    (a, b), (c, d) = RNG_ANGLE_RANGES
    return uniform_time_angles(rng.uniform(a, b), rng.uniform(c, d),
                               rng.uniform(c, d), rng.uniform(a, b))


def random_history_provider(rng, times=3, shape=(1, 1)):
    """Space-uniform or per-site random angle history with safe conditioning."""
    (a, b), (c, d) = RNG_ANGLE_RANGES
    arrays = {
        (1, 1): rng.uniform(a, b, (times, *shape)),
        (2, 2): rng.uniform(a, b, (times, *shape)),
        (1, 2): rng.uniform(c, d, (times, *shape)),
        (2, 1): rng.uniform(c, d, (times, *shape)),
    }
    return array_angles(arrays)


# ---------------------------------------------------------------------------
# gates, shifts and blocks applied one list at a time: oracles for the step
# ---------------------------------------------------------------------------

def apply_fresh(data, gates):
    """The gates applied in order to a copy of `data`, which is only read, as
    one step of the real-space driver."""
    return walk._real_steps(data, [iter(gates)])[0]


def check_axis(axis):
    if axis not in (1, 2):
        raise ConfigurationError(f"axis must be 1 or 2, got {axis!r}")


def shift_apply(field, axis):
    """Spin-dependent translation S_k along lattice axis 1 or 2."""
    check_axis(axis)
    return SpinorField(apply_fresh(field.data, [(np.eye(2), None, axis)]))


def w_block_apply(field, axis, theta):
    """One double-jump block W_k(theta); theta is a scalar or (L1, L2) field."""
    check_axis(axis)
    half = walk._half(theta)
    return SpinorField(apply_fresh(field.data, walk._w_chain((half, walk._cos(half), axis))))


class TestCoinMatrices:
    def test_q_zero_is_identity(self):
        assert np.allclose(coin_matrix("Q", 0.0), np.eye(2), atol=1e-15)

    def test_u_zero(self):
        assert np.allclose(coin_matrix("U", 0.0), [[-1, 0], [0, 1]], atol=1e-15)

    def test_pi_inverse_round_trips(self):
        pi = coin_matrix("PI")
        pi_inv = pi.conj().T
        assert np.abs(pi @ pi_inv - np.eye(2)).max() < 1e-14
        assert np.abs((pi @ pi_inv) @ (pi @ pi_inv) - np.eye(2)).max() < 1e-14

    @pytest.mark.parametrize("kind", ["U", "R", "Q"])
    def test_unitarity(self, kind):
        rng = np.random.default_rng(5)
        for theta in rng.uniform(-3, 3, 20):
            m = coin_matrix(kind, theta)
            assert np.abs(m.conj().T @ m - np.eye(2)).max() < 1e-12

    def test_r_conjugates_u_to_diagonal(self):
        # R^-1 U R = -sigma_z, the identity behind the double-jump blocks
        for theta in (0.3, 1.1, 2.5):
            r, u = coin_matrix("R", theta), coin_matrix("U", theta)
            assert np.abs(r.conj().T @ u @ r - np.diag([-1, 1])).max() < 1e-14


class TestShift:
    def test_delta_moves_down_axis1(self):
        f = SpinorField.delta((8, 8), (3, 0), component=0)
        out = shift_apply(f, 1)
        assert out.data[0, 2, 0] == 1.0
        assert np.count_nonzero(out.data) == 1

    def test_plus_component_moves_up_axis2(self):
        f = SpinorField.delta((8, 8), (0, 0), component=1)
        out = shift_apply(f, 2)
        assert out.data[1, 0, 1] == 1.0
        assert np.count_nonzero(out.data) == 1

    def test_plane_wave_eigenvalue(self):
        k1 = 2 * np.pi / 4
        f = SpinorField.plane_wave((4, 4), k1, 0.0, (1, 0))
        out = shift_apply(f, 1)
        np.testing.assert_allclose(out.data[0], np.exp(1j * k1) * f.data[0],
                                   atol=1e-14)

    def test_norm_exactly_preserved(self):
        # the shift is a pure permutation of amplitudes
        rng = np.random.default_rng(0)
        f = SpinorField.random((6, 8), rng)
        out = shift_apply(f, 1)
        assert sorted(out.data.ravel(), key=lambda z: (z.real, z.imag)) \
            == sorted(f.data.ravel(), key=lambda z: (z.real, z.imag))

    def test_bad_axis(self):
        f = SpinorField.zeros((4, 4))
        with pytest.raises(ConfigurationError):
            shift_apply(f, 3)


class TestSpinorField:
    def test_odd_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            SpinorField.zeros((5, 4))

    def test_nonfinite_rejected(self):
        data = np.zeros((2, 4, 4), dtype=complex)
        data[0, 0, 0] = np.nan
        with pytest.raises(ConfigurationError):
            SpinorField(data)


class TestArgumentKinds:
    @pytest.mark.parametrize("make, name", [
        (lambda: WalkParams(epsilon=True), "epsilon"),
        (lambda: evolve(SpinorField.zeros((4, 4)), 0, 2.5, flat_angles(), WalkParams()),
         "steps"),
        (lambda: t_epsilon_field(flat_angles(), 1.5, (4, 4), WalkParams()), "j"),
        (lambda: flat_angles().fields(1.5, (4, 4)), "j"),
        (lambda: step(SpinorField.zeros((4, 4)), 1.5, flat_angles(), WalkParams()), "j"),
        (lambda: evolve(SpinorField.zeros((4, 4)), 1.5, 2, flat_angles(), WalkParams()),
         "j"),
        (lambda: pure_shear_angles(np.nan, 1.0), "xi"),
        (lambda: pure_shear_angles(1e-3, np.nan), "g"),
        (lambda: uniform_time_angles(0.0, np.nan, 1.0, 0.0), "t12"),
        (lambda: uniform_time_angles(0.0, 1.0, 1.0, np.inf), "t22"),
        (lambda: plane_wave_transfer_matrix(flat_angles(), 0, np.nan, 0.1, WalkParams()),
         "k1"),
        (lambda: plane_wave_transfer_matrix(flat_angles(), 0, 0.1, np.nan, WalkParams()),
         "k2"),
    ], ids=["epsilon-bool", "steps-float", "t_epsilon_field-j-float", "fields-j-float",
            "step-j-float", "evolve-j-float", "shear-xi-nan", "shear-g-nan", "t12-nan",
            "t22-inf", "k1-nan", "k2-nan"])
    def test_bad_argument_is_a_config_error_naming_it(self, make, name):
        with pytest.raises(ConfigurationError, match=rf"^{name} must be"):
            make()

    def test_numpy_integer_time_is_a_time(self):
        provider = random_history_provider(np.random.default_rng(4), shape=(4, 4))
        for j in (np.int64(1), np.uint8(1)):
            assert np.array_equal(t_epsilon_field(provider, j, (4, 4), WalkParams()),
                                  t_epsilon_field(provider, 1, (4, 4), WalkParams()))
            assert site_angle(provider, j, 1, 2, (2, 1), (4, 4)) == \
                site_angle(provider, 1, 1, 2, (2, 1), (4, 4))

    def test_numpy_scalars_are_numbers(self):
        params = WalkParams(epsilon=np.float64(0.5), mass=np.float32(0.25),
                            xi=np.float64(1e-3))
        f = SpinorField.random((4, 4), np.random.default_rng(3))
        out = evolve(f, 0, np.int64(2), flat_angles(), params)
        assert np.array_equal(out.data, evolve(f, 0, 2, flat_angles(),
                                               WalkParams(0.5, 0.25, 1e-3)).data)


class TestWBlock:
    def test_norm_preserved_any_theta(self):
        rng = np.random.default_rng(1)
        f = SpinorField.random((8, 8), rng)
        theta = rng.uniform(-np.pi, np.pi, (8, 8))
        out = w_block_apply(f, 1, theta)
        assert abs(out.norm() - f.norm()) < 1e-12

    def test_uniform_theta_commutes_with_translation_by_two(self):
        rng = np.random.default_rng(2)
        f = SpinorField.random((8, 8), rng)
        theta = 0.77
        shifted_then_block = w_block_apply(
            SpinorField(np.roll(f.data, 2, axis=1)), 1, theta)
        block_then_shifted = np.roll(w_block_apply(f, 1, theta).data, 2, axis=1)
        assert np.abs(shifted_then_block.data - block_then_shifted).max() < 1e-12

    def test_flat_step_matches_w0_on_plane_wave(self):
        k1 = 2 * np.pi * 3 / 16
        phase = np.exp(1j * k1 * np.arange(16))[:, None] * np.ones((1, 16))
        for pol in ((1, 0), (0, 1), (0.6, 0.8j)):
            f = SpinorField.plane_wave((16, 16), k1, 0.0, pol)
            out = step(f, 0, flat_angles(), WalkParams())
            expected = mode_w0_entries(2 * k1, 0.0) @ np.asarray(pol, dtype=complex)
            np.testing.assert_allclose(
                out.data, np.einsum("c,xy->cxy", expected, phase), atol=1e-12)


class TestTEpsilon:
    def test_diagonal_cosine_matrix_vanishes(self):
        provider = uniform_time_angles(lambda t: 0.3 + 0.2 * np.sin(t),
                                       np.pi / 2, np.pi / 2,
                                       lambda t: 0.8 - 0.1 * np.cos(t))
        assert abs(t_epsilon_field(provider, 2, (2, 2), WalkParams())) < 1e-14

    def test_time_independent_vanishes(self):
        rng = np.random.default_rng(3)
        provider = random_uniform_provider(rng)
        assert t_epsilon_field(provider, 0, (2, 2), WalkParams()) == 0.0

    def test_pure_shear_first_order_cancellation(self):
        xi = 1e-4
        g = lambda t: np.sin(0.1 * t)
        provider = pure_shear_angles(xi, g)
        max_d0g = abs(g(1.0) - g(0.0))
        val = t_epsilon_field(provider, 0, (2, 2), WalkParams())
        assert abs(val) <= 10.0 * xi ** 2 * max_d0g

    def test_compact_form_matches_direct(self):
        rng = np.random.default_rng(4)
        params = WalkParams(epsilon=0.37)
        for _ in range(10):
            provider = random_history_provider(rng)
            direct = t_epsilon_field(provider, 0, (2, 2), params)
            compact = t_epsilon_compact(provider, 0, 0, 0, params, (2, 2))
            assert abs(direct - compact) < 1e-12

    def test_compact_form_diagonal_and_constant(self):
        provider = uniform_time_angles(lambda t: 0.3 + 0.2 * np.sin(t),
                                       np.pi / 2, np.pi / 2,
                                       lambda t: 0.8 - 0.1 * np.cos(t))
        assert abs(t_epsilon_compact(provider, 1, 0, 0, WalkParams(), (2, 2))) < 1e-12
        rng = np.random.default_rng(5)
        const = random_uniform_provider(rng)
        assert abs(t_epsilon_compact(const, 0, 0, 0, WalkParams(), (2, 2))) < 1e-14

    def test_spatial_terms_vanish_identically(self):
        rng = np.random.default_rng(6)
        provider = random_history_provider(rng, times=2, shape=(6, 6))
        for site in ((0, 0), (2, 3), (5, 5)):
            k1, k2 = spatial_nullity_terms(provider, 0, *site, WalkParams(), (6, 6))
            assert abs(k1) < 1e-12 and abs(k2) < 1e-12

    def test_singular_cosine_matrix_rejected(self):
        # equal rows make det C = 0
        provider = uniform_time_angles(0.4, 0.9, lambda t: 0.4 + 0.1 * t,
                                       lambda t: 0.9 + 0.1 * t)
        with pytest.raises(GeometryError, match="singular"):
            t_epsilon_field(provider, 0, (2, 2), WalkParams())

    def test_singular_error_names_offending_site(self):
        rng = np.random.default_rng(16)
        arrays = {
            (1, 1): rng.uniform(0.1, 0.7, (2, 6, 6)),
            (2, 2): rng.uniform(0.1, 0.7, (2, 6, 6)),
            (1, 2): rng.uniform(0.9, 1.4, (2, 6, 6)),
            (2, 1): rng.uniform(0.9, 1.4, (2, 6, 6)),
        }
        # make the cosine matrix rows equal at one site only
        for kl_a, kl_b in (((1, 1), (2, 1)), ((1, 2), (2, 2))):
            arrays[kl_b][0, 2, 3] = arrays[kl_a][0, 2, 3]
        provider = array_angles(arrays)
        with pytest.raises(GeometryError, match=r"\(2, 3\)"):
            t_epsilon_field(provider, 0, (6, 6), WalkParams())
        with pytest.raises(GeometryError, match=r"\(2, 3\)"):
            step(SpinorField.zeros((6, 6)), 0, provider, WalkParams())


class TestStep:
    def test_unitarity_random_angle_fields(self):
        rng = np.random.default_rng(7)
        params = WalkParams()
        for _ in range(5):
            provider = random_history_provider(rng, times=2, shape=(8, 8))
            f = SpinorField.random((8, 8), rng)
            out = step(f, 0, provider, params)
            assert abs(out.norm() - f.norm()) < 1e-12

    def test_flat_massless_plane_wave_phase(self):
        q = 2 * (2 * np.pi * 2 / 8)
        f = SpinorField.plane_wave((8, 8), q / 2, 0.0, (0, 1))
        out = step(f, 0, flat_angles(), WalkParams())
        np.testing.assert_allclose(out.data, np.exp(-1j * q) * f.data, atol=1e-12)

    def test_step_matches_first_order_mode_operator(self):
        xi, g = 1e-3, 1.0
        provider = pure_shear_angles(xi, g)
        k1, k2 = 2 * np.pi * 3 / 16, 2 * np.pi * 5 / 16
        pol = np.array([0.3 - 0.4j, 0.8 + 0.1j])
        pol /= np.linalg.norm(pol)
        f = SpinorField.plane_wave((16, 16), k1, k2, pol)
        out = step(f, 0, provider, WalkParams(xi=xi))
        w = mode_w0_entries(2 * k1, 2 * k2) + xi * g * mode_w1_entries(2 * k1, 2 * k2)
        expected = w @ pol
        assert np.abs(out.data[:, 0, 0] - expected).max() < 10 * xi ** 2

    def test_translation_covariance_uniform_angles(self):
        rng = np.random.default_rng(8)
        provider = random_uniform_provider(rng)
        f = SpinorField.random((8, 8), rng)
        params = WalkParams()
        a = step(SpinorField(np.roll(f.data, (2, 4), axis=(1, 2))), 0, provider, params)
        b = np.roll(step(f, 0, provider, params).data, (2, 4), axis=(1, 2))
        assert np.abs(a.data - b).max() < 1e-12

    def test_transfer_matrix_oracle(self):
        # uniform angles: the step restricted to a plane wave is a 2x2 matrix
        rng = np.random.default_rng(9)
        provider = random_history_provider(rng, times=2)
        params = WalkParams(epsilon=0.8, mass=0.3)
        k1, k2 = 2 * np.pi * 1 / 8, 2 * np.pi * 3 / 8
        tm = plane_wave_transfer_matrix(provider, 0, k1, k2, params)
        for pol in ((1, 0), (0.5, 0.5j)):
            f = SpinorField.plane_wave((8, 8), k1, k2, pol)
            out = step(f, 0, provider, params)
            expected = tm @ np.asarray(pol, dtype=complex)
            assert np.abs(out.data[:, 0, 0] - expected).max() < 1e-12

    def test_transfer_matrix_requires_uniform(self):
        rng = np.random.default_rng(10)
        provider = random_history_provider(rng, times=2, shape=(4, 4))
        with pytest.raises(ConfigurationError):
            plane_wave_transfer_matrix(provider, 0, 0.1, 0.2, WalkParams())


class TestEvolve:
    def test_zero_steps_identity(self):
        rng = np.random.default_rng(11)
        f = SpinorField.random((6, 6), rng)
        out = evolve(f, 0, 0, flat_angles(), WalkParams())
        assert np.array_equal(out.data, f.data)

    def test_two_steps_equals_composition(self):
        rng = np.random.default_rng(12)
        provider = random_history_provider(rng, times=4, shape=(6, 6))
        params = WalkParams()
        f = SpinorField.random((6, 6), rng)
        a = evolve(f, 0, 2, provider, params)
        b = step(step(f, 0, provider, params), 1, provider, params)
        np.testing.assert_array_equal(a.data, b.data)

    def test_negative_steps_rejected(self):
        with pytest.raises(ConfigurationError):
            evolve(SpinorField.zeros((4, 4)), 0, -1, flat_angles(), WalkParams())

    def test_long_run_norm_drift(self):
        rng = np.random.default_rng(13)
        f = SpinorField.random((64, 64), rng)
        out = evolve(f, 0, 1000, flat_angles(), WalkParams())
        assert abs(out.norm() - f.norm()) < 1e-9

    def test_time_dependent_wave_matches_transfer_product(self):
        # several steps through a full wave (compression + shear, nonzero
        # mass-gate scalar) equal the product of per-step mode matrices
        from gwalk.geometry import GwParams, gw_angle_provider
        gw = GwParams(xi=1e-3, f=lambda t: np.cos(0.7 * t),
                      g=lambda t: np.sin(0.7 * t), k=1.5, k_prime=1.5)
        params = WalkParams(epsilon=0.3, mass=0.2, xi=1e-3)
        provider = gw_angle_provider(gw, epsilon=params.epsilon)
        k1, k2 = 2 * np.pi * 2 / 16, 2 * np.pi * 5 / 16
        pol = np.array([0.6 - 0.1j, 0.2 + 0.77j])
        pol /= np.linalg.norm(pol)
        f = SpinorField.plane_wave((16, 16), k1, k2, pol)
        steps = 5
        out = evolve(f, 0, steps, provider, params)
        amp = pol
        for j in range(steps):
            amp = plane_wave_transfer_matrix(provider, j, k1, k2, params) @ amp
        assert np.abs(out.data[:, 0, 0] - amp).max() < 1e-12
        assert abs(out.norm() - f.norm()) < 1e-12


class TestAngleProviders:
    def test_provider_is_deterministic(self):
        provider = pure_shear_angles(1e-3, lambda t: np.sin(t))
        a = site_angle(provider, 3, 0, 0, (1, 2), (8, 8))
        b = site_angle(provider, 3, 5, 7, (1, 2), (8, 8))
        assert a == b

    def test_array_provider_bounds_check(self):
        rng = np.random.default_rng(14)
        provider = random_history_provider(rng, times=2, shape=(4, 4))
        for j, message in ((2, "cover times"), (-1, "j must be an integer >= 0")):
            with pytest.raises(ConfigurationError, match=message):
                provider.fields(j, (4, 4))

    def test_fields_shapes(self):
        provider = flat_angles()
        th = provider.fields(0, (4, 6))
        assert th[(1, 2)] == pytest.approx(np.pi / 2)
        rng = np.random.default_rng(15)
        arr_provider = random_history_provider(rng, times=2, shape=(4, 6))
        th = arr_provider.fields(0, (4, 6))
        assert th[(1, 1)].shape == (4, 6)

    def test_array_slices_are_read_only_views_of_the_stacks(self):
        rng = np.random.default_rng(17)
        stacks = {kl: rng.uniform(0.1, 0.7, (3, 4, 6)) for kl in walk.KL_PAIRS}
        th = array_angles(stacks).fields(1, (4, 6))
        for kl, a in th.items():
            assert np.shares_memory(a, stacks[kl])
            np.testing.assert_array_equal(a, stacks[kl][1])
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0.0
            assert stacks[kl].flags.writeable

    @pytest.mark.parametrize("sites", [(4, 6), (8, 1)])
    def test_per_site_stack_must_match_the_lattice(self, sites):
        rng = np.random.default_rng(18)
        provider = random_history_provider(rng, times=2, shape=sites)
        with pytest.raises(ConfigurationError, match="lattice"):
            step(SpinorField.zeros((8, 6)), 0, provider, WalkParams())


# ---------------------------------------------------------------------------
# the fused gate list against an unfused oracle
# ---------------------------------------------------------------------------

def _sitewise(data, gate, angle):
    """Apply gate(angle) at every site; angle is a scalar or an (L1, L2) field."""
    angles = np.broadcast_to(angle, data.shape[1:])
    mats = np.array([[gate(a) for a in row] for row in angles])
    return np.einsum("xyab,bxy->axy", mats, data)


def _oracle_shift(data, axis):
    return np.stack((np.roll(data[0], -1, axis=axis - 1),
                     np.roll(data[1], 1, axis=axis - 1)))


def _oracle_w(data, axis, theta):
    """W_k = R^-1 U S_k U S_k R, one gate and one roll at a time."""
    data = _sitewise(data, lambda a: coin_matrix("R", a), theta)
    data = _oracle_shift(data, axis)
    data = _sitewise(data, lambda a: coin_matrix("U", a), theta)
    data = _oracle_shift(data, axis)
    data = _sitewise(data, lambda a: coin_matrix("U", a), theta)
    return _sitewise(data, lambda a: coin_matrix("R", a).conj().T, theta)


def oracle_step(field, j, provider, params):
    """V_j = Pi^-1 W_1(th12) W_2(th22) Pi W_2(th21) W_1(th11) Q, unfused."""
    th = provider.fields(j, field.shape)
    te = t_epsilon_field(provider, j, field.shape, params)
    m_arg = params.epsilon * (params.mass - te / 4.0)
    data = _sitewise(field.data, lambda a: coin_matrix("Q", a), m_arg)
    data = _oracle_w(data, 1, th[(1, 1)])
    data = _oracle_w(data, 2, th[(2, 1)])
    data = _sitewise(data, lambda a: coin_matrix("PI"), 0.0)
    data = _oracle_w(data, 2, th[(2, 2)])
    data = _oracle_w(data, 1, th[(1, 2)])
    return _sitewise(data, lambda a: coin_matrix("PI").conj().T, 0.0)


@st.composite
def walk_cases(draw, uniform=None, sides=(2, 4, 6, 8), times=2):
    """Angle history over times [0, times), walk parameters, lattice shape, rng."""
    shape = (draw(st.sampled_from(sides)), draw(st.sampled_from(sides)))
    if uniform is None:
        uniform = draw(st.booleans())
    sites = (1, 1) if uniform else shape

    def history(lo, hi):
        return draw(hnp.arrays(float, (times, *sites), elements=st.floats(lo, hi)))

    (a, b), (c, d) = RNG_ANGLE_RANGES
    provider = array_angles({(1, 1): history(a, b), (2, 2): history(a, b),
                             (1, 2): history(c, d), (2, 1): history(c, d)})
    params = WalkParams(epsilon=draw(st.floats(0.05, 1.5)),
                        mass=draw(st.floats(0.0, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return provider, params, shape, rng


class TestGateListProperties:
    @given(walk_cases())
    def test_step_matches_unfused_oracle(self, case):
        provider, params, shape, rng = case
        f = SpinorField.random(shape, rng)
        expected = oracle_step(f, 0, provider, params)
        assert np.abs(step(f, 0, provider, params).data - expected).max() < 1e-13

    @given(walk_cases(uniform=True), st.integers(0, 7), st.integers(0, 7))
    def test_transfer_matrix_matches_step_on_plane_waves(self, case, n1, n2):
        provider, params, shape, rng = case
        k1, k2 = 2 * np.pi * n1 / shape[0], 2 * np.pi * n2 / shape[1]
        pol = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pol /= np.linalg.norm(pol)
        f = SpinorField.plane_wave(shape, k1, k2, pol)
        tm = plane_wave_transfer_matrix(provider, 0, k1, k2, params)
        expected = SpinorField.plane_wave(shape, k1, k2, tm @ pol)
        assert np.abs(step(f, 0, provider, params).data - expected.data).max() < 1e-12


class TestRealGates:
    # arbitrary chains leave the carried phase at other units than (1, 1),
    # which the step's own chain never does
    @given(st.lists(st.tuples(st.sampled_from(["Q", "R", "U", "R_INV", "UR"]),
                              st.integers(0, 2), st.booleans()), min_size=1, max_size=6),
           st.integers(0, 2 ** 32 - 1))
    def test_real_gates_match_complex_gates(self, chain, seed):
        rng = np.random.default_rng(seed)
        shape = (4, 6)
        data = SpinorField.random(shape, rng).data
        gates, expected = [], data
        for kind, axis, per_site in chain:
            k = {"Q": walk._Q_K, "R": walk._R_K, "U": walk._U_K, "R_INV": walk._R_K.conj().T,
                 "UR": walk._UR_K}[kind]
            alpha = rng.uniform(-3, 3, shape) if per_site else rng.uniform(-3, 3)
            gates.append(walk._gate(k, np.cos(alpha), np.sin(alpha), axis))
            expected = _sitewise(expected, lambda a: k * np.array(
                [[np.cos(a), np.sin(a)], [np.sin(a), np.cos(a)]]), alpha)
            if axis:
                expected = _oracle_shift(expected, axis)
        out = apply_fresh(data, gates)
        assert not np.shares_memory(out, data)
        assert np.abs(out - expected).max() < 1e-13


def block(theta, axis):
    """A W block as walk._w_chain takes it: (half, cos, axis)."""
    half = walk._half(theta)
    return half, walk._cos(half), axis


class TestFusedSeams:
    # [-4 pi, 4 pi] runs past the period of tan(theta/4), through which the
    # half angles are computed
    angles = st.floats(-4 * np.pi, 4 * np.pi)

    @given(angles, angles, st.integers(1, 2), st.integers(1, 2))
    def test_chain_matches_dense_coin_products(self, th, th2, axis, axis2):
        gates = list(walk._w_chain(block(th, axis), block(th2, axis2)))
        r, u = coin_matrix("R", th), coin_matrix("U", th)
        r2, u2 = coin_matrix("R", th2), coin_matrix("U", th2)
        # the seams: U(th), R^-1(th), R(th') and U(th'), R^-1(th')
        expected = [r, u, r2 @ r.conj().T @ u, u2, r2.conj().T @ u2]
        assert [g[2] for g in gates] == [axis, axis, axis2, axis2, 0]
        for (k, fields, _), m in zip(gates, expected, strict=True):
            assert fields is None
            assert np.abs(k - m).max() < 1e-15

    @given(angles, st.integers(1, 2))
    def test_single_block_is_three_gates(self, th, axis):
        gates = list(walk._w_chain(block(th, axis)))
        r, u = coin_matrix("R", th), coin_matrix("U", th)
        assert [g[2] for g in gates] == [axis, axis, 0]
        for (k, _, _), m in zip(gates, [r, u, r.conj().T @ u], strict=True):
            assert np.abs(k - m).max() < 1e-15

    def test_step_gate_counts(self):
        rng = np.random.default_rng(34)
        params = WalkParams(epsilon=0.7, mass=0.3)
        for sites, total, per_site in (((6, 8), 13, 11), ((1, 1), 9, 0)):
            provider = random_history_provider(rng, times=2, shape=sites)
            gates = next(walk._step_gate_lists(provider, 0, 1, (6, 8), params, []))
            gates = list(walk._fused(gates))
            assert len(gates) == total
            assert sum(fields is not None for _, fields, _ in gates) == per_site


class TestCosSin:
    @given(hnp.arrays(float, st.integers(1, 32), elements=st.floats(-1e4, 1e4)),
           st.integers(-2000, 2000))
    def test_matches_numpy_cos_and_sin(self, x, n):
        x = np.append(x, (2 * n + 1) * np.pi)
        c, s = walk._cos_sin(x)
        assert np.abs(c - np.cos(x)).max() <= 4.5e-16
        assert np.abs(s - np.sin(x)).max() <= 4.5e-16
        # a scalar runs the same operations as its array element, bit for bit
        for v in (x, x.tolist()):
            scalars = np.array([walk._cos_sin(e) for e in v]).T
            assert scalars.tobytes() == np.stack((c, s)).tobytes()

    def test_exact_at_pi(self):
        for x in (np.pi, -np.pi):
            c, s = walk._cos_sin(x)
            assert c == -1.0 and s == np.sin(x)


class TestNonFiniteAngles:
    # a NaN |det C| compares false with the threshold either way round: it
    # must fail the check, not pass it and poison the field
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("sites, site", [((1, 1), (0, 0)), ((6, 6), (4, 1))])
    def test_non_finite_angle_names_its_time_and_site(self, bad, sites, site):
        rng = np.random.default_rng(35)
        (a, b), (c, d) = RNG_ANGLE_RANGES
        arrays = {(1, 1): rng.uniform(a, b, (4, *sites)), (2, 2): rng.uniform(a, b, (4, *sites)),
                  (1, 2): rng.uniform(c, d, (4, *sites)), (2, 1): rng.uniform(c, d, (4, *sites))}
        arrays[(2, 1)][(2, *site) if sites != (1, 1) else (2, 0, 0)] = bad
        provider = array_angles(arrays)
        f = SpinorField.random((6, 6), rng)
        message = rf"j=2, site \({site[0]}, {site[1]}\)"
        evolve(f, 0, 1, provider, WalkParams())
        with pytest.raises(GeometryError, match=message):
            evolve(f, 0, 3, provider, WalkParams())
        with pytest.raises(GeometryError, match=message):
            step(f, 1, provider, WalkParams())
        with pytest.raises(GeometryError, match=message):
            t_epsilon_field(provider, 1, (6, 6), WalkParams())


def two_pass_fourier_steps(spec, gate_lists):
    """The Fourier-space loop as two whole-array passes per step through a
    second field buffer and an (L1, L2) scratch: an oracle for the bits of
    the blocked, in-place pass.  Each gate list is one step's, so the
    factors are built one step at a time: a check of the loop's runs."""
    shape = spec.shape[1:]
    phases = walk._entry_phases(*(2 * np.pi * np.arange(n) / n for n in shape))

    def factors(gates):
        a, b, c = (walk._factor(f, phases)[:, 0] for f in walk._factor_gates(gates))
        return a[..., None], b, c[..., None]

    dst, scratch = np.empty_like(spec), np.empty(shape, dtype=complex)
    a, b, c = factors(next(gate_lists))
    src, dst = walk._mode_apply(spec, a, dst, scratch), spec
    norms = []
    while True:
        src, dst = walk._mode_apply(src, b, dst, scratch), src
        gates = next(gate_lists, None)
        last = c
        if gates is not None:
            a, b, c = factors(gates)
            last = walk._times(a, last)
        src, dst = walk._mode_apply(src, last, dst, scratch), src
        norms.append(walk._norm(src))
        if gates is None:
            return src, norms


class TestFourierEvolve:
    # steps 0 and 1 are the edges of fusing C_j with A_{j+1}
    @given(walk_cases(uniform=True, sides=tuple(range(2, 17, 2)), times=10),
           st.integers(1, 3), st.integers(0, 6))
    def test_uniform_evolve_matches_repeated_step(self, case, j0, steps):
        provider, params, shape, rng = case
        f = SpinorField.random(shape, rng)
        expected, expected_norms = f, []
        for j in range(j0, j0 + steps):
            expected = step(expected, j, provider, params)
            expected_norms.append(expected.norm())
        out = evolve(f, j0, steps, provider, params)
        assert np.abs(out.data - expected.data).max() < 1e-12
        norms = walk._time_loop(f, j0, steps, provider, params).norms
        assert len(norms) == steps
        assert np.abs(np.subtract(norms, expected_norms)).max(initial=0.0) < 1e-12

    # blocks of 4, 4, 4 and 2 rows; one-row blocks; several blocks; one block
    @pytest.mark.parametrize("shape", [(14, 2048), (4, 16386), (256, 64), (2, 2)])
    @pytest.mark.parametrize("j0, steps", [(0, 0), (3, 1), (1, 2), (2, 6)])
    def test_blocked_loop_matches_two_pass_bits(self, shape, j0, steps):
        rng = np.random.default_rng(31 + steps)
        provider = random_history_provider(rng, times=10)
        params = WalkParams(epsilon=0.7, mass=0.3)
        f = SpinorField.random(shape, rng)
        run = walk._time_loop(f, j0, steps, provider, params)
        spec, norms = f.data.copy(), []
        if steps:
            for axis in (1, 2):
                np.fft.fft(spec, axis=axis, norm="ortho", out=spec)
            spec, norms = two_pass_fourier_steps(spec, walk._step_gate_lists(
                provider, j0, steps, shape, params, []))
            for axis in (1, 2):
                np.fft.ifft(spec, axis=axis, norm="ortho", out=spec)
        assert np.array_equal(run.field.data.view(np.float64), spec.view(np.float64))
        assert run.norms == norms

    def test_uniform_evolve_never_steps_in_real_space(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("real-space step called")

        monkeypatch.setattr(walk, "step", no_step)
        rng = np.random.default_rng(25)
        f = SpinorField.random((8, 6), rng)
        out = evolve(f, 2, 3, random_history_provider(rng, times=6), WalkParams())
        assert abs(out.norm() - f.norm()) < 1e-12

    def test_uniform_evolve_transforms_in_place(self):
        # bound: measured 1.31 field sizes: the transformed copy, stepped in
        # place through a block of 32 rows and a half-block scratch (0.19),
        # and what the transforms hold; a second field buffer or an
        # out-of-place inverse transform holds one field more
        rng = np.random.default_rng(27)
        f = SpinorField.random((256, 256), rng)
        provider = random_history_provider(rng, times=4)
        evolve(f, 0, 2, provider, WalkParams())
        tracemalloc.start()
        try:
            evolve(f, 0, 2, provider, WalkParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * f.data.nbytes

    def test_uniform_evolve_buffers_start_at_fixed_page_offsets(self, monkeypatch):
        # the heap would place them after whatever was allocated before, and
        # the blocked loop's speed moves with their offsets
        placed, paged = [], walk._paged
        monkeypatch.setattr(walk, "_paged", lambda shape, offset: (
            placed.append((tuple(shape), offset)) or paged(shape, offset)))
        rng = np.random.default_rng(28)
        f = SpinorField.random((64, 32), rng)
        out = evolve(f, 0, 2, random_history_provider(rng, times=4), WalkParams())
        rows = walk._CHUNK // (2 * 32)
        assert placed == [((2, 64, 32), 2048), ((2, rows, 32), 1024), ((rows, 32), 0)]
        assert out.data.ctypes.data % 4096 == 2048

    def test_per_site_evolve_matches_repeated_step(self):
        rng = np.random.default_rng(26)
        provider = random_history_provider(rng, times=5, shape=(6, 8))
        params = WalkParams(epsilon=0.6, mass=0.4)
        f = SpinorField.random((6, 8), rng)
        expected = f
        for j in range(1, 4):
            expected = step(expected, j, provider, params)
        out = evolve(f, 1, 3, provider, params)
        assert np.abs(out.data - expected.data).max() < 1e-13


class TestTimeSliceProperties:
    @given(walk_cases(uniform=False), st.integers(0, 1))
    def test_t_epsilon_field_matches_single_site_t_epsilon(self, case, wraps):
        # the frame-field oracle reads one site's angles at a time, which
        # wraps sites periodically; the field path reads whole slices
        provider, params, shape, _ = case
        te = t_epsilon_field(provider, 0, shape, params)
        for p1 in range(shape[0]):
            for p2 in range(shape[1]):
                site = (p1 - wraps * shape[0], p2 + wraps * shape[1])
                compact = t_epsilon_compact(provider, 0, *site, params, shape)
                assert abs(te[p1, p2] - compact) < 1e-12 * max(1.0, abs(compact))


class TestPurity:
    def test_step_never_writes_its_input_or_reuses_an_output(self):
        rng = np.random.default_rng(21)
        params = WalkParams(epsilon=0.7, mass=0.2)
        for provider in (random_uniform_provider(rng),
                         random_history_provider(rng, times=3, shape=(6, 8))):
            a = SpinorField.random((6, 8), rng)
            a0 = a.data.copy()
            b = step(a, 0, provider, params)
            b0 = b.data.copy()
            c = step(b, 1, provider, params)
            np.testing.assert_array_equal(a.data, a0)
            np.testing.assert_array_equal(b.data, b0)
            for x, y in ((a, b), (b, c), (a, c)):
                assert not np.shares_memory(x.data, y.data)

    def test_blocks_and_shifts_return_fresh_arrays(self):
        rng = np.random.default_rng(22)
        f = SpinorField.random((4, 6), rng)
        f0 = f.data.copy()
        outs = [shift_apply(f, 1), shift_apply(f, 2),
                w_block_apply(f, 1, 0.4), w_block_apply(f, 2, rng.uniform(0, 1, (4, 6)))]
        np.testing.assert_array_equal(f.data, f0)
        for n, out in enumerate(outs):
            assert not np.shares_memory(out.data, f.data)
            assert not any(np.shares_memory(out.data, o.data) for o in outs[n + 1:])

    def test_zero_step_evolve_returns_a_copy(self):
        f = SpinorField.random((4, 4), np.random.default_rng(23))
        out = evolve(f, 0, 0, flat_angles(), WalkParams())
        assert not np.shares_memory(out.data, f.data)


class TestStepMemory:
    def test_per_site_step_peak_allocation(self):
        # bound: the peak of the step that applied every gate through fresh
        # np.stack arrays, 8.25 field sizes on a 256^2 per-site provider.
        # Measured 7.25: the records of slices j and j+1 (3.25 each: cos and
        # sin of each theta/2, cos theta and det C) while T is built (0.75)
        rng = np.random.default_rng(24)
        provider = random_history_provider(rng, times=2, shape=(256, 256))
        f = SpinorField.random((256, 256), rng)
        params = WalkParams(epsilon=0.5, mass=0.3)
        step(f, 0, provider, params)
        tracemalloc.start()
        try:
            step(f, 0, provider, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.25 * f.data.nbytes


# ---------------------------------------------------------------------------
# each time slice is read once
# ---------------------------------------------------------------------------

def counting_provider(rng, times, shape):
    """A random history provider and the list of times its fn was asked for."""
    inner = random_history_provider(rng, times=times, shape=shape)
    calls = []

    def fn(j):
        calls.append(j)
        return tuple(inner.fields(j, shape)[kl] for kl in walk.KL_PAIRS)

    return AngleProvider(fn, uniform_in_space=inner.uniform_in_space), calls


class TestSliceReads:
    # (1, 1) stacks are space-uniform and step in Fourier space
    @pytest.mark.parametrize("sites", [(1, 1), (6, 8)])
    @pytest.mark.parametrize("steps", [0, 1, 2, 5])
    def test_evolve_reads_each_slice_once(self, sites, steps):
        rng = np.random.default_rng(31)
        provider, calls = counting_provider(rng, 8, sites)
        evolve(SpinorField.random((6, 8), rng), 1, steps, provider, WalkParams(mass=0.3))
        assert calls == list(range(1, steps + 2))

    @pytest.mark.parametrize("sites", [(1, 1), (6, 8)])
    def test_step_reads_two_slices(self, sites):
        rng = np.random.default_rng(32)
        provider, calls = counting_provider(rng, 4, sites)
        step(SpinorField.random((6, 8), rng), 2, provider, WalkParams(mass=0.3))
        assert calls == [2, 3]

    @pytest.mark.parametrize("steps", [0, 1, 3])
    def test_per_site_evolve_computes_each_cosine_once(self, monkeypatch, steps):
        calls = []
        cos = walk._cos
        monkeypatch.setattr(walk, "_cos", lambda half: calls.append(1) or cos(half))
        rng = np.random.default_rng(33)
        provider = random_history_provider(rng, times=steps + 1, shape=(6, 8))
        evolve(SpinorField.random((6, 8), rng), 0, steps, provider, WalkParams(mass=0.3))
        assert len(calls) == 4 * (steps + 1)

    @given(walk_cases(times=6), st.integers(0, 1), st.integers(0, 4))
    def test_evolve_matches_repeated_step(self, case, j0, steps):
        provider, params, shape, rng = case
        f = SpinorField.random(shape, rng)
        expected = f
        for j in range(j0, j0 + steps):
            expected = step(expected, j, provider, params)
        out = evolve(f, j0, steps, provider, params)
        assert np.abs(out.data - expected.data).max() < 1e-13

    @pytest.mark.parametrize("sites, site", [((1, 1), (0, 0)), ((6, 6), (4, 1))])
    def test_singular_slice_ahead_names_its_time_and_site(self, sites, site):
        # C turns singular at time 2, the slice ahead of step 1
        rng = np.random.default_rng(33)
        (a, b), (c, d) = RNG_ANGLE_RANGES
        arrays = {(1, 1): rng.uniform(a, b, (4, *sites)), (2, 2): rng.uniform(a, b, (4, *sites)),
                  (1, 2): rng.uniform(c, d, (4, *sites)), (2, 1): rng.uniform(c, d, (4, *sites))}
        at = (2, *site) if sites != (1, 1) else (2, 0, 0)
        for kl_a, kl_b in (((1, 1), (2, 1)), ((1, 2), (2, 2))):
            arrays[kl_b][at] = arrays[kl_a][at]
        provider = array_angles(arrays)
        f = SpinorField.random((6, 6), rng)
        message = rf"j=2, site \({site[0]}, {site[1]}\)"
        evolve(f, 0, 1, provider, WalkParams())
        with pytest.raises(GeometryError, match=message):
            evolve(f, 0, 3, provider, WalkParams())
        with pytest.raises(GeometryError, match=message):
            step(f, 1, provider, WalkParams())


class TestEvolveMemory:
    def test_per_site_evolve_allocates_no_buffer_per_step(self):
        # bound: measured 9.39 field sizes: the loop's copy and second
        # buffer, and a scratch of one row piece (2.125); the record of slice
        # j+1 (3.25: cos and sin of each theta/2, cos theta and det C) and
        # what the gates of step j hold of slice j's (3); and either T while
        # it is built (0.75) or two gates' fields while one is applied and
        # the next built (1).  Stepping through a fresh copy per step, as
        # `step` does, holds one field more; a per-step leak grows with the
        # step count.
        rng = np.random.default_rng(29)
        provider = random_history_provider(rng, times=8, shape=(256, 256))
        f = SpinorField.random((256, 256), rng)
        params = WalkParams(epsilon=0.5, mass=0.3)
        evolve(f, 0, 1, provider, params)
        peaks = []
        for steps in (2, 6):
            tracemalloc.start()
            try:
                evolve(f, 0, steps, provider, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 0.01 * f.data.nbytes
        assert peaks[1] <= 9.5 * f.data.nbytes

    @pytest.mark.parametrize("kind", ["p1", "p2"])
    def test_one_axis_evolve_builds_its_gates_on_lines(self, kind):
        # bound: measured 2.73 field sizes for either axis: the loop's copy
        # and second buffer, and a scratch of one row piece (2.125); the two
        # coefficient fields of the gate being applied, broadcast to the
        # lattice (0.5); and the records, T and gate fields of columns or
        # rows.  One more real (L1, L2) array, such as T or a record on the
        # whole lattice, is 0.25 more; the whole-lattice path peaks at 9.39.
        rng = np.random.default_rng(29)
        provider = array_angles(varying_history(rng, (256, 256), [kind] * 8))
        f = SpinorField.random((256, 256), rng)
        params = WalkParams(epsilon=0.5, mass=0.3)
        evolve(f, 0, 1, provider, params)
        peaks = []
        for steps in (2, 6):
            tracemalloc.start()
            try:
                evolve(f, 0, steps, provider, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 0.01 * f.data.nbytes
        assert peaks[1] <= 2.85 * f.data.nbytes


# ---------------------------------------------------------------------------
# gate rows in pieces
# ---------------------------------------------------------------------------

#: SHA-256 of the per-site evolve's bytes below, as the step computed them
#: with whole gate rows, by numpy's float64 tan kernel: AVX-512 (False) or
#: libm's (True); every other operation of the step is exact IEEE arithmetic
PINNED_EVOLVE = {
    False: "aefc6abc3a2e27f6ac12bee20551565b8db3b3ae122849556f0e29c2f824ef14",
    True: "65ff02582da0c259e9c100fb4bf0917244a226366878c2d58940bd83d523eee7",
}


def random_gates(rng, shape, chain):
    """walk._gate tuples of a chain of (kind, axis, per_site) draws."""
    kinds = {"Q": walk._Q_K, "R": walk._R_K, "U": walk._U_K, "UR": walk._UR_K}
    gates = []
    for kind, axis, per_site in chain:
        alpha = rng.uniform(-3, 3, shape) if per_site else rng.uniform(-3, 3)
        gates.append(walk._gate(kinds[kind], np.cos(alpha), np.sin(alpha), axis))
    return gates


class TestRowPieces:
    def test_per_site_evolve_bytes_are_pinned(self):
        # 256 x 128 = 32,768 sites: every gate row runs in pieces
        rng = np.random.default_rng(41)
        provider = random_history_provider(rng, times=5, shape=(256, 128))
        f = SpinorField.random((256, 128), rng)
        out = evolve(f, 0, 4, provider, WalkParams(epsilon=0.7, mass=0.3))
        assert hashlib.sha256(out.data.tobytes()).hexdigest() == PINNED_EVOLVE[tan_is_libm()]

    # a small _CHUNK cuts each row into pieces with odd remainders, and the
    # wrapping column too where the lattice has more rows than a piece
    @given(st.integers(1, 64), st.sampled_from([(2, 2), (6, 10), (10, 4), (14, 6)]),
           st.lists(st.tuples(st.sampled_from(["Q", "R", "U", "UR"]), st.integers(0, 2),
                              st.booleans()), min_size=1, max_size=6),
           st.integers(0, 2 ** 32 - 1))
    def test_piece_size_leaves_gates_bit_identical(self, chunk, shape, chain, seed):
        rng = np.random.default_rng(seed)
        data = SpinorField.random(shape, rng).data
        gates = random_gates(rng, shape, chain)
        expected = apply_fresh(data, gates)
        with mock.patch.object(walk, "_CHUNK", chunk):
            out = apply_fresh(data, gates)
        assert out.tobytes() == expected.tobytes()

    @given(walk_cases(uniform=False, sides=(2, 6, 10, 14)), st.integers(1, 64))
    def test_piece_size_leaves_evolve_bit_identical(self, case, chunk):
        provider, params, shape, rng = case
        f = SpinorField.random(shape, rng)
        expected = evolve(f, 0, 1, provider, params)
        with mock.patch.object(walk, "_CHUNK", chunk):
            out = evolve(f, 0, 1, provider, params)
        assert out.data.tobytes() == expected.data.tobytes()


# ---------------------------------------------------------------------------
# per-site slices that vary along one axis
# ---------------------------------------------------------------------------

#: the sites over which a slice's random angles vary, by what they vary
#: along: a wave along p1 is constant along p2, and "none" is constant
VARIES = {"both": lambda shape: shape, "p1": lambda shape: (shape[0], 1),
          "p2": lambda shape: (1, shape[1]), "none": lambda shape: (1, 1)}


def varying_history(rng, shape, kinds):
    """Random, well-conditioned angle stacks on an (L1, L2) lattice whose
    slice j varies along kinds[j] (:data:`VARIES`), for array_angles."""
    arrays = {kl: np.empty((len(kinds), *shape)) for kl in walk.KL_PAIRS}
    for j, kind in enumerate(kinds):
        for kl, a in arrays.items():
            a[j] = rng.uniform(*RNG_ANGLE_RANGES[kl[0] != kl[1]], VARIES[kind](shape))
    return arrays


def whole_lattice():
    """A patch of the step's reader that keeps every per-site slice whole."""
    return mock.patch.object(walk, "_narrow", lambda th: th)


def read_shapes(monkeypatch) -> list:
    """The list that gets the set of angle shapes of each slice walk._slice reads."""
    shapes, read = [], walk._slice
    monkeypatch.setattr(walk, "_slice", lambda th, j: shapes.append(
        {np.shape(a) for a in th.values()}) or read(th, j))
    return shapes


@st.composite
def one_axis_cases(draw, times=6):
    """A history of waves along p1, along p2, or of slices that switch from
    one time to the next between both axes and either one; walk parameters,
    lattice shape and rng."""
    shape = tuple(draw(st.sampled_from((2, 6, 10, 14))) for _ in range(2))
    kinds = draw(st.one_of(
        st.sampled_from(["p1", "p2"]).map(lambda kind: [kind] * times),
        st.lists(st.sampled_from(["both", "p1", "p2"]), min_size=times, max_size=times)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    params = WalkParams(epsilon=draw(st.floats(0.05, 1.5)), mass=draw(st.floats(0.0, 2.0)))
    return array_angles(varying_history(rng, shape, kinds)), params, shape, rng


class TestOneAxisSlices:
    # odd pieces of a gate row start and end inside the lines' broadcasts
    @given(one_axis_cases(), st.integers(0, 1), st.integers(0, 4), st.integers(0, 31))
    def test_evolve_on_lines_has_the_bits_of_the_whole_lattice(self, case, j0, steps, half):
        provider, params, shape, rng = case
        f = SpinorField.random(shape, rng)
        with mock.patch.object(walk, "_CHUNK", 2 * half + 1):
            run = walk._time_loop(f, j0, steps, provider, params)
            with whole_lattice():
                whole = walk._time_loop(f, j0, steps, provider, params)
        assert run.field.data.tobytes() == whole.field.data.tobytes()
        assert run.norms == whole.norms
        assert (run.min_abs_det_c, run.max_abs_t_eps) == (whole.min_abs_det_c,
                                                           whole.max_abs_t_eps)

    # a slice constant along both axes is read as columns
    @pytest.mark.parametrize("kind, read", [("both", (6, 8)), ("p1", (6, 1)),
                                            ("p2", (1, 8)), ("none", (6, 1))])
    def test_slice_is_read_on_the_lattice_or_on_lines(self, monkeypatch, kind, read):
        rng = np.random.default_rng(61)
        provider = array_angles(varying_history(rng, (6, 8), [kind] * 4))
        shapes = read_shapes(monkeypatch)
        evolve(SpinorField.random((6, 8), rng), 0, 3, provider, WalkParams(mass=0.3))
        assert shapes == [{read}] * 4

    # slice 1 of th11 is one ulp, a signed zero or a NaN off its line at (3, 5)
    @pytest.mark.parametrize("edit", ["ulp", "signed zero", "nan"])
    @pytest.mark.parametrize("kind, read", [("p1", (6, 1)), ("p2", (1, 8))])
    def test_one_site_off_the_line_keeps_the_whole_lattice(self, monkeypatch, edit, kind,
                                                           read):
        rng = np.random.default_rng(62)
        arrays = varying_history(rng, (6, 8), [kind] * 3)
        th = arrays[(1, 1)]
        if edit == "ulp":
            th[1, 3, 5] = np.nextafter(th[1, 3, 5], np.inf)
        elif edit == "signed zero":
            th[1] = 0.0
            th[1, 3, 5] = -0.0
        else:
            th[1, 3, 5] = np.nan
        provider = array_angles(arrays)
        shapes = read_shapes(monkeypatch)
        f = SpinorField.random((6, 8), rng)
        with (pytest.raises(GeometryError, match=r"j=1, site \(3, 5\)$") if edit == "nan"
              else contextlib.nullcontext()):
            evolve(f, 0, 2, provider, WalkParams())
        assert shapes[:2] == [{read}, {(6, 8)}]

    def test_slice_that_is_not_float64_keeps_the_whole_lattice(self, monkeypatch):
        rng = np.random.default_rng(63)
        inner = array_angles(varying_history(rng, (6, 8), ["p1"] * 2))
        provider = AngleProvider(lambda j: tuple(
            inner.fields(j, (6, 8))[kl].astype(np.float32) for kl in walk.KL_PAIRS))
        shapes = read_shapes(monkeypatch)
        step(SpinorField.random((6, 8), rng), 0, provider, WalkParams())
        assert shapes == [{(6, 8)}] * 2

    # read from j0 = 1, slice 1 is the first one read and slice 2 the one
    # ahead of step 1; a singular line names the first site of the whole
    # slice in row-major order
    @pytest.mark.parametrize("kind, site", [("p1", (4, 0)), ("p2", (0, 5))])
    @pytest.mark.parametrize("at", [1, 2])
    def test_singular_line_names_the_time_and_site_of_the_whole_slice(self, kind, site, at):
        rng = np.random.default_rng(64)
        arrays = varying_history(rng, (6, 8), [kind] * 4)
        line = np.s_[at, site[0], :] if kind == "p1" else np.s_[at, :, site[1]]
        for kl_a, kl_b in (((1, 1), (2, 1)), ((1, 2), (2, 2))):
            arrays[kl_b][line] = arrays[kl_a][line]
        provider = array_angles(arrays)
        f = SpinorField.random((6, 8), rng)
        message = rf"j={at}, site \({site[0]}, {site[1]}\)$"
        for patch in (contextlib.nullcontext, whole_lattice):
            with patch():
                for run in (lambda: evolve(f, 1, 2, provider, WalkParams()),
                            lambda: step(f, 1, provider, WalkParams()),
                            lambda: t_epsilon_field(provider, 1, (6, 8), WalkParams())):
                    with pytest.raises(GeometryError, match=message):
                        run()

    @pytest.mark.parametrize("kind", ["p1", "p2", "none"])
    def test_t_epsilon_field_and_fields_stay_on_the_lattice(self, kind):
        rng = np.random.default_rng(65)
        provider = array_angles(varying_history(rng, (6, 8), [kind] * 2))
        params = WalkParams(epsilon=0.7)
        assert {a.shape for a in provider.fields(0, (6, 8)).values()} == {(6, 8)}
        te = t_epsilon_field(provider, 0, (6, 8), params)
        assert te.shape == (6, 8)
        lines = walk._t_values(*(walk._slice(walk._narrow(provider.fields(j, (6, 8))), j)
                                 for j in (0, 1)), params)
        assert np.broadcast_to(lines, (6, 8)).tobytes() == te.tobytes()


# ---------------------------------------------------------------------------
# the real-space loop on real planes
# ---------------------------------------------------------------------------

def plane_chain(rng, shape, chain) -> list:
    """Gate tuples of a chain of (kind, axis, sites) draws: a coin gate on
    random angles that vary over `sites` (:data:`VARIES`), Pi or Pi^-1."""
    coins = {"Q": walk._Q_K, "R": walk._R_K, "U": walk._U_K, "UR": walk._UR_K}
    gates = []
    for kind, axis, sites in chain:
        if kind in coins:
            alpha = rng.uniform(-3, 3, VARIES[sites](shape))
            gates.append(walk._gate(coins[kind], np.cos(alpha), np.sin(alpha), axis))
        else:
            gates.append((walk.PI_MATRIX if kind == "PI" else walk.PI_INV_MATRIX, None, axis))
    return gates


def per_site_runs(monkeypatch) -> list:
    """The list that gets, for each layout change of the real-space loop,
    whether it left real planes."""
    changes, relayout = [], walk._relayout
    monkeypatch.setattr(walk, "_relayout", lambda src, out, planar, *phase: (
        changes.append(planar) or relayout(src, out, planar, *phase)))
    return changes


CHAINS = st.lists(st.tuples(st.sampled_from(["Q", "R", "U", "UR", "PI", "PI_INV"]),
                            st.integers(0, 2), st.sampled_from(["both", "p1", "p2"])),
                  min_size=1, max_size=8)


class TestRealPlanes:
    # steps of the gates a step is made of, in chains that take every rho
    # (test_chain_takes_every_rho) and run Pi and Pi^-1 on complex values,
    # before the first per-site gate, and on planes; a small _CHUNK cuts rows
    # into pieces with odd remainders, and the wrapping column too
    @given(st.integers(1, 64), st.sampled_from([(2, 2), (6, 10), (10, 4), (14, 6)]),
           st.lists(CHAINS, min_size=1, max_size=3), st.integers(0, 2 ** 32 - 1))
    def test_planar_loop_has_the_bits_of_the_complex_loop(self, chunk, shape, steps, seed):
        rng = np.random.default_rng(seed)
        data = SpinorField.random(shape, rng).data
        lists = [plane_chain(rng, shape, chain) for chain in steps]
        expected, expected_norms = complex_real_steps(data, lists)
        with mock.patch.object(walk, "_CHUNK", chunk):
            out, norms = walk._real_steps(data, [iter(gates) for gates in lists])
        assert out.tobytes() == expected.tobytes()
        assert np.abs(np.subtract(norms, expected_norms)).max() < 1e-14

    def test_chain_takes_every_rho(self, monkeypatch):
        # the phase R leaves turns the next gates' rho from +-1 to +-i; the
        # chain starts on planes, so that no layout copy looks a phase up
        rng = np.random.default_rng(71)
        gates = plane_chain(rng, (4, 6), [("R", 1, "both"), ("R", 1, "p1"), ("Q", 2, "p2")])
        data = SpinorField.random((4, 6), rng).data
        assert (walk._real_steps(data, [iter(gates)])[0].tobytes()
                == complex_real_steps(data, [gates])[0].tobytes())
        rhos = []

        class Units(dict):
            def __getitem__(self, rho):
                rhos.append(complex(rho))
                return super().__getitem__(rho)

        monkeypatch.setattr(walk, "_UNITS", Units(walk._UNITS))
        bufs = [data.copy(), np.empty_like(data)]
        walk._apply(bufs, np.empty(walk._scratch(data.shape), complex), {}, iter(gates),
                    planar=True)
        assert set(rhos) == {1, -1, 1j, -1j}

    def test_layout_changes_only_at_the_ends_of_a_per_site_run(self, monkeypatch):
        changes = per_site_runs(monkeypatch)
        rng = np.random.default_rng(72)
        f = SpinorField.random((6, 8), rng)
        params = WalkParams(epsilon=0.6, mass=0.4)
        step(f, 0, random_uniform_provider(rng), params)
        assert changes == []
        provider = random_history_provider(rng, times=5, shape=(6, 8))
        step(f, 0, provider, params)
        assert changes == [False, True]
        evolve(f, 0, 3, provider, params)
        assert changes == [False, True] * 2

    # a delta's exact zeros are where the two loops could differ in the sign
    # of zero: the planar loop leaves -0.0 at half of them, where the complex
    # loop gave 0.0, so its values match and its bytes do up to those signs
    @pytest.mark.parametrize("kind", ["both", "p1", "p2"])
    def test_delta_start_keeps_its_values(self, kind):
        rng = np.random.default_rng(73)
        provider = array_angles(varying_history(rng, (6, 10), [kind] * 5))
        params = WalkParams(epsilon=0.7, mass=0.3)
        f = SpinorField.delta((6, 10), (2, 3), 1, 0.6 - 0.8j)
        lists = [list(gates) for gates in walk._step_gate_lists(provider, 0, 3, (6, 10),
                                                                 params, [])]
        expected = complex_real_steps(f.data, lists)[0]
        out = walk._time_loop(f, 0, 3, provider, params).field.data
        assert np.array_equal(out, expected)
        assert (out + 0.0).tobytes() == (expected + 0.0).tobytes()

    def test_per_site_norms_lie_close_to_an_exact_sum(self):
        # bound: the norm after each step against the root of a math.fsum of
        # the squared parts; measured 4.4e-16.  One einsum over the whole
        # field, as the complex loop took it, read up to 1.11e-15 here
        params = WalkParams(epsilon=0.7, mass=0.3)
        worst = worst_complex = 0.0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            provider = random_history_provider(rng, times=6, shape=(64, 48))
            f = SpinorField.random((64, 48), rng)
            for steps in range(1, 5):
                run = walk._time_loop(f, 0, steps, provider, params)
                lists = walk._step_gate_lists(provider, 0, steps, (64, 48), params, [])
                complex_norm = complex_real_steps(f.data, [list(g) for g in lists])[1][-1]
                squares = run.field.data.view(np.float64).ravel() ** 2
                exact = math.sqrt(math.fsum(squares.tolist()))
                worst = max(worst, abs(run.norms[-1] - exact))
                worst_complex = max(worst_complex, abs(complex_norm - exact))
        assert worst <= min(5.6e-16, worst_complex)


# ---------------------------------------------------------------------------
# runs of space-uniform factors
# ---------------------------------------------------------------------------

def runs_of(steps, piece=1):
    """Patches of walk._RUN to `steps` steps per run, and of walk._piece to
    `piece` steps per piece of a run."""
    return mock.patch.multiple(walk, _RUN=steps, _piece=lambda shape: piece)


def history_with_singular_slice(rng, times, at):
    """A space-uniform random history whose cosine matrix is singular at `at`."""
    arrays = {kl: rng.uniform(*RNG_ANGLE_RANGES[kl[0] != kl[1]], (times, 1, 1))
              for kl in walk.KL_PAIRS}
    for kl_a, kl_b in (((1, 1), (2, 1)), ((1, 2), (2, 2))):
        arrays[kl_b][at] = arrays[kl_a][at]
    return array_angles(arrays)


class TestRunBoundaries:
    # runs of 1 to 7 steps put the boundaries between runs at every step of
    # the 11, and a run of 1 reads scalar angles; pieces of 1 to 3 steps cut
    # the runs again, with a shorter last piece where they do not fit
    @pytest.mark.parametrize("piece", [1, 2, 3])
    @pytest.mark.parametrize("steps_per_run", range(1, 8))
    def test_run_length_leaves_evolve_bit_identical(self, steps_per_run, piece):
        rng = np.random.default_rng(51)
        provider, calls = counting_provider(rng, 14, (1, 1))
        params = WalkParams(epsilon=0.7, mass=0.3)
        f = SpinorField.random((6, 10), rng)
        expected = walk._time_loop(f, 2, 11, provider, params)
        calls.clear()
        with runs_of(steps_per_run, piece):
            run = walk._time_loop(f, 2, 11, provider, params)
        assert calls == list(range(2, 14))
        assert run.field.data.tobytes() == expected.field.data.tobytes()
        assert run.norms == expected.norms
        assert (run.min_abs_det_c, run.max_abs_t_eps) == (expected.min_abs_det_c,
                                                           expected.max_abs_t_eps)

    @pytest.mark.parametrize("steps_per_run", range(1, 8))
    def test_singular_slice_in_a_later_run_names_its_time(self, steps_per_run):
        rng = np.random.default_rng(52)
        provider = history_with_singular_slice(rng, 14, 9)
        f = SpinorField.random((6, 6), rng)
        with runs_of(steps_per_run):
            evolve(f, 0, 7, provider, WalkParams())
            with pytest.raises(GeometryError, match=r"j=9, site \(0, 0\)$"):
                evolve(f, 0, 12, provider, WalkParams())

    def test_singular_slice_before_a_failed_read_is_named_first(self):
        # slice 9 is singular and slice 11 cannot be read: as when the slices
        # are read one at a time, the singular one is named
        rng = np.random.default_rng(53)
        provider = history_with_singular_slice(rng, 11, 9)
        f = SpinorField.random((6, 6), rng)
        with pytest.raises(ConfigurationError, match="queried j=11"):
            provider.fields(11, (1, 1))
        with runs_of(8), pytest.raises(GeometryError, match=r"j=9, site \(0, 0\)$"):
            evolve(f, 0, 12, provider, WalkParams())

    def test_fourier_memory_does_not_grow_with_runs(self):
        # bound: the Fourier loop's own, 1.5 field sizes (1.38 measured with
        # the 4-step pieces of 256^2), over 40 and 100 steps: 2 and 4 runs
        rng = np.random.default_rng(54)
        f = SpinorField.random((256, 256), rng)
        provider = random_history_provider(rng, times=101)
        assert (walk._RUN, walk._piece(f.shape)) == (32, 4)
        evolve(f, 0, 2, provider, WalkParams(mass=0.3))
        peaks = []
        for steps in (40, 100):
            tracemalloc.start()
            try:
                evolve(f, 0, steps, provider, WalkParams(mass=0.3))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 0.01 * f.data.nbytes
        assert peaks[1] <= 1.5 * f.data.nbytes


# ---------------------------------------------------------------------------
# the paper's energy rescaling, read off both stepping loops
# ---------------------------------------------------------------------------

class TestEnergyRescaling:
    def test_shear_energy_shift_through_both_loops(self):
        # A pure shear wave g shifts the positive energy of the mode q = 2k
        # by 2 xi g qX qY / |q| on large scales.  Measured on 512^2 over 4
        # steps at (n, 2n), n = 1, 2, 4: relative errors 0.0271, 0.0527 and
        # 0.0992, a log-log slope of 0.93; the loops' energies within 1.2e-16
        size, steps, xi, g = 512, 4, 1e-3, 1.0
        shape = (size, size)

        def energies(xi, n1, n2):
            """E = -arg<f, evolve(f)> / steps of the positive-energy plane
            wave, through the Fourier loop and through the real-space one."""
            provider, params = pure_shear_angles(xi, g), WalkParams(xi=xi)
            k1, k2 = 2 * np.pi * n1 / size, 2 * np.pi * n2 / size
            values, vectors = np.linalg.eig(
                plane_wave_transfer_matrix(provider, 0, k1, k2, params))
            f = SpinorField.plane_wave(shape, k1, k2, vectors[:, np.argmax(-np.angle(values))])
            th = provider.fields(0, shape)
            per_site = array_angles({kl: np.broadcast_to(th[kl], (steps + 1, *shape))
                                     for kl in walk.KL_PAIRS})
            assert provider.uniform_in_space and not per_site.uniform_in_space
            return np.array([-np.angle(np.vdot(f.data, evolve(f, 0, steps, p, params).data))
                             for p in (provider, per_site)]) / steps

        q, errors = [], []
        for n in (1, 2, 4):
            qx, qy = 4 * np.pi * n / size, 8 * np.pi * n / size
            shifted, flat = energies(xi, n, 2 * n), energies(0.0, n, 2 * n)
            for fourier, real in (shifted, flat):
                assert abs(fourier - real) < 1e-14
            q.append(math.hypot(qx, qy))
            errors.append(np.abs((shifted - flat) / (2 * xi * g * qx * qy / q[-1]) - 1))
        errors = np.array(errors)
        assert np.all(np.diff(errors, axis=0) > 0)
        for loop in errors.T:
            assert 0.8 <= np.polyfit(np.log(q), np.log(loop), 1)[0] <= 1.2
        assert np.abs(errors[:, 0] - errors[:, 1]).max() < 1e-10
