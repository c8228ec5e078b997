import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gwalk import walk
from gwalk.errors import ConfigurationError, GeometryError
from gwalk.geometry import spatial_nullity_terms, t_epsilon_compact
from gwalk.walk import (AngleProvider, SpinorField, WalkParams, array_angles,
                        coin_matrix, constant_angles, evolve, flat_angles,
                        plane_wave_transfer_matrix, pure_shear_angles,
                        shift_apply, step, t_epsilon, uniform_time_angles,
                        w_block_apply)
from gwalk.walk import t_epsilon_field

RNG_ANGLE_RANGES = ((0.1, 0.7), (0.9, 1.4))  # keeps the cosine matrix well conditioned


def random_uniform_provider(rng):
    (a, b), (c, d) = RNG_ANGLE_RANGES
    return constant_angles(rng.uniform(a, b), rng.uniform(c, d),
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

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            coin_matrix("Z", 0.0)

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
        from gwalk.spectral import mode_w0
        k1 = 2 * np.pi * 3 / 16
        phase = np.exp(1j * k1 * np.arange(16))[:, None] * np.ones((1, 16))
        for pol in ((1, 0), (0, 1), (0.6, 0.8j)):
            f = SpinorField.plane_wave((16, 16), k1, 0.0, pol)
            out = step(f, 0, flat_angles(), WalkParams())
            expected = mode_w0(2 * k1, 0.0) @ np.asarray(pol, dtype=complex)
            np.testing.assert_allclose(
                out.data, np.einsum("c,xy->cxy", expected, phase), atol=1e-12)


class TestTEpsilon:
    def test_diagonal_cosine_matrix_vanishes(self):
        provider = uniform_time_angles(lambda t: 0.3 + 0.2 * np.sin(t),
                                       np.pi / 2, np.pi / 2,
                                       lambda t: 0.8 - 0.1 * np.cos(t))
        assert abs(t_epsilon(provider, 2, 0, 0, WalkParams())) < 1e-14

    def test_time_independent_vanishes(self):
        rng = np.random.default_rng(3)
        provider = random_uniform_provider(rng)
        assert t_epsilon(provider, 0, 0, 0, WalkParams()) == 0.0

    def test_pure_shear_first_order_cancellation(self):
        xi = 1e-4
        g = lambda t: np.sin(0.1 * t)
        provider = pure_shear_angles(xi, g)
        max_d0g = abs(g(1.0) - g(0.0))
        val = t_epsilon(provider, 0, 0, 0, WalkParams())
        assert abs(val) <= 10.0 * xi ** 2 * max_d0g

    def test_compact_form_matches_direct(self):
        rng = np.random.default_rng(4)
        params = WalkParams(epsilon=0.37)
        for _ in range(10):
            provider = random_history_provider(rng)
            direct = t_epsilon(provider, 0, 0, 0, params)
            compact = t_epsilon_compact(provider, 0, 0, 0, params)
            assert abs(direct - compact) < 1e-12

    def test_compact_form_diagonal_and_constant(self):
        provider = uniform_time_angles(lambda t: 0.3 + 0.2 * np.sin(t),
                                       np.pi / 2, np.pi / 2,
                                       lambda t: 0.8 - 0.1 * np.cos(t))
        assert abs(t_epsilon_compact(provider, 1, 0, 0, WalkParams())) < 1e-12
        rng = np.random.default_rng(5)
        const = random_uniform_provider(rng)
        assert abs(t_epsilon_compact(const, 0, 0, 0, WalkParams())) < 1e-14

    def test_spatial_terms_vanish_identically(self):
        rng = np.random.default_rng(6)
        provider = random_history_provider(rng, times=2, shape=(6, 6))
        for site in ((0, 0), (2, 3), (5, 5)):
            k1, k2 = spatial_nullity_terms(provider, 0, *site, WalkParams())
            assert abs(k1) < 1e-12 and abs(k2) < 1e-12

    def test_singular_cosine_matrix_rejected(self):
        # equal rows make det C = 0
        provider = uniform_time_angles(0.4, 0.9, lambda t: 0.4 + 0.1 * t,
                                       lambda t: 0.9 + 0.1 * t)
        with pytest.raises(GeometryError, match="singular"):
            t_epsilon(provider, 0, 0, 0, WalkParams())

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
            t_epsilon(provider, 0, 2, 3, WalkParams())
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
        from gwalk.spectral import mode_operator
        xi, g = 1e-3, 1.0
        provider = pure_shear_angles(xi, g)
        k1, k2 = 2 * np.pi * 3 / 16, 2 * np.pi * 5 / 16
        pol = np.array([0.3 - 0.4j, 0.8 + 0.1j])
        pol /= np.linalg.norm(pol)
        f = SpinorField.plane_wave((16, 16), k1, k2, pol)
        out = step(f, 0, provider, WalkParams(xi=xi))
        expected = mode_operator(xi, g, 2 * k1, 2 * k2).first_order() @ pol
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
        a = provider.angle(3, 0, 0, (1, 2))
        b = provider.angle(3, 5, 7, (1, 2))
        assert a == b

    def test_array_provider_bounds_check(self):
        rng = np.random.default_rng(14)
        provider = random_history_provider(rng, times=2, shape=(4, 4))
        for j in (2, -1):
            with pytest.raises(ConfigurationError, match="cover times"):
                provider.angle(j, 0, 0, (1, 1))

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
        _, norms = walk._time_loop(f, j0, steps, provider, params)
        assert len(norms) == steps
        assert np.abs(np.subtract(norms, expected_norms)).max(initial=0.0) < 1e-12

    def test_uniform_evolve_never_steps_in_real_space(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("real-space step called")

        monkeypatch.setattr(walk, "step", no_step)
        rng = np.random.default_rng(25)
        f = SpinorField.random((8, 6), rng)
        out = evolve(f, 2, 3, random_history_provider(rng, times=6), WalkParams())
        assert abs(out.norm() - f.norm()) < 1e-12

    def test_uniform_evolve_transforms_in_place(self):
        # bound: the transformed copy, the second buffer and a half-size
        # scratch; an out-of-place inverse transform holds one more field
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
        assert peak <= 2.75 * f.data.nbytes

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
        # the single-site path reads provider.angle, which wraps sites
        # periodically; the field path reads whole slices
        provider, params, shape, _ = case
        te = t_epsilon_field(provider, 0, shape, params)
        for p1 in range(shape[0]):
            for p2 in range(shape[1]):
                site = (p1 - wraps * shape[0], p2 + wraps * shape[1])
                assert abs(te[p1, p2] - t_epsilon(provider, 0, *site, params)) < 1e-14


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
        # np.stack arrays, 8.25 field sizes on a 256^2 per-site provider
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
