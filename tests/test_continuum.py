import itertools
import math

import numpy as np
import pytest

from gwalk.continuum import (GAMMA0, GAMMA1, GAMMA2, HamiltonianField,
                             b_matrices, bandlimit_fraction,
                             continuum_residual, gamma_rep,
                             hamiltonian_apply, hamiltonian_from_angles,
                             hamiltonian_from_provider, j_tensor,
                             spin_generator, t0, t0_dual_form)
from gwalk.errors import ConfigurationError
from gwalk.geometry import dual_triad, triad_from_angles
from gwalk.walk import (SpinorField, WalkParams, flat_angles, pure_shear_angles,
                        uniform_time_angles)

from oracles import hamiltonian_entries

ETA = np.diag([1.0, -1.0, -1.0])
FLAT = (0.0, math.pi / 2, math.pi / 2, 0.0)


class TestCliffordAlgebra:
    def test_anticommutators(self):
        gammas = (GAMMA0, GAMMA1, GAMMA2)
        for a in range(3):
            for b in range(3):
                anti = gammas[a] @ gammas[b] + gammas[b] @ gammas[a]
                np.testing.assert_allclose(anti, 2 * ETA[a, b] * np.eye(2),
                                           atol=1e-14)

    def test_j_tensor_cyclic_components(self):
        rep = gamma_rep()
        for b, c, d in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            np.testing.assert_allclose(j_tensor(rep, b, c, d), 2 * np.eye(2),
                                       atol=1e-14)

    def test_j_tensor_antisymmetries(self):
        rep = gamma_rep()
        for b, c, d in itertools.product(range(3), repeat=3):
            jbcd = j_tensor(rep, b, c, d)
            np.testing.assert_allclose(jbcd, -j_tensor(rep, b, d, c), atol=1e-14)
            np.testing.assert_allclose(jbcd, -j_tensor(rep, c, b, d), atol=1e-14)
            if len({b, c, d}) < 3:
                np.testing.assert_allclose(jbcd, 0.0, atol=1e-14)

    def test_spin_generator_antisymmetry(self):
        rep = gamma_rep()
        for c, d in itertools.product(range(3), repeat=2):
            np.testing.assert_allclose(spin_generator(rep, c, d),
                                       -spin_generator(rep, d, c), atol=1e-14)


class TestBMatrices:
    def test_flat_values(self):
        b1, b2 = b_matrices(*FLAT)
        np.testing.assert_allclose(b1, np.diag([-1.0, 1.0]), atol=1e-16)
        np.testing.assert_allclose(b2, [[0, -1j], [1j, 0]], atol=1e-16)

    def test_pure_shear_entries(self):
        b1, _ = b_matrices(0.0, math.pi / 2 - 0.01, math.pi / 2 - 0.01, 0.0)
        c = math.cos(math.pi / 2 - 0.01)
        np.testing.assert_allclose(b1, [[-1.0, -1j * c], [1j * c, 1.0]],
                                   atol=1e-16)
        assert c == pytest.approx(0.01, abs=2e-7)

    def test_hermitian(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            b1, b2 = b_matrices(*rng.uniform(0, math.pi, 4))
            np.testing.assert_allclose(b1, b1.conj().T, atol=1e-15)
            np.testing.assert_allclose(b2, b2.conj().T, atol=1e-15)

    def test_matches_triad_contraction(self):
        rng = np.random.default_rng(1)
        g0g = (GAMMA0 @ GAMMA1, GAMMA0 @ GAMMA2)
        for _ in range(10):
            angles = rng.uniform(0.1, 1.4, 4)
            b1, b2 = b_matrices(*angles)
            triad = triad_from_angles(*angles)
            for k, bk in enumerate((b1, b2)):
                expected = sum(triad.spatial[k, a] * g0g[a] for a in range(2))
                np.testing.assert_allclose(bk, expected, atol=1e-14)

    def test_block_decomposition_through_pi(self):
        # B^k splits into a diagonal piece plus its Pi conjugate
        from gwalk.walk import PI_INV_MATRIX, PI_MATRIX
        rng = np.random.default_rng(2)
        for _ in range(5):
            t11, t12, t21, t22 = rng.uniform(0.1, 1.4, 4)
            b1, b2 = b_matrices(t11, t12, t21, t22)
            def diag(t):
                return np.diag([-math.cos(t), math.cos(t)])
            np.testing.assert_allclose(
                b1, diag(t11) + PI_INV_MATRIX @ diag(t12) @ PI_MATRIX, atol=1e-14)
            np.testing.assert_allclose(
                b2, diag(t21) + PI_INV_MATRIX @ diag(t22) @ PI_MATRIX, atol=1e-14)


def _dual_series(angle_fns):
    def series(t):
        return dual_triad(triad_from_angles(*[f(t) for f in angle_fns]))
    return series


class TestT0:
    def test_time_independent_vanishes(self):
        series = _dual_series([lambda t: 0.3, lambda t: 1.1,
                               lambda t: 0.9, lambda t: 0.5])
        assert abs(t0(series, 1.0)) < 1e-10

    def test_diagonal_dual_triad_vanishes(self):
        def series(t):
            d = np.diag([1.0, 1.0 + 0.3 * math.sin(t), 1.2 - 0.2 * math.cos(t)])
            from gwalk.geometry import DualTriad
            return DualTriad(d)
        assert abs(t0(series, 0.7)) < 1e-10

    def test_dual_form_identity(self):
        series = _dual_series([lambda t: 0.3 + 0.1 * math.sin(t),
                               lambda t: 1.0 + 0.2 * math.cos(t),
                               lambda t: 0.8 + 0.05 * math.sin(0.5 * t),
                               lambda t: 0.4 + 0.3 * math.sin(0.7 * t)])
        for t in (0.0, 0.9, 2.3):
            assert abs(t0(series, t) - t0_dual_form(series, t)) < 1e-10

    def test_lattice_scalar_converges_first_order(self):
        from gwalk.walk import t_epsilon
        fns = [lambda t: 0.3 + 0.1 * math.sin(t),
               lambda t: 1.0 + 0.2 * math.cos(t),
               lambda t: 0.8 + 0.05 * math.sin(0.5 * t),
               lambda t: 0.4 + 0.3 * math.sin(0.7 * t)]
        series = _dual_series(fns)
        t_ref = t0(series, 1.3, h=1e-7)
        errs = []
        eps_values = (1e-2, 1e-3)
        for eps in eps_values:
            # the provider samples the waveforms at T = j*eps
            provider = uniform_time_angles(*fns, epsilon=eps)
            base_j = round(1.3 / eps)
            val = t_epsilon(provider, base_j, 0, 0, WalkParams(epsilon=eps))
            errs.append(abs(val - t_ref))
        rate = errs[0] / errs[1]
        assert 5.0 < rate < 20.0  # first-order convergence in eps


class TestHamiltonianApply:
    def test_flat_plane_wave_energies(self):
        # symbol eigenvalues are +/- |q| on the two polarizations
        length, n1, n2, eps = 32, 2, 3, 1.0
        k1, k2 = 2 * np.pi * n1 / length, 2 * np.pi * n2 / length
        qx, qy = 2 * k1 / eps, 2 * k2 / eps
        symbol = (b_matrices(*FLAT)[0] * qx + b_matrices(*FLAT)[1] * qy)
        evals, evecs = np.linalg.eigh(symbol)
        h = hamiltonian_from_angles(*FLAT, epsilon=eps)
        for idx in range(2):
            pol = evecs[:, idx]
            f = SpinorField.plane_wave((length, length), k1, k2, pol)
            out = hamiltonian_apply(f, h)
            np.testing.assert_allclose(out.data, evals[idx] * f.data, atol=1e-10)
        aq = math.hypot(qx, qy)
        np.testing.assert_allclose(sorted(evals), [-aq, aq], atol=1e-12)

    def test_massive_uniform(self):
        h = hamiltonian_from_angles(*FLAT, mass=0.7)
        f = SpinorField(np.stack([np.full((8, 8), 0.3 + 0.1j),
                                  np.full((8, 8), -0.2 + 0.5j)]))
        out = hamiltonian_apply(f, h)
        expected = 0.7 * np.einsum("ab,bxy->axy", GAMMA0, f.data)
        np.testing.assert_allclose(out.data, expected, atol=1e-14)

    def test_hermiticity_with_space_dependent_angles(self):
        rng = np.random.default_rng(3)
        length = 16
        p = np.arange(length)
        px, py = np.meshgrid(p, p, indexing="ij")
        # smooth periodic angle fields
        t11 = 0.3 + 0.05 * np.sin(2 * np.pi * px / length)
        t12 = 1.1 + 0.05 * np.cos(2 * np.pi * py / length)
        t21 = 0.9 + 0.05 * np.sin(2 * np.pi * (px + py) / length)
        t22 = 0.5 + 0.05 * np.cos(2 * np.pi * px / length)
        h = HamiltonianField(np.cos(t11), np.cos(t12), np.cos(t21),
                             np.cos(t22), 0.25, 1.0)
        def smooth_field():
            modes = np.zeros((2, length, length), dtype=complex)
            low = [0, 1, 2, length - 2, length - 1]
            for c in range(2):
                for i in low:
                    for j in low:
                        modes[c, i, j] = rng.standard_normal() \
                            + 1j * rng.standard_normal()
            return SpinorField(np.fft.ifft2(modes, axes=(1, 2)))
        phi, psi = smooth_field(), smooth_field()
        lhs = np.vdot(phi.data, hamiltonian_apply(psi, h).data)
        rhs = np.vdot(hamiltonian_apply(phi, h).data, psi.data)
        assert abs(lhs - rhs) < 1e-10


    @staticmethod
    def _smooth_angles(length):
        p = np.arange(length)
        px, py = np.meshgrid(p, p, indexing="ij")
        return (0.3 + 0.05 * np.sin(2 * np.pi * px / length),
                1.1 + 0.05 * np.cos(2 * np.pi * py / length),
                0.9 + 0.05 * np.sin(2 * np.pi * (2 * px + py) / length),
                0.5 + 0.07 * np.cos(2 * np.pi * (px - 2 * py) / length))

    @pytest.mark.parametrize("eps", [1.0, 0.3])
    def test_matches_each_entry_written_out(self, eps):
        # every B^k entry and both divergence terms, on angles that vary
        # along both axes, against the formula spelled out entry by entry
        rng = np.random.default_rng(25)
        length = 16
        cosines = [np.cos(t) for t in self._smooth_angles(length)]
        mass_like = 0.25 + 0.1 * rng.standard_normal((length, length))
        f = SpinorField.random((length, length), rng)
        out = hamiltonian_apply(f, HamiltonianField(*cosines, mass_like, eps))
        expected = hamiltonian_entries(f.data, *cosines, mass_like, eps)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12 / eps)

    def test_uniform_angles_take_one_transform_pair_per_axis(self, monkeypatch):
        calls = []
        for name in ("fft", "ifft"):
            original = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, _f=original, _n=name, **k:
                                calls.append(_n) or _f(*a, **k))
        f = SpinorField.random((8, 8), np.random.default_rng(0))
        out = hamiltonian_apply(f, hamiltonian_from_angles(0.2, 1.1, 0.9, 0.4, mass=0.3))
        assert sorted(calls) == ["fft", "fft", "ifft", "ifft"]
        monkeypatch.undo()
        expected = hamiltonian_entries(f.data, *np.cos((0.2, 1.1, 0.9, 0.4)), 0.3, 1.0)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)


class TestContinuumResidual:
    @staticmethod
    def _residuals(provider_fn, mass, length=64, mode_scale=True):
        pol = np.array([0.6 + 0.2j, -0.3 + 0.7j])
        pol /= np.linalg.norm(pol)
        eps_values = (0.2, 0.1, 0.05)
        out = []
        for eps in eps_values:
            n = round(eps / 0.05) if mode_scale else 0
            k = 2 * np.pi * n / length
            f = SpinorField.plane_wave((length, length), k, k, pol)
            params = WalkParams(epsilon=eps, mass=mass)
            out.append(continuum_residual(provider_fn(), params, f, 0))
        return np.array(eps_values), np.array(out)

    def test_flat_second_order(self):
        eps, res = self._residuals(flat_angles, 0.0)
        slope = np.polyfit(np.log(eps), np.log(res), 1)[0]
        assert 1.8 < slope < 2.2

    def test_pure_shear_second_order(self):
        eps, res = self._residuals(lambda: pure_shear_angles(1e-3, 1.0), 0.0)
        slope = np.polyfit(np.log(eps), np.log(res), 1)[0]
        assert 1.8 < slope < 2.2

    def test_massive_uniform_second_order(self):
        eps, res = self._residuals(flat_angles, 0.5, mode_scale=False)
        slope = np.polyfit(np.log(eps), np.log(res), 1)[0]
        assert 1.8 < slope < 2.2

    def test_bandlimit_guard(self):
        rng = np.random.default_rng(4)
        rough = SpinorField.random((16, 16), rng)
        assert bandlimit_fraction(rough) > 1e-8
        with pytest.raises(ConfigurationError, match="bandlimited"):
            continuum_residual(flat_angles(), WalkParams(), rough, 0)

    def test_provider_hamiltonian_matches_angle_hamiltonian(self):
        provider = uniform_time_angles(0.2, 1.1, 0.9, 0.4)
        params = WalkParams(epsilon=0.5, mass=0.3)
        rng = np.random.default_rng(5)
        modes = np.zeros((2, 16, 16), dtype=complex)
        modes[:, :3, :3] = rng.standard_normal((2, 3, 3))
        f = SpinorField(np.fft.ifft2(modes, axes=(1, 2)))
        h1 = hamiltonian_from_provider(provider, 0, f.shape, params)
        h2 = hamiltonian_from_angles(0.2, 1.1, 0.9, 0.4, mass=0.3, epsilon=0.5)
        np.testing.assert_allclose(hamiltonian_apply(f, h1).data,
                                   hamiltonian_apply(f, h2).data, atol=1e-13)
