import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gwalk.errors import ConfigurationError
from gwalk.interference import (InterferenceSetup, _golden_max, admissible_q,
                                delta_formula, delta_max,
                                delta_max_integer, delta_max_peak,
                                delta_simulated, figure_tables,
                                initial_density_formula,
                                initial_superposition, POLARIZATION_X,
                                POLARIZATION_Y)
from gwalk.spectral import mode_w0
from gwalk.walk import WalkParams, pure_shear_angles, step

SQ2 = math.sqrt(2.0)
Q_ADMISSIBLE = admissible_q(1.97504, 64)  # 10*pi/16 on the default lattice


def numeric_delta_max(q):
    """Oracle for delta_max: max over u of |delta(q, u)| by 4096 samples of
    one period plus golden-section refinement around the best sample.
    The search runs over the phase t = u / period, so its tolerance stays
    above float resolution however long the period."""
    period = 4.0 * math.pi / q
    ts = np.arange(4096) / 4096
    i = int(np.argmax(np.abs(delta_formula(q, period * ts))))
    return _golden_max(lambda t: float(np.abs(delta_formula(q, period * t))),
                       ts[i] - 1 / 4096, ts[i] + 1 / 4096, 1e-10)[1]


def make_setup(xi=1e-4, q=Q_ADMISSIBLE, length=64):
    return InterferenceSetup(q=q, shape=(length, length), xi=xi, g0=1.0)


class TestSetup:
    def test_inadmissible_q_rejected_with_suggestion(self):
        with pytest.raises(ConfigurationError, match="admissible"):
            InterferenceSetup(q=1.97504, shape=(64, 64))

    def test_non_square_rejected(self):
        with pytest.raises(ConfigurationError, match="square"):
            InterferenceSetup(q=math.pi / 2, shape=(64, 32))

    def test_admissible_q_helper(self):
        q = admissible_q(1.97504, 64)
        assert q == pytest.approx(10 * math.pi / 16)
        assert abs(q - 1.97504) < 4 * math.pi / 64


class TestInitialSuperposition:
    def test_density_formula_pointwise(self):
        setup = make_setup()
        field = initial_superposition(setup)
        p = np.arange(64)
        u = p[:, None] - p[None, :]
        expected = initial_density_formula(setup.q, u)
        np.testing.assert_allclose(field.density(), expected, atol=1e-12)

    def test_density_at_zero_offset(self):
        assert initial_density_formula(0.8, 0) == pytest.approx(2 + SQ2)

    def test_polarizations_share_eigenvalue(self):
        q = Q_ADMISSIBLE
        wx = mode_w0(q, 0.0)
        wy = mode_w0(0.0, q)
        np.testing.assert_allclose(wx @ POLARIZATION_X,
                                   np.exp(-1j * q) * POLARIZATION_X, atol=1e-12)
        np.testing.assert_allclose(wy @ POLARIZATION_Y,
                                   np.exp(-1j * q) * POLARIZATION_Y, atol=1e-12)


class TestDeltaFormula:
    def test_zero_at_q_pi(self):
        for u in (0.0, 1.0, 3.7):
            assert delta_formula(math.pi, u) == pytest.approx(0.0, abs=1e-12)

    def test_direct_value(self):
        # q = pi/2, u = 2: N0 = 2, cos(0) = 1, sin^2 = 1
        assert delta_formula(math.pi / 2, 2.0) == pytest.approx(SQ2)

    def test_periodicity(self):
        q = 0.9
        period = 4 * math.pi / q
        us = np.linspace(0, period, 17)
        np.testing.assert_allclose(delta_formula(q, us),
                                   delta_formula(q, us + period), atol=1e-12)


class TestDeltaSimulated:
    def test_matches_formula_first_order(self):
        errs = []
        xis = (1e-3, 1e-4)
        for xi in xis:
            setup = make_setup(xi=xi)
            profile = delta_simulated(setup)
            expected = delta_formula(setup.q, profile.u)
            errs.append(np.abs(profile.delta - expected).max())
            assert errs[-1] < 5 * xi
        assert errs[1] < errs[0] / 5.0

    def test_free_walk_leaves_density(self):
        setup = make_setup()
        field0 = initial_superposition(setup)
        stepped = step(field0, 0, pure_shear_angles(0.0, 1.0), WalkParams())
        assert np.abs(stepped.density() - field0.density()).max() < 1e-12

    def test_diagonal_constancy_tolerance(self):
        profile = delta_simulated(make_setup(xi=1e-3), tolerance=1e-10)
        assert profile.delta.shape == (64,)

    def test_peak_magnitude_near_reference(self):
        setup = make_setup(xi=1e-4)
        profile = delta_simulated(setup)
        # the lattice realizes integer offsets 0..L-1; its peak matches the
        # formula there and is bounded by the continuous maximum
        lattice_ref = np.abs(delta_formula(setup.q, profile.u)).max()
        sim_peak = np.abs(profile.delta).max()
        assert sim_peak == pytest.approx(lattice_ref, abs=1e-3)
        assert sim_peak <= delta_max(setup.q) + 1e-3

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ConfigurationError):
            delta_simulated(make_setup(xi=0.0))


class TestDeltaMax:
    def test_local_minimum_at_half_pi(self):
        assert delta_max(math.pi / 2) == pytest.approx(2.0, abs=1e-9)

    def test_peak_value_and_location(self):
        q_peak, value = delta_max_peak()
        assert q_peak == pytest.approx(1.97504, abs=1e-3)
        assert value == pytest.approx(2.48161, abs=1e-3)
        assert delta_max(math.pi - q_peak) == pytest.approx(value, abs=1e-6)

    def test_peak_survives_snapping_to_lattice(self):
        # the nearest admissible q on a 64-lattice sits 0.012 from the peak;
        # the maximum response there is still the peak value to 1e-2
        assert delta_max(Q_ADMISSIBLE) == pytest.approx(2.48161, abs=1e-2)

    def test_golden_search_stops_when_floats_run_out(self):
        # near 1e7 float spacing (1.9e-9) exceeds tol, so the bracket stops
        # shrinking before it is tol wide
        calls = []

        def fn(x):
            calls.append(x)
            if len(calls) > 10_000:
                raise RuntimeError("golden-section search did not stop")
            return -(x - 1e7) ** 2

        x, value = _golden_max(fn, 1e7 - 1, 1e7 + 1, 1e-10)
        assert abs(x - 1e7) < 1e-8 and value == fn(x)

    def test_endpoints_vanish(self):
        assert delta_max(1e-4) < 1e-6
        assert delta_max(math.pi - 1e-4) < 1e-6
        assert delta_max(0.0) == 0.0

    @given(st.floats(0.0, math.pi, exclude_min=True, exclude_max=True))
    def test_matches_closed_form(self, q):
        assume(math.isfinite(4.0 * math.pi / q))  # the oracle samples one period
        assert abs(delta_max(q) - numeric_delta_max(q)) < 1e-12

    def test_reflection_symmetry(self):
        qs = np.linspace(0.02, math.pi / 2, 64)
        for q in qs:
            a = delta_max(float(q))
            b = delta_max(float(math.pi - q))
            assert abs(a - b) < 1e-10

    def test_integer_maximum_does_not_exceed_continuous(self):
        for q in (0.5, 1.2, 1.97, 2.6):
            assert delta_max_integer(q) <= delta_max(q) + 1e-12

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            delta_max(3.5)


class TestFigureTables:
    def test_emits_all_figures(self, tmp_path):
        paths = figure_tables(tmp_path, resolution=32, lattice=8,
                              sweep_resolution=16)
        assert set(paths) == {"fig1", "fig2", "fig3", "fig4"}
        for p in paths.values():
            assert p.exists()

    def test_fig4_columns_and_endpoint(self, tmp_path):
        paths = figure_tables(tmp_path, figures=("fig4",), sweep_resolution=64)
        lines = paths["fig4"].read_text().splitlines()
        assert lines[0] == "q,deltaM_continuous,deltaM_integer"
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 0.0, 0.0]
        assert len(lines) == 1 + 64

    def test_fig3_two_periods(self, tmp_path):
        q = math.pi / 2
        paths = figure_tables(tmp_path, figures=("fig3",), q_list=(q,))
        lines = paths["fig3"].read_text().splitlines()[1:]
        us = [float(line.split(",")[1]) for line in lines]
        assert max(us) < 2 * (4 * math.pi / q)
        assert max(us) > 1.9 * (4 * math.pi / q)

    def test_fig2_matches_formulas(self, tmp_path):
        paths = figure_tables(tmp_path, figures=("fig2",), lattice=4)
        lines = paths["fig2"].read_text().splitlines()
        assert lines[0] == "pX,pY,N0,delta"
        q_peak = delta_max_peak()[0]
        for line in lines[1:]:
            px, py, n0, dl = (float(v) for v in line.split(","))
            assert n0 == pytest.approx(
                float(initial_density_formula(q_peak, px - py)), abs=1e-12)
            assert dl == pytest.approx(
                float(delta_formula(q_peak, px - py)), abs=1e-12)
