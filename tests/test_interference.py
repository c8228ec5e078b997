import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gwalk import interference
from gwalk.cli import parse_config, run
from gwalk.csvio import sha256_file
from gwalk.errors import ConfigurationError, ConsistencyError
from gwalk.interference import (InterferenceSetup, admissible_q,
                                delta_formula, delta_max,
                                delta_max_integer, delta_max_peak, deltam_rows,
                                delta_simulated, figure_tables,
                                initial_density_formula,
                                initial_superposition, POLARIZATION_X,
                                POLARIZATION_Y)
from gwalk.walk import WalkParams, pure_shear_angles, step

from oracles import mode_w0_entries

SQ2 = math.sqrt(2.0)
Q_ADMISSIBLE = admissible_q(1.97504, 64)  # 10*pi/16 on the default lattice


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section search for a maximum of `fn` on [a, b], to width `tol`
    or until float spacing stops the bracket from shrinking."""
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol and a < c < d < b:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def searched_delta_max_peak():
    """Oracle for delta_max_peak: the best of a 2,047-point scan of
    (pi/2, pi), refined by golden-section search."""
    qs = np.linspace(math.pi / 2, math.pi, 2048, endpoint=False)[1:].tolist()
    i = int(np.argmax([delta_max(q) for q in qs]))
    h = qs[1] - qs[0]
    return _golden_max(delta_max, qs[i] - h, qs[i] + h, 1e-10)


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


def integer_delta_max(q):
    """Oracle for delta_max_integer: one q's offsets 0 .. ceil(4 pi / q)
    evaluated as one array, the body the function had before it took arrays."""
    if q == 0.0:
        return 0.0
    n = int(math.ceil(4.0 * math.pi / q)) + 1
    return float(np.abs(delta_formula(q, np.arange(n))).max())


#: q = 0, tiny q (periods of up to 12,567 offsets), q just below pi, the rest
Q_ENTRIES = (st.just(0.0) | st.floats(1e-3, 1e-2)
             | st.floats(math.pi - 1e-9, math.pi, exclude_max=True)
             | st.just(math.nextafter(math.pi, 0.0))
             | st.floats(1e-2, math.pi, exclude_max=True))


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

    @pytest.mark.parametrize("q", [math.inf, 1e308])
    def test_q_too_large_to_snap_is_a_config_error_naming_q(self, q):
        # q * L / (4 pi) overflows to inf, which has no nearest integer
        with pytest.raises(ConfigurationError, match=r"^q = "):
            InterferenceSetup(q=q)


    @pytest.mark.parametrize("shape", [(0, 0), (3, 3)])
    def test_shape_that_is_not_positive_and_even_names_shape(self, shape):
        # 4 pi / 3 is admissible on a 3 x 3 lattice; (0, 0) has no lattice
        with pytest.raises(ConfigurationError, match="shape"):
            InterferenceSetup(q=4 * math.pi / 3, shape=shape)


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
        wx = mode_w0_entries(q, 0.0)
        wy = mode_w0_entries(0.0, q)
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

    def test_first_inconsistent_diagonal_is_named(self, monkeypatch):
        # sites (5, 2) and (1, 10) lie on u = 3 and u = 55; the check names
        # the smaller u, and no diagonal before it
        exact_step = interference.step

        def perturbed_step(*args, **kwargs):
            field = exact_step(*args, **kwargs)
            field.data[0, 1, 10] *= 1.001
            field.data[0, 5, 2] *= 1.001
            return field

        monkeypatch.setattr(interference, "step", perturbed_step)
        with pytest.raises(ConsistencyError, match=r"not constant along diagonal u=3: "):
            delta_simulated(make_setup())


class TestDeltaMax:
    def test_local_minimum_at_half_pi(self):
        assert delta_max(math.pi / 2) == pytest.approx(2.0, abs=1e-9)

    def test_peak_value_and_location(self):
        q_peak, value = delta_max_peak()
        assert q_peak == pytest.approx(1.97504, abs=1e-3)
        assert value == pytest.approx(2.48161, abs=1e-3)
        assert delta_max(math.pi - q_peak) == pytest.approx(value, abs=1e-6)

    def test_peak_matches_the_searched_peak(self):
        q_peak, value = delta_max_peak()
        q_search, value_search = searched_delta_max_peak()
        assert abs(q_peak - q_search) < 1e-7
        assert abs(value - value_search) < 1e-14

    def test_peak_is_a_local_maximum(self):
        q_peak, value = delta_max_peak()
        assert value == delta_max(q_peak)
        assert value >= delta_max(q_peak - 1e-4) and value >= delta_max(q_peak + 1e-4)

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


class TestDeltaMaxInteger:
    @settings(max_examples=60, deadline=None)
    @given(qs=st.lists(Q_ENTRIES, max_size=10))
    @example(qs=np.linspace(0.0, math.pi, 64, endpoint=False).tolist())
    def test_array_equals_the_per_q_oracle_bit_for_bit(self, qs):
        expected = [integer_delta_max(q) for q in qs]
        got = delta_max_integer(np.array(qs))
        scalars = [delta_max_integer(q) for q in qs]
        assert got.tolist() == expected
        assert scalars == expected

    def test_scalar_gives_a_float(self):
        assert type(delta_max_integer(1.0)) is float
        assert type(delta_max_integer(np.float64(1.0))) is float
        assert delta_max_integer(0.0) == 0.0 and type(delta_max_integer(0.0)) is float

    def test_empty_array_gives_an_empty_array(self):
        got = delta_max_integer(np.array([]))
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    @pytest.mark.parametrize("bad", [-1e-300, -0.5, math.pi, 3.5, math.inf, -math.inf,
                                     math.nan])
    def test_any_bad_entry_raises(self, bad):
        with pytest.raises(ConfigurationError, match="pi"):
            delta_max_integer(bad)
        with pytest.raises(ConfigurationError, match="pi"):
            delta_max_integer(np.array([0.0, 1.0, bad, 2.0]))

    def test_a_period_past_float_integers_raises(self):
        for q in (1e-300, 5e-324):
            with pytest.raises(ConfigurationError, match="too small"):
                delta_max_integer(np.array([1.0, q]))

    def test_two_dimensional_input_raises(self):
        with pytest.raises(ConfigurationError, match="1-D"):
            delta_max_integer(np.ones((2, 2)))

    def test_peak_memory_does_not_grow_with_the_number_of_q(self):
        cap = 4096
        peaks = {}
        for n in (1024, 8192):
            qs = np.linspace(0.0, math.pi, n, endpoint=False)
            tracemalloc.start()
            try:
                delta_max_integer(qs)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # each q holds a few numbers, beyond a fixed allowance of 16 arrays
        # of cap floats; the 8192 q's 300,000 offsets at once would take
        # about 17 MB
        assert peaks[8192] < 16 * 8 * cap + 128 * 8192
        assert peaks[8192] - peaks[1024] < 128 * (8192 - 1024)

    def test_rows_pair_each_q_with_both_maxima(self):
        qs = [0.0, 0.5, 1.97, 3.0]
        assert deltam_rows(qs) == [(q, delta_max(q), integer_delta_max(q)) for q in qs]
        assert deltam_rows([]) == []


class TestSweepBytes:
    """Digests of the sweep tables as written before delta_max_integer took
    arrays; the array form must not move a bit of them."""

    def test_deltam_sweep_csv(self, tmp_path):
        config = {"experiment": "deltam-sweep", "resolution": 256, "out_dir": str(tmp_path)}
        assert run(parse_config(None, config)) == 0
        assert sha256_file(tmp_path / "deltam_sweep.csv") == (
            "cfb8d145cce07962117de951cf3d19700815509a96e4d4263434440b653640f3")

    def test_fig4_deltam_csv(self, tmp_path):
        paths = figure_tables(tmp_path, figures=("fig4",))
        assert sha256_file(paths["fig4"]) == (
            "a98f2400bea52e9a6fe67ae819dbf14fd60b24ba262d46c96225b129457af637")


class TestFigureTables:
    def test_emits_all_figures(self, tmp_path):
        paths = figure_tables(tmp_path, resolution=32, lattice=8,
                              sweep_resolution=16)
        assert set(paths) == {"fig1", "fig2", "fig3", "fig4"}
        for p in paths.values():
            assert p.exists()

    @pytest.mark.parametrize("resolution", [64, 63])
    def test_fig1_has_the_bytes_of_the_cli_spectrum(self, tmp_path, resolution):
        paths = figure_tables(tmp_path / "fig", figures=["fig1"], resolution=resolution)
        config = {"experiment": "spectrum", "resolution": resolution,
                  "out_dir": str(tmp_path / "cli")}
        assert run(parse_config(None, config)) == 0
        assert paths["fig1"].read_bytes() == (tmp_path / "cli" / "rho.csv").read_bytes()

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

    @pytest.mark.parametrize("kwargs, name", [
        ({"sweep_resolution": -1}, "sweep_resolution"),
        ({"sweep_resolution": 2.5}, "sweep_resolution"),
        ({"resolution": 0}, "resolution"),
        ({"resolution": 1}, "resolution"),
        ({"resolution": True}, "resolution"),
        ({"lattice": 0}, "lattice"),
        ({"lattice": -2}, "lattice"),
        ({"lattice": 5}, "lattice"),
        ({"q_list": (0.0,)}, "q_list"),
        ({"q_list": (1.0, -1.0)}, "q_list"),
        ({"q_list": (math.nan,)}, "q_list"),
        ({"q_list": (math.inf,)}, "q_list"),
        ({"q_list": ("1.0",)}, "q_list"),
        ({"q_list": (True,)}, "q_list"),
        ({"q_list": 1.0}, "q_list"),
        ({"figures": ("fig5",)}, "figures"),
        ({"figures": ("Fig4",)}, "figures"),
        ({"figures": ("fig1", None)}, "figures"),
        ({"figures": "fig4"}, "figures"),
        ({"figures": 4}, "figures"),
    ])
    def test_bad_sizes_raise_naming_the_argument(self, tmp_path, kwargs, name):
        with pytest.raises(ConfigurationError, match=name):
            figure_tables(tmp_path / "out", **kwargs)
        assert not (tmp_path / "out").exists()

    def test_numpy_lattice_and_array_q_list(self, tmp_path):
        qs = [math.pi / 3, math.pi / 2]
        listed = figure_tables(tmp_path / "list", figures=("fig2", "fig3"),
                               lattice=8, q_list=qs)
        arrays = figure_tables(tmp_path / "array", figures=("fig2", "fig3"),
                               lattice=np.int64(8), q_list=np.array(qs))
        for fig in ("fig2", "fig3"):
            assert arrays[fig].read_bytes() == listed[fig].read_bytes()

    def test_empty_q_list_is_an_empty_table(self, tmp_path):
        paths = figure_tables(tmp_path, figures=("fig3",), q_list=[])
        assert paths["fig3"].read_text() == "q,u,delta\n"

    def test_zero_sweep_resolution_is_an_empty_table(self, tmp_path):
        paths = figure_tables(tmp_path, figures=("fig4",), sweep_resolution=0)
        assert paths["fig4"].read_text() == "q,deltaM_continuous,deltaM_integer\n"
