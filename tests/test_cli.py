import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwalk import cli, continuum, geometry, walk
from gwalk.cli import main, parse_config, run
from gwalk.csvio import sha256_file
from gwalk.errors import ConfigurationError

from oracles import read_csv


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(None, {"experiment": "spectrum"})
        assert cfg.lattice == (64, 64)
        assert cfg.params.epsilon == 1.0
        assert cfg.params.mass == 0.0
        assert cfg.resolution == 512

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "spectrum", "epsilonn": 2})
        with pytest.raises(ConfigurationError, match="epsilonn"):
            parse_config(path)

    def test_unknown_nested_key_named(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "spectrum",
                                       "params": {"masss": 1}})
        with pytest.raises(ConfigurationError, match="masss"):
            parse_config(path)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError, match="experiment"):
            parse_config(None, {"experiment": "spectrummm"})

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="JSON"):
            parse_config(str(path))

    def test_odd_lattice_rejected(self):
        with pytest.raises(ConfigurationError, match="lattice"):
            parse_config(None, {"experiment": "spectrum", "lattice": [63, 64]})

    def test_sign_condition_propagates(self, tmp_path):
        payload = {"experiment": "gw-angles",
                   "params": {"xi": -1e-3},
                   "gw": {"F": {"kind": "constant", "amplitude": 1.0},
                          "K": 0.0, "K_prime": 0.0}}
        with pytest.raises(ConfigurationError, match="K"):
            parse_config(write_config(tmp_path, payload))

    def test_flag_overrides_merge_params(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "spectrum",
                                       "params": {"epsilon": 0.5, "m": 0.1}})
        cfg = parse_config(path, {"params": {"xi": 0.25}})
        assert cfg.params.epsilon == 0.5
        assert cfg.params.mass == 0.1
        assert cfg.params.xi == 0.25


#: every config key set to a value other than its default
FULL_CONFIG = {"experiment": "spectrum", "lattice": [32, 16],
               "params": {"epsilon": 0.5, "m": 0.1, "xi": 1e-3},
               "gw": {"F": {"kind": "sine", "amplitude": 0.5, "omega": 0.2},
                      "G": {"kind": "constant", "amplitude": 0.7},
                      "K": 1, "K_prime": 1.5},
               "resolution": 16, "steps": 8, "threads": 2, "q": 1.5,
               "epsilons": [0.2, 0.1], "out_dir": "out"}


def schema_paths(schema, prefix=()):
    """Every key path of a config table."""
    for key, spec in schema.items():
        yield prefix + (key,)
        if isinstance(spec, dict):
            yield from schema_paths(spec, prefix + (key,))


#: every path of the config table, and the keys of FULL_CONFIG's waveforms
PATHS = [*schema_paths(cli._SCHEMA),
         ("gw", "F", "kind"), *schema_paths(cli._WAVEFORMS["sine"], ("gw", "F")),
         ("gw", "G", "kind"), *schema_paths(cli._WAVEFORMS["constant"], ("gw", "G"))]


SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.sampled_from([10 ** 400, -10 ** 400]) | st.text(max_size=8))
JSON_VALUES = SCALARS | st.recursive(
    SCALARS, lambda inner: (st.lists(inner, max_size=3)
                            | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6)


def parse_with(tmp_path_factory, base, path, value):
    """Parse ``base`` with ``value`` at ``path``; a config error is an answer."""
    payload = json.loads(json.dumps(base))
    target = payload
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    config = write_config(tmp_path_factory.mktemp("config"), payload)
    try:
        parse_config(config)
    except ConfigurationError:
        pass


@pytest.mark.parametrize("path", PATHS, ids=".".join)
@settings(max_examples=25)
@given(value=JSON_VALUES)
def test_any_json_value_at_any_key_is_a_config_or_a_config_error(
        tmp_path_factory, path, value):
    parse_with(tmp_path_factory, FULL_CONFIG, path, value)


#: the wave and walk paths, which a gw-angles config also evaluates over time
#: in the sign-condition loop; ``steps`` is left out, the loop runs steps + 2 times
WAVE_PATHS = [path for path in PATHS if path[0] in ("gw", "params")]


@pytest.mark.parametrize("path", WAVE_PATHS, ids=".".join)
@settings(max_examples=60)
@given(value=JSON_VALUES)
def test_any_json_value_on_a_gw_angles_base_is_a_config_or_a_config_error(
        tmp_path_factory, path, value):
    parse_with(tmp_path_factory, {**FULL_CONFIG, "experiment": "gw-angles"}, path, value)


def test_manifest_inputs_of_a_full_config(tmp_path):
    out = tmp_path / "out"
    assert run(parse_config(None, {**FULL_CONFIG, "out_dir": str(out)})) == 0
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert inputs == {
        "epsilons": [0.2, 0.1], "experiment": "spectrum",
        "gw": {"F": {"amplitude": 0.5, "kind": "sine", "omega": 0.2},
               "G": {"amplitude": 0.7, "kind": "constant"},
               "K": 1.0, "K_prime": 1.5},
        "lattice": [32, 16], "out_dir": str(out),
        "params": {"epsilon": 0.5, "m": 0.1, "xi": 0.001}, "q": 1.5,
        "resolution": 16, "steps": 8, "threads": 2}


class TestRuns:
    def test_rho_max_four_rows(self, tmp_path):
        cfg = parse_config(None, {"experiment": "rho-max",
                                  "resolution": 256,
                                  "out_dir": str(tmp_path / "out")})
        assert run(cfg) == 0
        header, rows = read_csv(tmp_path / "out" / "rho_maxima.csv")
        assert header == ["qX", "qY", "value"]
        assert len(rows) == 4
        for row in rows:
            assert row[2] == pytest.approx(4.69826, abs=1e-3)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["outputs"][0]["rows"] == 4

    def test_unaffected_modes_thirteen_rows(self, tmp_path):
        cfg = parse_config(None, {"experiment": "unaffected-modes",
                                  "out_dir": str(tmp_path / "out")})
        assert run(cfg) == 0
        _, rows = read_csv(tmp_path / "out" / "unaffected_modes.csv")
        assert len(rows) == 13

    def test_continuum_check_slope_in_manifest(self, tmp_path):
        cfg = parse_config(None, {"experiment": "continuum-check",
                                  "lattice": [32, 32],
                                  "epsilons": [0.2, 0.1, 0.05],
                                  "out_dir": str(tmp_path / "out")})
        assert run(cfg) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        for case in ("flat", "shear", "massive"):
            assert (tmp_path / "out" / f"continuum_{case}.csv").exists()
            assert 1.8 < manifest["metrics"][f"order_{case}"] < 2.2
        header, rows = read_csv(tmp_path / "out" / "continuum_flat.csv")
        assert header == ["epsilon", "residual"]
        assert len(rows) == 3

    def test_continuum_check_records_bandlimit_margins(self, tmp_path):
        payload = {"experiment": "continuum-check", "lattice": [32, 32],
                   "epsilons": [0.2, 0.1, 0.05], "params": {"m": 0.4},
                   "out_dir": str(tmp_path / "out")}
        manifests = []
        for _ in range(2):
            assert run(parse_config(None, payload)) == 0
            manifests.append((tmp_path / "out" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        metrics = json.loads(manifests[0])["metrics"]
        pol = np.array([0.6 + 0.2j, -0.3 + 0.7j])
        pol /= np.linalg.norm(pol)
        # flat and shear put the wave on modes n = 4, 2, 1; massive on n = 0
        for case, modes in (("flat", (4, 2, 1)), ("shear", (4, 2, 1)),
                            ("massive", (0,))):
            fields = [walk.SpinorField.plane_wave((32, 32), 2 * np.pi * n / 32,
                                                  2 * np.pi * n / 32, pol)
                      for n in modes]
            expected = max(continuum.bandlimit_fraction(f) for f in fields)
            assert metrics[f"bandlimit_{case}"] == expected
            assert 0.0 <= metrics[f"bandlimit_{case}"] < 1e-8

    def test_continuum_check_takes_each_bandlimit_once(self, tmp_path, monkeypatch):
        calls = []
        original = continuum.bandlimit_fraction

        def counted(field):
            calls.append(field)
            return original(field)

        monkeypatch.setattr(continuum, "bandlimit_fraction", counted)
        payload = {"experiment": "continuum-check", "lattice": [32, 32],
                   "epsilons": [0.2, 0.1, 0.05], "params": {"m": 0.4},
                   "out_dir": str(tmp_path / "out")}
        assert run(parse_config(None, payload)) == 0
        # three cases, one field per epsilon
        assert len(calls) == 3 * 3

    def test_interference_artifacts(self, tmp_path):
        cfg = parse_config(None, {"experiment": "interference",
                                  "lattice": [32, 32],
                                  "q": 1.97504,
                                  "out_dir": str(tmp_path / "out")})
        assert run(cfg) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        q_used = manifest["metrics"]["q_used"]
        assert q_used == pytest.approx(2.0 * math.pi * 10 / 32)
        _, grid = read_csv(tmp_path / "out" / "interference_grid.csv")
        assert len(grid) == 32 * 32
        _, prof = read_csv(tmp_path / "out" / "interference_profile.csv")
        assert len(prof) == 32

    @pytest.mark.parametrize("length", [256, 512])
    def test_interference_on_a_large_lattice_is_0(self, tmp_path, length):
        # the initial phases are reduced in integers, so their rounding does
        # not grow with the lattice past the diagonal check's floor
        payload = {"experiment": "interference", "lattice": [length, length],
                   "out_dir": str(tmp_path / "out")}
        assert main(["--config", write_config(tmp_path, payload)]) == 0
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_evolve_norm_conserved(self, tmp_path):
        cfg = parse_config(None, {"experiment": "evolve",
                                  "lattice": [16, 16], "steps": 5,
                                  "params": {"xi": 1e-3},
                                  "out_dir": str(tmp_path / "out")})
        assert run(cfg) == 0
        _, rows = read_csv(tmp_path / "out" / "evolve_norm.csv")
        assert len(rows) == 6
        for row in rows:
            assert row[1] == pytest.approx(1.0, abs=1e-12)

    def test_evolve_manifest_records_slice_margins(self, tmp_path):
        payload = {"experiment": "evolve", "lattice": [8, 8], "steps": 6,
                   "params": {"xi": 0.05, "m": 0.2, "epsilon": 0.5},
                   "gw": {"F": {"kind": "sine", "amplitude": 1.0, "omega": 1.3},
                          "G": {"kind": "sine", "amplitude": 0.7, "omega": 0.9},
                          "K": 1.5, "K_prime": 1.5}}
        cfg = parse_config(None, {**payload, "out_dir": str(tmp_path / "out")})
        manifests = []
        for _ in range(2):
            assert run(cfg) == 0
            manifests.append((tmp_path / "out" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        metrics = json.loads(manifests[0])["metrics"]
        provider = geometry.gw_angle_provider(cfg.gw, epsilon=cfg.params.epsilon)
        dets = []
        for j in range(cfg.steps + 1):
            c11, c12, c21, c22 = np.cos(geometry.gw_angles(cfg.gw, j * cfg.params.epsilon))
            dets.append(abs(c11 * c22 - c12 * c21))
        t_eps = [abs(walk.t_epsilon_field(provider, j, cfg.lattice, cfg.params))
                 for j in range(cfg.steps)]
        assert metrics["min_abs_det_c"] == pytest.approx(min(dets), rel=1e-12)
        assert metrics["max_abs_t_eps"] == pytest.approx(max(t_eps), rel=1e-12)
        assert metrics["max_abs_t_eps"] > 0.0

    def test_gw_angles_table(self, tmp_path):
        payload = {"experiment": "gw-angles", "steps": 4,
                   "params": {"xi": 1e-4, "epsilon": 0.5},
                   "gw": {"F": {"kind": "sine", "amplitude": 1.0, "omega": 2.0},
                          "G": {"kind": "sine", "amplitude": 0.5, "omega": 2.0},
                          "K": 1.0, "K_prime": 1.0},
                   "out_dir": str(tmp_path / "out")}
        cfg = parse_config(None, payload)
        assert run(cfg) == 0
        header, rows = read_csv(tmp_path / "out" / "gw_angles.csv")
        assert header == ["T", "theta11", "theta12", "theta21", "theta22"]
        assert len(rows) == 5
        assert rows[1][0] == pytest.approx(0.5)
        assert rows[0][2] == pytest.approx(math.pi / 2)  # G(0) = 0

    def test_deltam_sweep(self, tmp_path):
        cfg = parse_config(None, {"experiment": "deltam-sweep",
                                  "resolution": 64,
                                  "out_dir": str(tmp_path / "out")})
        assert run(cfg) == 0
        header, rows = read_csv(tmp_path / "out" / "deltam_sweep.csv")
        assert header == ["q", "deltaM_continuous", "deltaM_integer"]
        assert len(rows) == 64
        assert rows[0][1] == 0.0


class TestDeterminism:
    def test_single_thread_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            cfg = parse_config(None, {"experiment": "deltam-sweep",
                                      "resolution": 32,
                                      "out_dir": str(tmp_path / name)})
            run(cfg)
        fa = tmp_path / "a" / "deltam_sweep.csv"
        fb = tmp_path / "b" / "deltam_sweep.csv"
        assert fa.read_bytes() == fb.read_bytes()
        assert sha256_file(fa) == sha256_file(fb)

    def test_manifest_hashes_match_files(self, tmp_path):
        # every experiment, and spectrum at an even resolution (its grid
        # passes through the spill file) and an odd one
        configs = [{"experiment": "rho-max", "resolution": 256},
                   {"experiment": "spectrum", "resolution": 64},
                   {"experiment": "spectrum", "resolution": 63},
                   {"experiment": "unaffected-modes"},
                   {"experiment": "interference", "lattice": [16, 16]},
                   {"experiment": "deltam-sweep", "resolution": 16},
                   {"experiment": "continuum-check", "lattice": [16, 16],
                    "epsilons": [0.2, 0.1]},
                   {"experiment": "evolve", "lattice": [16, 16], "steps": 4},
                   {"experiment": "gw-angles", "steps": 4}]
        assert {c["experiment"] for c in configs} == set(cli.EXPERIMENTS)
        for i, config in enumerate(configs):
            out = tmp_path / str(i)
            assert run(parse_config(None, {**config, "out_dir": str(out)})) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
            assert sorted(e["path"] for e in manifest["outputs"]) == written
            for entry in manifest["outputs"]:
                data = (out / entry["path"]).read_bytes()
                assert hashlib.sha256(data).hexdigest() == entry["sha256"]


class TestMainExitCodes:
    def test_success(self, tmp_path):
        code = main(["--experiment", "rho-max", "--resolution", "256",
                     "--out", str(tmp_path / "out")])
        assert code == 0

    def test_config_error_is_2(self, tmp_path, capsys):
        code = main(["--experiment", "spectrum", "--config",
                     str(tmp_path / "missing.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [False, True])
    def test_out_naming_a_file_or_a_path_below_one_is_2_and_creates_nothing(
            self, tmp_path, capsys, below):
        path = tmp_path / "file"
        path.write_text("kept\n")
        out = path / "out" if below else path
        assert main(["--experiment", "unaffected-modes", "--out", str(out)]) == 2
        assert f"config error: out_dir {str(out)!r} cannot be made a directory" in (
            capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "kept\n"

    def test_q_too_large_to_snap_is_2_naming_q(self, tmp_path, capsys):
        # q * L / (4 pi) overflows to inf, which has no admissible neighbour
        code = main(["--experiment", "interference", "--q", "1e308",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error: q = 1e+308 " in capsys.readouterr().err

    def test_q_past_the_int64_range_is_0(self, tmp_path):
        # q * L / (4 pi) = 5e20 is finite; the phases reduce it mod L first
        assert main(["--experiment", "interference", "--q", "1e20",
                     "--out", str(tmp_path / "out")]) == 0

    def test_unknown_key_is_2(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": "spectrum", "epsilonn": 1}))
        assert main(["--config", str(path)]) == 2

    def test_threads_key_still_accepted_and_checked(self, tmp_path):
        payload = {"experiment": "spectrum", "resolution": 8,
                   "out_dir": str(tmp_path / "out")}
        assert main(["--config", write_config(tmp_path, {**payload, "threads": 1})]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["inputs"]["threads"] == 1
        assert main(["--config", write_config(tmp_path, {**payload, "threads": 0})]) == 2

    def test_numeric_failure_is_3_and_cleans_partial_outputs(self, tmp_path,
                                                             monkeypatch):
        import gwalk.cli as cli_mod

        def boom(cfg, out, artifacts, metrics):
            path = out / "partial.csv"
            path.write_text("q,value\n0,0\n")
            artifacts.append((path, 1))
            raise FloatingPointError("synthetic numeric failure")

        monkeypatch.setitem(cli_mod._RUNNERS, "spectrum", boom)
        code = main(["--experiment", "spectrum", "--out", str(tmp_path / "out")])
        assert code == 3
        assert not (tmp_path / "out" / "partial.csv").exists()
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_failed_rerun_leaves_earlier_csv_and_no_manifest(self, tmp_path,
                                                               monkeypatch):
        import gwalk.cli as cli_mod
        out = tmp_path / "out"
        assert main(["--experiment", "rho-max", "--resolution", "256",
                     "--out", str(out)]) == 0
        earlier = (out / "rho_maxima.csv").read_bytes()

        def second_row_unwritable(resolution):
            point = cli_mod.spectral.ModePoint(1.0, 2.0)
            return [(point, 4.7), (point, "not a number")]

        monkeypatch.setattr(cli_mod.spectral, "find_rho_maxima",
                            second_row_unwritable)
        assert main(["--experiment", "rho-max", "--resolution", "256",
                     "--out", str(out)]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["rho_maxima.csv"]
        assert (out / "rho_maxima.csv").read_bytes() == earlier

    def test_non_finite_wave_is_3_naming_time_and_site(self, tmp_path, capsys):
        # every config number is finite, but K - F overflows to +inf, so
        # theta11 is infinite from the first slice on
        payload = {"experiment": "evolve", "lattice": [8, 8], "steps": 4,
                   "params": {"xi": 0.03, "m": 0.1},
                   "gw": {"F": -1e308, "K": 1e308, "K_prime": 1e308},
                   "out_dir": str(tmp_path / "out")}
        assert main(["--config", write_config(tmp_path, payload)]) == 3
        assert "j=0, site (0, 0)" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_gw_angles_that_overflow_are_3_naming_the_time(self, tmp_path, capsys):
        # finite config numbers whose K - F overflows: theta11 is infinite
        payload = {"experiment": "gw-angles", "steps": 2,
                   "params": {"xi": 0.03, "epsilon": 0.5},
                   "gw": {"F": -1e308, "K": 1e308, "K_prime": 1e308},
                   "out_dir": str(tmp_path / "out")}
        assert main(["--config", write_config(tmp_path, payload)]) == 3
        assert "T=0 (j=0)" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("experiment", ["gw-angles", "evolve"])
    @pytest.mark.parametrize("key", ["F", "G"])
    def test_sine_phase_that_overflows_is_2_naming_the_wave_and_time(
            self, tmp_path, capsys, experiment, key):
        # omega is finite, but omega * T overflows to inf from T = 2 on
        payload = {"experiment": experiment, "lattice": [8, 8], "steps": 3,
                   "params": {"epsilon": 2},
                   "gw": {key: {"kind": "sine", "amplitude": 1, "omega": 1e308}},
                   "out_dir": str(tmp_path / "out")}
        assert main(["--config", write_config(tmp_path, payload)]) == 2
        err = capsys.readouterr().err
        assert f"gw.{key}: the phase omega*T overflows at T = 2 " in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", [
        ("params", "epsilon"), ("params", "m"), ("params", "xi"),
        ("gw", "F"), ("gw", "G", "amplitude"), ("gw", "G", "omega"),
        ("gw", "K"), ("gw", "K_prime"), ("q",), ("epsilons", 1), ("q_list", 1)],
        ids=lambda key: ".".join(map(str, key)))
    def test_non_finite_config_number_is_2(self, tmp_path, capsys, key, value):
        payload = {"experiment": "gw-angles", "steps": 3,
                   "params": {"xi": 1e-3, "epsilon": 0.5, "m": 0.1},
                   "gw": {"F": 0.5, "G": {"kind": "sine", "amplitude": 1.0,
                                          "omega": 0.3},
                          "K": 1.0, "K_prime": 1.0},
                   "q": 1.0, "epsilons": [0.2, 0.1],
                   "out_dir": str(tmp_path / "out")}
        message = "must be a finite number"
        if key[0] == "q_list":
            # q_list is no longer a config key: it is rejected by name
            payload["q_list"] = [1.0, 2.0]
            message = "unknown key 'q_list'"
        target = payload
        for part in key[:-1]:
            target = target[part]
        target[key[-1]] = value
        # json writes the non-finite floats as NaN, Infinity and -Infinity
        assert main(["--config", write_config(tmp_path, payload)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # GwParams and the providers check these numbers too; the config's own
    # check still answers first, naming the config key, with exit code 2
    @pytest.mark.parametrize("key", [
        ("params", "epsilon"), ("params", "xi"), ("gw", "F"), ("gw", "G"), ("gw", "K"),
        ("gw", "K_prime")], ids=lambda key: ".".join(key))
    def test_non_finite_wave_number_for_evolve_is_2_naming_the_key(self, tmp_path, capsys,
                                                                  key):
        payload = {"experiment": "evolve", "lattice": [8, 8], "steps": 2,
                   "gw": {"F": 0.5, "G": 0.5, "K": 1.0, "K_prime": 1.0},
                   "out_dir": str(tmp_path / "out")}
        payload.setdefault(key[0], {})[key[1]] = math.nan
        assert main(["--config", write_config(tmp_path, payload)]) == 2
        assert f"config error: {'.'.join(key)} must be a finite number, got nan" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("q_list", [1.0, 2.0]),
                                            ("figures", ["fig1"])],
                             ids=["q_list", "figures"])
    def test_deleted_key_is_2(self, tmp_path, capsys, key, value):
        payload = {"experiment": "spectrum", "resolution": 8, key: value,
                   "out_dir": str(tmp_path / "out")}
        assert main(["--config", write_config(tmp_path, payload)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case, key", [
        ({"epsilons": 3}, "epsilons"), ({"q_list": 5}, "q_list"),
        ({"figures": 5}, "figures"), ({"params": 5}, "params"),
        ({"gw": "x"}, "gw"), ({"out_dir": 5}, "out_dir"),
        ({"out_dir": ["a"]}, "out_dir"),
        ({"gw": {"F": {"kind": ["sine"]}}}, "gw.F"),
        ({"params": [["epsilon", 2]]}, "params"), ({"q": True}, "q"),
        ({"gw": {"F": True}}, "gw.F"), ({"resolution": True}, "resolution"),
        ({"q": 10 ** 400}, "q"), ({"params": {"m": -1}}, "params.m")],
        ids=["epsilons-number", "q_list-number", "figures-number",
             "params-number", "gw-string", "out_dir-number", "out_dir-list",
             "gw.F.kind-list", "params-pairs", "q-bool", "gw.F-bool",
             "resolution-bool", "q-past-float-range", "params.m-negative"])
    def test_malformed_config_is_2_naming_the_key(self, tmp_path, monkeypatch,
                                                  capsys, case, key):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("GWALK_OUT", raising=False)
        payload = {"experiment": "spectrum", "resolution": 8, **case}
        assert main(["--config", write_config(tmp_path, payload)]) == 2
        assert key in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("value", [[], "", {}], ids=["list", "string", "object"])
    def test_empty_epsilons_is_2_naming_the_key(self, tmp_path, capsys, value):
        # the library's figure_tables takes an empty q_list; a config's list
        # of epsilons must still hold at least one
        payload = {"experiment": "spectrum", "resolution": 8, "epsilons": value,
                   "out_dir": str(tmp_path / "out")}
        assert main(["--config", write_config(tmp_path, payload)]) == 2
        assert "epsilons must be a list of >= 1 numbers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case, message", [
        ({"epsilons": [0.1]}, "epsilons must hold >= 2 distinct values"),
        ({"epsilons": [0.1, 0.1]}, "epsilons must hold >= 2 distinct values"),
        ({"epsilons": [0.2, 0.15, 0.1]}, "epsilons must be integer multiples"),
        ({"epsilons": [0.1, 0.3, 0.25]}, "epsilons must be integer multiples"),
        ({"lattice": [64, 32]}, "lattice must be square"),
        ({"lattice": [32, 64]}, "lattice must be square")],
        ids=["one-epsilon", "one-distinct-epsilon", "not-multiples",
             "not-multiples-unsorted", "wide-lattice", "tall-lattice"])
    def test_continuum_check_it_cannot_honour_is_2_before_any_step(
            self, tmp_path, capsys, monkeypatch, case, message):
        steps = []
        monkeypatch.setattr(cli.continuum, "step", lambda *a: steps.append(a))
        payload = {"experiment": "continuum-check", "lattice": [16, 16],
                   "epsilons": [0.2, 0.1], **case, "out_dir": str(tmp_path / "out")}
        assert main(["--config", write_config(tmp_path, payload)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert steps == []
        assert not (tmp_path / "out").exists()

    def test_config_root_that_is_not_an_object_is_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('[{"experiment": "spectrum"}]')
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert "config error: config root must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_q_that_snaps_to_a_non_positive_value_is_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--experiment", "interference", "--q", "0.01", "--out", str(out)]) == 2
        assert ("config error: q = 0.01 snaps to a non-positive admissible value"
                in capsys.readouterr().err)
        assert list(out.iterdir()) == []

    def test_failed_manifest_write_leaves_no_manifest(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert main(["--experiment", "unaffected-modes", "--out", str(out)]) == 0

        def half_written(obj, fh, **kwargs):
            fh.write('{"experiment": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", half_written)
        assert main(["--experiment", "unaffected-modes", "--out", str(out)]) == 3
        assert list(out.iterdir()) == []

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GWALK_OUT", str(tmp_path / "envout"))
        code = main(["--experiment", "rho-max", "--resolution", "256"])
        assert code == 0
        assert (tmp_path / "envout" / "rho_maxima.csv").exists()

    def test_norm_drift_beyond_tolerance_is_3_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        # the default evolve run has space-uniform angles, so it steps in
        # Fourier space: leak norm through the per-mode apply
        import gwalk.walk as walk_mod
        exact_apply = walk_mod._mode_apply

        def leaky_apply(*args):
            out = exact_apply(*args)
            out *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(walk_mod, "_mode_apply", leaky_apply)
        code = main(["--experiment", "evolve", "--out", str(tmp_path / "out")])
        assert code == 3
        assert "norm drift" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []
