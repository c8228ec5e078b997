import json
import math

import pytest

from gwalk.cli import main, parse_config, run
from gwalk.csvio import read_csv, sha256_file
from gwalk.errors import ConfigurationError


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
        cfg = parse_config(None, {"experiment": "rho-max", "resolution": 256,
                                  "out_dir": str(tmp_path / "out")})
        run(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        for entry in manifest["outputs"]:
            assert sha256_file(tmp_path / "out" / entry["path"]) == entry["sha256"]


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
