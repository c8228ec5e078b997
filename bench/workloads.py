"""The benchmark's four workloads: seeded inputs, one timed pass, output checks.

Each workload is a closed loop in one single-threaded process: the next
operation starts when the previous one has returned.  An operation is one
CLI run (``gwalk.cli.main``) or one library call (``gwalk.walk.evolve``,
``gwalk.interference.figure_tables``) together with the checks on what it
produced.  gwalk receives only the inputs generated here from the seed.

evolve        CLI ``evolve``, 256x256, 200 steps; sine F and G, K, K' > 0 and
              mass > 0, so T_eps and the mass gate are not trivial.  Bound by
              the uniform-angle step.
evolve-field  ``walk.evolve`` on per-site angles from ``array_angles`` (a
              shear-plus-compression wave along p1), 256x256, 48 steps, from
              a random normalized spinor.  The step's per-site path.
spectrum      CLI ``spectrum`` at resolution 1024 (1,048,576 rows).  Bound by
              CSV formatting and hashing; never steps.
analysis      CLI interference, deltam-sweep, rho-max, unaffected-modes and
              continuum-check, then ``figure_tables`` fig2-fig4.  Bound by
              Python-level searches and small-lattice steps.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bootstrap import load_gwalk

load_gwalk()
from gwalk import cli, interference, walk  # noqa: E402

WORKLOADS = ("evolve", "evolve-field", "spectrum", "analysis")

EVOLVE_LATTICE = 256
EVOLVE_STEPS = 200
FIELD_LATTICE = 256
FIELD_STEPS = 48
SPECTRUM_RESOLUTION = 1024
FIGURES = ("fig2", "fig3", "fig4")

# reference values pinned by the acceptance suite
RHO_MAX = 4.69826
DELTA_M_PEAK = 2.48161
NORM_TOL = 1e-12
ORDER_RANGE = (1.8, 2.2)
UNAFFECTED_COUNT = 13


@dataclass
class Prepared:
    """A workload's inputs: a JSON record of every generated value, CLI
    config files by operation name, and the in-memory library inputs."""

    workload: str
    record: dict
    configs: dict[str, Path] = field(default_factory=dict)
    library: dict = field(default_factory=dict)

    def digest(self) -> str:
        """SHA-256 over the record and every input array."""
        h = hashlib.sha256(json.dumps(self.record, sort_keys=True).encode())
        for name in sorted(self.library):
            value = self.library[name]
            if isinstance(value, np.ndarray):
                h.update(value.tobytes())
        return h.hexdigest()


@dataclass
class Op:
    """One operation of a pass: its time and what it left to check."""

    name: str
    seconds: float
    code: int = 0
    out: Path | None = None
    result: object = None
    error: str | None = None


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, WORKLOADS.index(workload)])


def _uniform(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _wave(rng) -> dict:
    """Amplitudes, frequencies and offsets of a weak wave; K, K' exceed |F|
    so both compression angles stay real at every time."""
    amp_f = _uniform(rng, 0.5, 1.5)
    return {"xi": _uniform(rng, 0.01, 0.05), "mass": _uniform(rng, 0.05, 0.3),
            "amp_f": amp_f, "omega_f": _uniform(rng, 0.05, 0.3),
            "amp_g": _uniform(rng, 0.5, 1.5), "omega_g": _uniform(rng, 0.05, 0.3),
            "K": amp_f * (1.0 + _uniform(rng, 0.1, 0.5)),
            "K_prime": amp_f * (1.0 + _uniform(rng, 0.1, 0.5))}


def _cli_configs(workload: str, rng) -> dict[str, dict]:
    if workload == "evolve":
        w = _wave(rng)
        return {"evolve": {
            "experiment": "evolve", "lattice": [EVOLVE_LATTICE] * 2,
            "steps": EVOLVE_STEPS, "threads": 1,
            "params": {"epsilon": 1.0, "m": w["mass"], "xi": w["xi"]},
            "gw": {"F": {"kind": "sine", "amplitude": w["amp_f"], "omega": w["omega_f"]},
                   "G": {"kind": "sine", "amplitude": w["amp_g"], "omega": w["omega_g"]},
                   "K": w["K"], "K_prime": w["K_prime"]}}}
    if workload == "spectrum":
        return {"spectrum": {"experiment": "spectrum", "threads": 1,
                             "resolution": SPECTRUM_RESOLUTION}}
    if workload == "analysis":
        # an admissible q on the 64-site lattice, around the response peak
        n = int(rng.integers(6, 13))
        q = 4.0 * math.pi * n / 64
        return {
            "interference": {"experiment": "interference", "lattice": [64, 64],
                             "threads": 1, "q": q,
                             "params": {"xi": _uniform(rng, 1e-4, 1e-3)}},
            "deltam-sweep": {"experiment": "deltam-sweep", "threads": 1,
                             "resolution": 2048},
            "rho-max": {"experiment": "rho-max", "threads": 1, "resolution": 1024},
            "unaffected-modes": {"experiment": "unaffected-modes", "threads": 1},
            "continuum-check": {"experiment": "continuum-check", "threads": 1,
                                "lattice": [128, 128],
                                "epsilons": [0.2, 0.1, 0.05, 0.025],
                                "params": {"m": _uniform(rng, 0.3, 0.7),
                                           "xi": _uniform(rng, 5e-4, 2e-3)}},
        }
    return {}


def _field_inputs(rng) -> tuple[dict, dict]:
    """Per-site angle stacks of a wave travelling along p1, and the spinor."""
    w = _wave(rng)
    w.update(phase_f=_uniform(rng, 0.0, 2 * math.pi),
             phase_g=_uniform(rng, 0.0, 2 * math.pi),
             n_f=int(rng.integers(1, 5)), n_g=int(rng.integers(1, 5)))
    size, times = FIELD_LATTICE, FIELD_STEPS + 2
    t = np.arange(times, dtype=float)[:, None, None]
    p1 = np.arange(size, dtype=float)[None, :, None]
    kf, kg = 2 * math.pi * w["n_f"] / size, 2 * math.pi * w["n_g"] / size
    f = w["amp_f"] * np.sin(w["omega_f"] * t - kf * p1 + w["phase_f"])
    g = w["amp_g"] * np.sin(w["omega_g"] * t - kg * p1 + w["phase_g"])
    shape = (times, size, size)
    stacks = {
        "theta11": np.broadcast_to(np.sqrt(w["xi"] * (w["K"] - f)), shape).copy(),
        "theta12": np.broadcast_to(math.pi / 2 - w["xi"] * g, shape).copy(),
        "theta21": np.broadcast_to(math.pi / 2 - w["xi"] * g, shape).copy(),
        "theta22": np.broadcast_to(np.sqrt(w["xi"] * (f + w["K_prime"])), shape).copy(),
    }
    spinor = walk.SpinorField.random((size, size), rng)
    record = {"lattice": [size, size], "steps": FIELD_STEPS, "epsilon": 1.0, **w}
    return record, {**stacks, "spinor": spinor.data}


def prepare(workload: str, seed: int, work_dir: Path) -> Prepared:
    """Generate the workload's inputs from the seed and make them ready to run.

    CLI configs are written to ``work_dir`` and validated with
    ``cli.parse_config`` (which runs the wave's sign-condition loop);
    library inputs are built in memory.
    """
    rng = _rng(workload, seed)
    prep = Prepared(workload, {"workload": workload, "seed": seed})
    configs = _cli_configs(workload, rng)
    if configs:
        work_dir.mkdir(parents=True, exist_ok=True)
        prep.record["configs"] = configs
    for name, config in configs.items():
        path = work_dir / f"{name}.json"
        path.write_text(json.dumps(config, sort_keys=True))
        cli.parse_config(str(path))
        prep.configs[name] = path
    if workload == "evolve-field":
        record, arrays = _field_inputs(rng)
        prep.record["field"] = record
        prep.library.update(arrays)
        prep.library["provider"] = walk.array_angles(
            {(1, 1): arrays["theta11"], (1, 2): arrays["theta12"],
             (2, 1): arrays["theta21"], (2, 2): arrays["theta22"]})
        prep.library["params"] = walk.WalkParams(
            epsilon=1.0, mass=record["mass"], xi=record["xi"])
    return prep


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

def _timed_library(name: str, fn) -> Op:
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # a failed call is a failed operation
        return Op(name, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    return Op(name, time.perf_counter() - start, result=result)


def run_pass(prep: Prepared, out_dir: Path) -> list[Op]:
    """Run every operation of one pass, in order, into a fresh ``out_dir``."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    ops = []
    for name, config in prep.configs.items():
        out = out_dir / name
        start = time.perf_counter()
        code = cli.main(["--config", str(config), "--out", str(out)])
        ops.append(Op(name, time.perf_counter() - start, code=code, out=out))
    if prep.workload == "evolve-field":
        lib = prep.library
        field0 = walk.SpinorField(lib["spinor"])
        # looked up at call time so a traced pass sees the wrapped function
        ops.append(_timed_library("evolve", lambda: walk.evolve(
            field0, 0, FIELD_STEPS, lib["provider"], lib["params"])))
    if prep.workload == "analysis":
        out = out_dir / "figures"
        ops.append(_timed_library("figure_tables", lambda: interference.figure_tables(
            out, figures=FIGURES)))
        ops[-1].out = out
    return ops


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _dir_hashes(path: Path) -> dict[str, str]:
    return {p.name: _sha256(p) for p in sorted(path.iterdir()) if p.is_file()}


def _near(name: str, value, target: float, tol: float) -> list[str]:
    if not abs(float(value) - target) < tol:
        return [f"{name} = {value!r}, expected {target} within {tol:g}"]
    return []


def _rows(name: str, rows: dict, path: str, expected: int) -> list[str]:
    if rows.get(path) != expected:
        return [f"{name}: {path} has {rows.get(path)} rows, expected {expected}"]
    return []


def _expect_cli(name: str, metrics: dict, rows: dict, config: dict) -> list[str]:
    """Experiment-specific checks on a manifest's metrics and row counts."""
    if name == "evolve":
        n_sites = config["lattice"][0] * config["lattice"][1]
        errs = _rows(name, rows, "evolve_density.csv", n_sites)
        errs += _rows(name, rows, "evolve_norm.csv", config["steps"] + 1)
        if not metrics["norm_drift"] < NORM_TOL:
            errs.append(f"evolve: norm_drift {metrics['norm_drift']:.3e} >= {NORM_TOL:g}")
        return errs
    if name == "spectrum":
        return (_rows(name, rows, "rho.csv", config["resolution"] ** 2)
                + _near("rho_grid_max", metrics["rho_grid_max"], RHO_MAX, 1e-3))
    if name == "interference":
        q, xi = config["q"], config["params"]["xi"]
        # the one-step response approaches its closed form at first order in xi
        closed = float(np.abs(interference.delta_formula(q, np.arange(64))).max())
        return (_near("q_used", metrics["q_used"], q, 1e-12)
                + _near("max_abs_delta", metrics["max_abs_delta"], closed, 5 * xi))
    if name == "deltam-sweep":
        return (_rows(name, rows, "deltam_sweep.csv", config["resolution"])
                + _near("sweep_max", metrics["sweep_max"], DELTA_M_PEAK, 1e-5))
    if name == "rho-max":
        return _near("maxima_value_mean", metrics["maxima_value_mean"], RHO_MAX, 1e-5)
    if name == "unaffected-modes":
        if metrics["count"] != UNAFFECTED_COUNT:
            return [f"unaffected-modes: count {metrics['count']}, expected {UNAFFECTED_COUNT}"]
        return []
    if name == "continuum-check":
        lo, hi = ORDER_RANGE
        return [f"continuum-check: {key} = {value:.4f} outside [{lo}, {hi}]"
                for key, value in sorted(metrics.items())
                if key.startswith("order_") and not lo <= value <= hi]
    raise ValueError(f"no checks for {name!r}")


def _check_cli(op: Op, config: dict) -> tuple[list[str], object, int]:
    if op.code != 0:
        return [f"{op.name}: exit code {op.code}"], None, 0
    hashes = _dir_hashes(op.out)
    manifest = json.loads((op.out / "manifest.json").read_text())
    errs = [f"{op.name}: {e['path']} does not match its manifest SHA-256"
            for e in manifest["outputs"] if hashes.get(e["path"]) != e["sha256"]]
    rows = {e["path"]: e["rows"] for e in manifest["outputs"]}
    errs += _expect_cli(op.name, manifest["metrics"], rows, config)
    return errs, hashes, sum(rows.values())


def _fig4_peak(path: Path) -> float:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return max(float(row[1]) for row in reader)


def _check_library(op: Op, prep: Prepared) -> tuple[list[str], object]:
    if op.error is not None:
        return [f"{op.name}: {op.error}"], None
    if op.name == "evolve":
        drift = abs(op.result.norm() - 1.0)
        errs = [] if drift < NORM_TOL else [f"evolve: |norm - 1| = {drift:.3e}"]
        if np.array_equal(op.result.data, prep.library["spinor"]):
            errs.append("evolve: field unchanged after stepping")
        return errs, hashlib.sha256(op.result.data.tobytes()).hexdigest()
    if op.name == "figure_tables":
        if sorted(op.result) != sorted(FIGURES):
            return [f"figure_tables: wrote {sorted(op.result)}"], None
        errs = _near("fig4 peak", _fig4_peak(op.result["fig4"]), DELTA_M_PEAK, 1e-3)
        return errs, _dir_hashes(op.out)
    raise ValueError(f"no checks for {op.name!r}")


def check_pass(prep: Prepared, ops: list[Op],
               reference: dict | None) -> tuple[dict, dict, int]:
    """Check every operation of a pass.

    Returns the errors of each operation, the digest of its outputs, and
    the CSV rows the CLI runs committed.  When ``reference`` holds the
    digests of an earlier pass, every output must be byte-identical to it.
    """
    configs = prep.record.get("configs", {})
    errors, digests, rows = {}, {}, 0
    for op in ops:
        try:
            if op.name in prep.configs:
                errs, digest, op_rows = _check_cli(op, configs[op.name])
                rows += op_rows
            else:
                errs, digest = _check_library(op, prep)
        except Exception as exc:  # malformed output: the operation failed
            errs, digest = [f"{op.name}: cannot check outputs: {exc!r}"], None
        if reference is not None and digest != reference.get(op.name):
            errs.append(f"{op.name}: outputs differ from the first pass")
        errors[op.name], digests[op.name] = errs, digest
    return errors, digests, rows


def site_steps(prep: Prepared) -> int | None:
    """Lattice sites times steps of one pass, for workloads that only step."""
    if prep.workload == "evolve":
        return EVOLVE_LATTICE ** 2 * EVOLVE_STEPS
    if prep.workload == "evolve-field":
        return FIELD_LATTICE ** 2 * FIELD_STEPS
    return None
