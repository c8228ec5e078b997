"""Experiment runner: JSON config in, deterministic CSV artifacts out.

Every run writes its tables plus a ``manifest.json`` recording the resolved
configuration, each output file's SHA-256 hash and any fitted metrics.
Identical configs give byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import continuum, geometry, interference, spectral, walk
# sha256_file is kept as a cli global for bench/tracing.py, which wraps it
from .csvio import grid_rows, replacing, sha256_file, write_csv  # noqa: F401
from .errors import (ConfigurationError, ConsistencyError, WalkError, choice, even_pair,
                     finite, finite_list, integer, optional)

EXPERIMENTS = ("evolve", "spectrum", "rho-max", "unaffected-modes",
               "interference", "deltam-sweep", "continuum-check", "gw-angles")

OUT_DIR_ENV = "GWALK_OUT"

#: Largest norm drift |norm(end) - norm(start)| an evolve run may report.
#: The step is unitary, so more than roundoff means it is broken: the run
#: fails with exit code 3 and writes no outputs.
NORM_DRIFT_TOL = 1e-10


def _directory(value, name: str) -> str:
    """An output directory; null or empty takes $GWALK_OUT, else ``gwalk_out``."""
    if value is not None and not isinstance(value, str):
        raise ConfigurationError(f"{name} must be a path, got {value!r}")
    return value or os.environ.get(OUT_DIR_ENV) or "gwalk_out"


#: the keys of each waveform primitive besides ``kind``
_WAVEFORMS = {"constant": {"amplitude": (finite, 0.0)},
              "sine": {"amplitude": (finite, 0.0), "omega": (finite, 0.0)}}


def _wave(spec, name: str):
    """``GwParams``' form of a waveform: null is 0, else a number or ``_WAVEFORMS``."""
    if not isinstance(spec, dict):
        return 0.0 if spec is None else finite(spec, name)
    kind = choice(spec.get("kind"), f"{name}.kind", tuple(_WAVEFORMS))
    wave = _resolve(_WAVEFORMS[kind], {k: v for k, v in spec.items() if k != "kind"}, name)
    amp, omega = wave["amplitude"], wave.get("omega")
    if kind == "constant":
        return amp

    def sine(t):
        phase = omega * t
        if not math.isfinite(phase):
            raise ConfigurationError(
                f"{name}: the phase omega*T overflows at T = {t:g} (omega = {omega:g})")
        return amp * math.sin(phase)

    return sine


#: Every config key, once: its kind, its default and the kind's constraint.
#: A nested table is an object: any of its keys, and no other.  A waveform
#: has no kind here: it is kept as given, for the manifest, and
#: ``parse_config`` checks and builds it once, with ``_wave``.
_SCHEMA = {
    "experiment": (choice, None, EXPERIMENTS),
    "lattice": (even_pair, (64, 64)),
    "params": {"epsilon": (finite, 1.0, "positive"), "m": (finite, 0.0, "nonnegative"),
               "xi": (finite, 1e-4)},
    "gw": {"F": (None, {"kind": "constant", "amplitude": 0.0}),
           "G": (None, {"kind": "constant", "amplitude": 1.0}),
           "K": (finite, 0.0), "K_prime": (finite, 0.0)},
    "resolution": (integer, 512, 2),
    "steps": (integer, 16, 0),
    # accepted and recorded so older configs keep running; it has no effect
    "threads": (integer, 1, 1),
    "q": (optional, None, finite, "positive"),
    "epsilons": (finite_list, (0.2, 0.1, 0.05, 0.025), "positive"),
    "out_dir": (_directory, None),
}


def _resolve(schema: dict, raw, context: str) -> dict:
    """``raw`` checked against ``schema``, with every absent key's default."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{context} must be an object, got {raw!r}")
    for key in raw:
        if key not in schema:
            raise ConfigurationError(f"unknown key {key!r} in {context or 'config'}")
    resolved = {}
    for key, spec in schema.items():
        name = f"{context}.{key}" if context else key
        if isinstance(spec, dict):
            resolved[key] = _resolve(spec, raw.get(key, {}), name)
        else:
            kind, default, *constraint = spec
            value = raw.get(key, default)
            resolved[key] = value if kind is None else kind(value, name, *constraint)
    return resolved


@dataclass
class RunConfig:
    """A checked run; ``resolved`` holds every config value, for the manifest."""

    experiment: str
    lattice: tuple[int, int]
    params: walk.WalkParams
    gw: geometry.GwParams
    resolution: int
    out_dir: Path
    q: float | None
    steps: int
    epsilons: tuple[float, ...]
    resolved: dict


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Load, check and resolve a run configuration against ``_SCHEMA``.

    ``overrides`` holds flag values that take precedence over the file;
    unknown keys anywhere are rejected by name.
    """
    raw: dict = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigurationError(f"config file not found: {p}")
        try:
            raw = json.loads(p.read_text())
        except ValueError as exc:  # also an integer with too many digits to read
            raise ConfigurationError(f"config file {p} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError("config root must be a JSON object")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key] = {**raw[key], **value}
        else:
            raw[key] = value

    inputs = _resolve(_SCHEMA, raw, "")
    pars, wave = inputs["params"], inputs["gw"]
    params = walk.WalkParams(epsilon=pars["epsilon"], mass=pars["m"], xi=pars["xi"])
    gw = geometry.GwParams(xi=params.xi, f=_wave(wave["F"], "gw.F"),
                           g=_wave(wave["G"], "gw.G"), k=wave["K"], k_prime=wave["K_prime"])

    # angle-generating experiments must satisfy the sign conditions over the
    # whole simulated time range, including the one-slice lookahead
    if inputs["experiment"] in ("evolve", "gw-angles"):
        for j in range(inputs["steps"] + 2):
            geometry.gw_angles(gw, j * params.epsilon)

    # continuum-check fits its order to >= 2 epsilons, on a square lattice
    # that holds one physical wavelength at each of them
    if inputs["experiment"] == "continuum-check":
        eps, lattice = inputs["epsilons"], inputs["lattice"]
        if len(set(eps)) < 2:
            raise ConfigurationError(
                f"epsilons must hold >= 2 distinct values to fit the order, got {list(eps)}")
        if any(abs(round(e / min(eps)) - e / min(eps)) > 1e-9 for e in eps):
            raise ConfigurationError(
                "epsilons must be integer multiples of the smallest one "
                "so a fixed physical wavelength stays on the lattice")
        if lattice[0] != lattice[1]:
            raise ConfigurationError(
                f"lattice must be square for continuum-check, got {list(lattice)}")

    carried = {f.name: inputs[f.name] for f in fields(RunConfig) if f.name in inputs}
    return RunConfig(**{**carried, "params": params, "gw": gw,
                        "out_dir": Path(inputs["out_dir"]), "resolved": inputs})


# ---------------------------------------------------------------------------
# experiment implementations
# ---------------------------------------------------------------------------

def _record(artifacts: list, path: Path, write, *args) -> None:
    """Run ``write(path, *args, digest=...)``, a CSV writer that returns its
    row count, and record the path, the rows and the written bytes' SHA-256."""
    digest = hashlib.sha256()
    artifacts.append((path, write(path, *args, digest=digest), digest.hexdigest()))


def _run_spectrum(cfg: RunConfig, out: Path, artifacts: list, metrics: dict):
    grid = spectral.SpectrumGrid.sample(spectral.rho, cfg.resolution)
    path = out / "rho.csv"
    _record(artifacts, path, grid.to_csv)
    imax = np.unravel_index(int(np.argmax(grid.values)), grid.values.shape)
    metrics["rho_grid_max"] = float(grid.values[imax])
    metrics["rho_grid_argmax"] = [float(grid.qx[imax[0]]), float(grid.qy[imax[1]])]


def _run_rho_max(cfg: RunConfig, out: Path, artifacts: list, metrics: dict):
    maxima = spectral.find_rho_maxima(max(cfg.resolution, 256))
    path = out / "rho_maxima.csv"
    rows = [(pt.qX, pt.qY, v) for pt, v in maxima]
    _record(artifacts, path, write_csv, ["qX", "qY", "value"], rows)
    metrics["maxima_value_mean"] = float(np.mean([v for _, v in maxima]))


def _run_unaffected(cfg: RunConfig, out: Path, artifacts: list, metrics: dict):
    modes = spectral.unaffected_modes()
    path = out / "unaffected_modes.csv"
    rows = [(pt.qX, pt.qY, float(spectral.rho(pt.qX, pt.qY))) for pt in modes]
    _record(artifacts, path, write_csv, ["qX", "qY", "rho"], rows)
    metrics["count"] = len(modes)


def _run_interference(cfg: RunConfig, out: Path, artifacts: list, metrics: dict):
    q_requested = cfg.q if cfg.q is not None else interference.delta_max_peak()[0]
    q_used = interference.admissible_q(q_requested, cfg.lattice[0])
    if q_used <= 0:
        raise ConfigurationError(
            f"q = {q_requested:g} snaps to a non-positive admissible value")
    setup = interference.InterferenceSetup(q=q_used, shape=cfg.lattice,
                                           xi=cfg.params.xi, g0=cfg.gw.g_at(0.0))
    n0, delta_site, profile = interference.step_response(setup)
    grid_path = out / "interference_grid.csv"
    _record(artifacts, grid_path, write_csv, ["pX", "pY", "N0", "delta"],
            grid_rows(n0, delta_site))

    prof_path = out / "interference_profile.csv"
    rows = [(setup.q, u, d)
            for u, d in zip(profile.u.tolist(), profile.delta.tolist())]
    _record(artifacts, prof_path, write_csv, ["q", "u", "delta"], rows)
    metrics["q_requested"] = float(q_requested)
    metrics["q_used"] = float(q_used)
    metrics["max_abs_delta"] = float(np.abs(profile.delta).max())


def _run_deltam_sweep(cfg: RunConfig, out: Path, artifacts: list, metrics: dict):
    rows = interference.deltam_rows(
        np.linspace(0.0, math.pi, cfg.resolution, endpoint=False))
    path = out / "deltam_sweep.csv"
    _record(artifacts, path, write_csv, ["q", "deltaM_continuous", "deltaM_integer"], rows)
    best = max(rows, key=lambda r: r[1])
    metrics["sweep_max"] = best[1]
    metrics["sweep_argmax"] = best[0]


def _continuum_case(case: str, cfg: RunConfig):
    """Provider, polarization and mode scaling for one convergence case."""
    if case == "flat":
        return walk.flat_angles(), 0.0, True
    if case == "shear":
        xi = cfg.params.xi if cfg.params.xi != 0.0 else 1e-3
        return walk.pure_shear_angles(xi, 1.0), 0.0, True
    if case == "massive":
        mass = cfg.params.mass if cfg.params.mass > 0.0 else 0.5
        return walk.flat_angles(), mass, False
    raise ConfigurationError(f"unknown continuum case {case!r}")


def _run_continuum_check(cfg: RunConfig, out: Path, artifacts: list, metrics: dict):
    length = cfg.lattice[0]
    eps_list = sorted(cfg.epsilons, reverse=True)
    pol = np.array([0.6 + 0.2j, -0.3 + 0.7j])
    pol /= np.linalg.norm(pol)
    for case in ("flat", "shear", "massive"):
        provider, mass, scale_mode = _continuum_case(case, cfg)
        rows = []
        bandlimit = 0.0
        for eps in eps_list:
            n = round(eps / eps_list[-1]) if scale_mode else 0
            k = 2 * np.pi * n / length
            f = walk.SpinorField.plane_wave((length, length), k, k, pol)
            params = walk.WalkParams(epsilon=eps, mass=mass, xi=cfg.params.xi)
            fraction = continuum.bandlimit_fraction(f)
            bandlimit = max(bandlimit, fraction)
            rows.append((eps, continuum.continuum_residual(provider, params, f, 0,
                                                          bandlimit=fraction)))
        path = out / f"continuum_{case}.csv"
        _record(artifacts, path, write_csv, ["epsilon", "residual"], rows)
        x, y = (np.log([r[i] for r in rows]) for i in (0, 1))
        x -= x.mean()
        # the least-squares slope in closed form; np.polyfit's RankWarning
        # would pass PYTHONWARNINGS=error, since numpy sets its own filter
        metrics[f"order_{case}"] = float(x @ (y - y.mean()) / (x @ x))
        metrics[f"bandlimit_{case}"] = bandlimit


def _run_evolve(cfg: RunConfig, out: Path, artifacts: list, metrics: dict):
    provider = geometry.gw_angle_provider(cfg.gw, epsilon=cfg.params.epsilon)
    f0 = walk.SpinorField.delta(cfg.lattice, (cfg.lattice[0] // 2, cfg.lattice[1] // 2))
    run = walk._time_loop(f0, 0, cfg.steps, provider, cfg.params)
    norms = list(enumerate([f0.norm(), *run.norms]))
    errors = [abs(n - norms[0][1]) for _, n in norms]
    drift = errors[-1]
    if drift > NORM_DRIFT_TOL:
        raise ConsistencyError(
            f"norm drift {drift:.3e} after {cfg.steps} steps exceeds {NORM_DRIFT_TOL:g}")
    norm_path = out / "evolve_norm.csv"
    _record(artifacts, norm_path, write_csv, ["step", "norm"], norms)
    dens_path = out / "evolve_density.csv"
    _record(artifacts, dens_path, write_csv, ["pX", "pY", "density"],
            grid_rows(run.field.density()))
    metrics["final_norm"] = norms[-1][1]
    metrics["norm_drift"] = drift
    metrics["max_norm_error"] = max(errors)
    metrics["min_abs_det_c"] = run.min_abs_det_c
    metrics["max_abs_t_eps"] = run.max_abs_t_eps


def _run_gw_angles(cfg: RunConfig, out: Path, artifacts: list, metrics: dict):
    rows = []
    for j in range(cfg.steps + 1):
        t = j * cfg.params.epsilon
        angles = geometry.gw_angles(cfg.gw, t)
        if not all(map(math.isfinite, angles)):
            raise ConsistencyError(
                f"gw angles are not finite at T={t:g} (j={j}): {angles}")
        rows.append((t, *angles))
    path = out / "gw_angles.csv"
    _record(artifacts, path, write_csv, ["T", "theta11", "theta12", "theta21", "theta22"], rows)
    metrics["times"] = len(rows)


_RUNNERS = {
    "spectrum": _run_spectrum,
    "rho-max": _run_rho_max,
    "unaffected-modes": _run_unaffected,
    "interference": _run_interference,
    "deltam-sweep": _run_deltam_sweep,
    "continuum-check": _run_continuum_check,
    "evolve": _run_evolve,
    "gw-angles": _run_gw_angles,
}


def run(config: RunConfig) -> int:
    """Execute the configured experiment; removes its outputs on failure.

    An earlier run's manifest is deleted first and the new one is written
    last, whole or not at all, so a failed run never leaves one that
    disagrees with the files beside it.
    """
    out = config.out_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigurationError(f"out_dir {str(out)!r} cannot be made a directory: "
                                 f"{exc.strerror}") from exc
    (out / "manifest.json").unlink(missing_ok=True)
    artifacts: list[tuple[Path, int, str]] = []
    metrics: dict = {}
    try:
        _RUNNERS[config.experiment](config, out, artifacts, metrics)
        manifest = {
            "experiment": config.experiment,
            "inputs": config.resolved,
            "outputs": [{"path": Path(p).name, "sha256": sha256, "rows": rows}
                        for p, rows, sha256 in artifacts],
            "metrics": metrics,
        }
        with replacing(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except BaseException:
        for path, *_ in artifacts:
            try:
                Path(path).unlink()
            except OSError:
                pass
        raise
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwalk",
        description="Lattice walk experiments with weak-wave coin angles")
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--experiment", metavar="NAME", choices=EXPERIMENTS,
                        help="which experiment to run")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--resolution", metavar="N", type=int, help="grid resolution")
    parser.add_argument("--xi", metavar="X", type=float, help="perturbation amplitude")
    parser.add_argument("--q", metavar="Q", type=float, help="mode wavenumber")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    # parse_config skips None: an unset flag, or an empty --out, leaves the file's value
    overrides = {"experiment": args.experiment, "out_dir": args.out or None,
                 "resolution": args.resolution, "q": args.q,
                 "params": None if args.xi is None else {"xi": args.xi}}
    try:
        config = parse_config(args.config, overrides)
        return run(config)
    except ConfigurationError as exc:
        print(f"gwalk: config error: {exc}", file=sys.stderr)
        return 2
    except WalkError as exc:
        print(f"gwalk: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # numeric failures also map to 3
        print(f"gwalk: failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
