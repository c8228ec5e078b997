"""Experiment runner: JSON config in, deterministic CSV artifacts out.

Every run writes its tables plus a ``manifest.json`` recording the resolved
configuration, each output file's SHA-256 hash and any fitted metrics.
Identical configs give byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import continuum, geometry, interference, spectral, walk
from .csvio import grid_rows, sha256_file, write_csv
from .errors import ConfigurationError, ConsistencyError, WalkError

EXPERIMENTS = ("evolve", "spectrum", "rho-max", "unaffected-modes",
               "interference", "deltam-sweep", "continuum-check", "gw-angles")

OUT_DIR_ENV = "GWALK_OUT"

#: Largest norm drift |norm(end) - norm(start)| an evolve run may report.
#: The step is unitary, so more than roundoff means it is broken: the run
#: fails with exit code 3 and writes no outputs.
NORM_DRIFT_TOL = 1e-10

_TOP_KEYS = {"experiment", "lattice", "params", "gw", "resolution", "out_dir",
             "threads", "q", "steps", "epsilons", "q_list", "figures"}
_PARAM_KEYS = {"epsilon", "m", "xi"}
_GW_KEYS = {"F", "G", "K", "K_prime"}
_WAVEFORM_KEYS = {"constant": {"kind", "amplitude"},
                  "sine": {"kind", "amplitude", "omega"}}

_DEFAULT_EPSILONS = (0.2, 0.1, 0.05, 0.025)


@dataclass
class RunConfig:
    experiment: str
    lattice: tuple[int, int] = (64, 64)
    params: walk.WalkParams = field(default_factory=walk.WalkParams)
    gw: geometry.GwParams = field(default_factory=lambda: geometry.GwParams(xi=1e-4, g=1.0))
    resolution: int = 512
    out_dir: Path = Path("gwalk_out")
    q: float | None = None
    steps: int = 16
    epsilons: tuple[float, ...] = _DEFAULT_EPSILONS
    q_list: tuple[float, ...] | None = None
    figures: tuple[str, ...] = ("fig1", "fig2", "fig3", "fig4")
    resolved: dict = field(default_factory=dict)


def _reject_unknown(mapping: dict, allowed: set, context: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigurationError(f"unknown key {key!r} in {context}")


def _waveform(spec, context: str):
    """Turn a waveform spec into a callable of time."""
    if spec is None:
        return lambda t: 0.0
    if isinstance(spec, (int, float)):
        amp = float(spec)
        return lambda t: amp
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{context} must be a number or an object")
    kind = spec.get("kind")
    if kind not in _WAVEFORM_KEYS:
        raise ConfigurationError(
            f"unknown waveform kind {kind!r} in {context}; use 'constant' or 'sine'")
    _reject_unknown(spec, _WAVEFORM_KEYS[kind], context)
    amp = float(spec.get("amplitude", 0.0))
    if kind == "constant":
        return lambda t: amp
    omega = float(spec.get("omega", 0.0))
    return lambda t: amp * math.sin(omega * t)


def _as_positive_int(value, name: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Load, validate and resolve a run configuration.

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
        except json.JSONDecodeError as exc:
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

    _reject_unknown(raw, _TOP_KEYS, "config")

    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {experiment!r}; choose one of {', '.join(EXPERIMENTS)}")

    lattice = raw.get("lattice", [64, 64])
    if (not isinstance(lattice, (list, tuple)) or len(lattice) != 2
            or not all(isinstance(v, int) and v > 0 and v % 2 == 0 for v in lattice)):
        raise ConfigurationError(
            f"lattice must be two positive even integers, got {lattice!r}")
    lattice = (lattice[0], lattice[1])

    pars = dict(raw.get("params", {}))
    _reject_unknown(pars, _PARAM_KEYS, "params")
    params = walk.WalkParams(epsilon=float(pars.get("epsilon", 1.0)),
                             mass=float(pars.get("m", 0.0)),
                             xi=float(pars.get("xi", 1e-4)))

    gw_spec = dict(raw.get("gw", {}))
    _reject_unknown(gw_spec, _GW_KEYS, "gw")
    gw = geometry.GwParams(
        xi=params.xi,
        f=_waveform(gw_spec.get("F"), "gw.F"),
        g=_waveform(gw_spec.get("G", {"kind": "constant", "amplitude": 1.0}), "gw.G"),
        k=float(gw_spec.get("K", 0.0)),
        k_prime=float(gw_spec.get("K_prime", 0.0)))

    resolution = _as_positive_int(raw.get("resolution", 512), "resolution", 2)
    # accepted and recorded so existing configs keep running; it has no effect
    threads = _as_positive_int(raw.get("threads", 1), "threads", 1)
    steps = raw.get("steps", 16)
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 0:
        raise ConfigurationError(f"steps must be an integer >= 0, got {steps!r}")

    q = raw.get("q")
    if q is not None:
        q = float(q)
        if not (q > 0 and np.isfinite(q)):
            raise ConfigurationError(f"q must be positive and finite, got {q!r}")

    epsilons = tuple(float(e) for e in raw.get("epsilons", _DEFAULT_EPSILONS))
    if not epsilons or any(e <= 0 for e in epsilons):
        raise ConfigurationError(f"epsilons must be positive, got {epsilons!r}")

    q_list = raw.get("q_list")
    if q_list is not None:
        q_list = tuple(float(v) for v in q_list)
        if any(not 0.0 < v < math.pi for v in q_list):
            raise ConfigurationError("q_list entries must lie in (0, pi)")

    figures = tuple(raw.get("figures", ("fig1", "fig2", "fig3", "fig4")))
    if any(f not in ("fig1", "fig2", "fig3", "fig4") for f in figures):
        raise ConfigurationError(f"figures must be among fig1..fig4, got {figures!r}")

    out_dir = raw.get("out_dir") or os.environ.get(OUT_DIR_ENV) or "gwalk_out"

    config = RunConfig(experiment=experiment, lattice=lattice, params=params,
                       gw=gw, resolution=resolution, out_dir=Path(out_dir),
                       q=q, steps=steps, epsilons=epsilons,
                       q_list=q_list, figures=figures)

    # angle-generating experiments must satisfy the sign conditions over the
    # whole simulated time range, including the one-slice lookahead
    if experiment in ("evolve", "gw-angles"):
        for j in range(steps + 2):
            geometry.gw_angles(gw, j * params.epsilon)

    config.resolved = {
        "experiment": experiment,
        "lattice": list(lattice),
        "params": {"epsilon": params.epsilon, "m": params.mass, "xi": params.xi},
        "gw": {"F": gw_spec.get("F", {"kind": "constant", "amplitude": 0.0}),
               "G": gw_spec.get("G", {"kind": "constant", "amplitude": 1.0}),
               "K": gw.k, "K_prime": gw.k_prime},
        "resolution": resolution, "threads": threads, "steps": steps,
        "q": q, "epsilons": list(epsilons),
        "q_list": list(q_list) if q_list else None,
        "figures": list(figures), "out_dir": str(out_dir),
    }
    return config


# ---------------------------------------------------------------------------
# experiment implementations
# ---------------------------------------------------------------------------

def _run_spectrum(cfg: RunConfig, out: Path, artifacts: list, metrics: dict):
    grid = spectral.SpectrumGrid.sample(spectral.rho, cfg.resolution, "rho")
    path = out / "rho.csv"
    artifacts.append((path, grid.to_csv(path)))
    imax = np.unravel_index(int(np.argmax(grid.values)), grid.values.shape)
    metrics["rho_grid_max"] = float(grid.values[imax])
    metrics["rho_grid_argmax"] = [float(grid.qx[imax[0]]), float(grid.qy[imax[1]])]


def _run_rho_max(cfg: RunConfig, out: Path, artifacts: list, metrics: dict):
    maxima = spectral.find_rho_maxima(max(cfg.resolution, 256))
    path = out / "rho_maxima.csv"
    rows = [(pt.qX, pt.qY, v) for pt, v in maxima]
    artifacts.append((path, write_csv(path, ["qX", "qY", "value"], rows)))
    metrics["maxima_value_mean"] = float(np.mean([v for _, v in maxima]))


def _run_unaffected(cfg: RunConfig, out: Path, artifacts: list, metrics: dict):
    modes = spectral.unaffected_modes()
    path = out / "unaffected_modes.csv"
    rows = [(pt.qX, pt.qY, float(spectral.rho(pt.qX, pt.qY))) for pt in modes]
    artifacts.append((path, write_csv(path, ["qX", "qY", "rho"], rows)))
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
    artifacts.append((grid_path, write_csv(grid_path, ["pX", "pY", "N0", "delta"],
                                           grid_rows(n0, delta_site))))

    prof_path = out / "interference_profile.csv"
    rows = [(setup.q, u, d)
            for u, d in zip(profile.u.tolist(), profile.delta.tolist())]
    artifacts.append((prof_path, write_csv(prof_path, ["q", "u", "delta"], rows)))
    metrics["q_requested"] = float(q_requested)
    metrics["q_used"] = float(q_used)
    metrics["max_abs_delta"] = float(np.abs(profile.delta).max())


def _run_deltam_sweep(cfg: RunConfig, out: Path, artifacts: list, metrics: dict):
    qs = np.linspace(0.0, math.pi, cfg.resolution, endpoint=False).tolist()
    rows = [(q, interference.delta_max(q), interference.delta_max_integer(q))
            for q in qs]
    path = out / "deltam_sweep.csv"
    artifacts.append((path, write_csv(
        path, ["q", "deltaM_continuous", "deltaM_integer"], rows)))
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
    eps_min = eps_list[-1]
    pol = np.array([0.6 + 0.2j, -0.3 + 0.7j])
    pol /= np.linalg.norm(pol)
    for case in ("flat", "shear", "massive"):
        provider, mass, scale_mode = _continuum_case(case, cfg)
        rows = []
        for eps in eps_list:
            n = round(eps / eps_min) if scale_mode else 0
            if scale_mode and abs(n - eps / eps_min) > 1e-9:
                raise ConfigurationError(
                    "epsilons must be integer multiples of the smallest one "
                    "so a fixed physical wavelength stays on the lattice")
            k = 2 * np.pi * n / length
            f = walk.SpinorField.plane_wave((length, length), k, k, pol)
            params = walk.WalkParams(epsilon=eps, mass=mass, xi=cfg.params.xi)
            rows.append((eps, continuum.continuum_residual(provider, params, f, 0)))
        path = out / f"continuum_{case}.csv"
        artifacts.append((path, write_csv(path, ["epsilon", "residual"], rows)))
        logs = np.log([r[0] for r in rows]), np.log([r[1] for r in rows])
        metrics[f"order_{case}"] = float(np.polyfit(logs[0], logs[1], 1)[0])


def _run_evolve(cfg: RunConfig, out: Path, artifacts: list, metrics: dict):
    provider = geometry.gw_angle_provider(cfg.gw, epsilon=cfg.params.epsilon)
    f0 = walk.SpinorField.delta(cfg.lattice, (cfg.lattice[0] // 2, cfg.lattice[1] // 2))
    f, after = walk._time_loop(f0, 0, cfg.steps, provider, cfg.params)
    norms = list(enumerate([f0.norm(), *after]))
    errors = [abs(n - norms[0][1]) for _, n in norms]
    drift = errors[-1]
    if drift > NORM_DRIFT_TOL:
        raise ConsistencyError(
            f"norm drift {drift:.3e} after {cfg.steps} steps exceeds {NORM_DRIFT_TOL:g}")
    norm_path = out / "evolve_norm.csv"
    artifacts.append((norm_path, write_csv(norm_path, ["step", "norm"], norms)))
    dens_path = out / "evolve_density.csv"
    artifacts.append((dens_path, write_csv(dens_path, ["pX", "pY", "density"],
                                           grid_rows(f.density()))))
    metrics["final_norm"] = norms[-1][1]
    metrics["norm_drift"] = drift
    metrics["max_norm_error"] = max(errors)


def _run_gw_angles(cfg: RunConfig, out: Path, artifacts: list, metrics: dict):
    rows = []
    for j in range(cfg.steps + 1):
        t = j * cfg.params.epsilon
        t11, t12, t21, t22 = geometry.gw_angles(cfg.gw, t)
        rows.append((t, t11, t12, t21, t22))
    path = out / "gw_angles.csv"
    artifacts.append((path, write_csv(
        path, ["T", "theta11", "theta12", "theta21", "theta22"], rows)))
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
    """Execute the configured experiment; removes partial outputs on failure.

    An earlier run's manifest is deleted first, so a failed run never leaves
    one that disagrees with the files beside it.
    """
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    artifacts: list[tuple[Path, int]] = []
    metrics: dict = {}
    try:
        _RUNNERS[config.experiment](config, out, artifacts, metrics)
    except BaseException:
        for path, _ in artifacts:
            try:
                Path(path).unlink()
            except OSError:
                pass
        raise
    manifest = {
        "experiment": config.experiment,
        "inputs": config.resolved,
        "outputs": [{"path": Path(p).name, "sha256": sha256_file(p), "rows": rows}
                    for p, rows in artifacts],
        "metrics": metrics,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    overrides: dict = {}
    if args.experiment:
        overrides["experiment"] = args.experiment
    if args.out:
        overrides["out_dir"] = args.out
    if args.resolution is not None:
        overrides["resolution"] = args.resolution
    if args.q is not None:
        overrides["q"] = args.q
    if args.xi is not None:
        overrides["params"] = {"xi": args.xi}
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
