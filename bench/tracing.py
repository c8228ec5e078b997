"""In-memory span tracer and the per-layer metrics computed from its spans.

A span is recorded around each call into one of gwalk's public functions.
The tracer replaces each name where its caller looks it up: a module
global, a name another module bound with ``from ... import``, or a class
attribute, and puts the originals back when the pass ends.  Spans stay in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from gwalk import cli, continuum, csvio, geometry, interference, spectral, walk

#: experiments whose ``cli.run`` time is reported on its own
CLI_EXPERIMENTS = ("evolve", "spectrum", "interference", "deltam-sweep",
                   "rho-max", "unaffected-modes", "continuum-check")

#: bytes of one (2, L1, L2) complex128 field per site
_FIELD_BYTES_PER_SITE = 2 * 16


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one tracer per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span ``name``.

        ``attrs(args, result)``, if given, returns extra span fields of a
        call that returned; it runs after the span has ended.
        """
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[sid] = Span(sid, parent, name, start, time.perf_counter(), None)
                stack.pop()
            if attrs:
                spans[sid].attrs = attrs(args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _step_attrs(args, result):
    l1, l2 = args[0].shape
    return {"sites": l1 * l2}


def _file_bytes(index):
    return lambda args, result: {"bytes": os.path.getsize(args[index])}


def _csv_attrs(args, result):
    return {"bytes": os.path.getsize(args[0]), "rows": result}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    points = [
        (walk, "step", "walk.step", _step_attrs),
        (interference, "step", "walk.step", _step_attrs),
        (continuum, "step", "walk.step", _step_attrs),
        (walk, "evolve", "walk.evolve", None),
        (walk.AngleProvider, "fields", "walk.fields", None),
        (walk, "t_epsilon_field", "walk.t_epsilon_field", None),
        (continuum, "t_epsilon_field", "walk.t_epsilon_field", None),
        (geometry, "gw_angles", "geometry.gw_angles", None),
        (spectral, "rho", "spectral.rho", None),
        (spectral.SpectrumGrid, "to_csv", "spectral.SpectrumGrid.to_csv", _file_bytes(1)),
        (spectral, "find_rho_maxima", "spectral.find_rho_maxima", None),
        (spectral, "unaffected_modes", "spectral.unaffected_modes", None),
        (continuum, "continuum_residual", "continuum.continuum_residual", None),
        (continuum, "hamiltonian_apply", "continuum.hamiltonian_apply", None),
        (interference, "delta_max", "interference.delta_max", None),
        (interference, "delta_max_peak", "interference.delta_max_peak", None),
        (interference, "delta_max_integer", "interference.delta_max_integer", None),
        (interference, "delta_simulated", "interference.delta_simulated", None),
        (interference, "figure_tables", "interference.figure_tables", None),
        (csvio, "write_csv", "csvio.write_csv", _csv_attrs),
        (cli, "write_csv", "csvio.write_csv", _csv_attrs),
        (csvio, "sha256_file", "csvio.sha256_file", _file_bytes(0)),
        (cli, "sha256_file", "csvio.sha256_file", _file_bytes(0)),
        (cli, "parse_config", "cli.parse_config", None),
        (cli, "run", "cli.run", lambda args, result: {"experiment": args[0].experiment}),
    ]
    for owner, attr, name, attrs in points:
        tracer.wrap(owner, attr, name, attrs)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: name -> unit of every per-layer metric, in report order
LAYER_UNITS = {
    "walk.step.calls": "count", "walk.step.self_s": "s",
    "walk.step.ns_per_site": "ns", "walk.step.ms_p50": "ms",
    "walk.step.ms_p95": "ms", "walk.step.bytes_computed": "B",
    "walk.step.gbps_computed": "GB/s",
    "walk.fields.s": "s", "walk.t_epsilon_field.s": "s", "walk.evolve.s": "s",
    "geometry.gw_angles.calls": "count", "geometry.gw_angles.s": "s",
    "spectral.rho.calls": "count", "spectral.rho.s": "s",
    "spectral.SpectrumGrid.to_csv.s": "s", "spectral.SpectrumGrid.to_csv.bytes": "B",
    "spectral.find_rho_maxima.s": "s", "spectral.unaffected_modes.s": "s",
    "continuum.continuum_residual.calls": "count",
    "continuum.continuum_residual.s": "s", "continuum.hamiltonian_apply.s": "s",
    "interference.delta_max.calls": "count", "interference.delta_max.s": "s",
    "interference.delta_max_peak.s": "s", "interference.delta_max_integer.s": "s",
    "interference.delta_simulated.s": "s", "interference.figure_tables.s": "s",
    "csvio.write_csv.calls": "count", "csvio.write_csv.rows": "count",
    "csvio.write_csv.bytes": "B", "csvio.write_csv.s": "s",
    "csvio.sha256_file.bytes": "B", "csvio.sha256_file.s": "s",
    "cli.parse_config.s": "s",
    **{f"cli.run.{e}.s": "s" for e in CLI_EXPERIMENTS},
    "cli.run.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced pass (the ``trace.*`` ones excluded).

    A span's self time is its duration minus that of its direct children;
    calls of a layer do not overlap in this single-threaded process.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_s[s.parent] += s.seconds

    def total(name):
        return sum(s.seconds for s in by_name[name])

    def self_total(name):
        return sum(s.seconds - child_s[s.id] for s in by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name[name] if s.attrs)

    steps = by_name["walk.step"]
    step_self = self_total("walk.step")
    sites = attr_sum("walk.step", "sites")
    step_bytes = 2 * _FIELD_BYTES_PER_SITE * sites    # one read plus one write
    step_ms = [1e3 * s.seconds for s in steps] or [0.0]
    out = {
        "walk.step.calls": len(steps), "walk.step.self_s": step_self,
        "walk.step.ns_per_site": 1e9 * step_self / sites if sites else 0.0,
        "walk.step.ms_p50": float(np.percentile(step_ms, 50)),
        "walk.step.ms_p95": float(np.percentile(step_ms, 95)),
        "walk.step.bytes_computed": step_bytes / len(steps) if steps else 0.0,
        "walk.step.gbps_computed": step_bytes / step_self / 1e9 if step_self else 0.0,
        "geometry.gw_angles.calls": len(by_name["geometry.gw_angles"]),
        "spectral.rho.calls": len(by_name["spectral.rho"]),
        "spectral.SpectrumGrid.to_csv.bytes": attr_sum("spectral.SpectrumGrid.to_csv", "bytes"),
        "continuum.continuum_residual.calls": len(by_name["continuum.continuum_residual"]),
        "interference.delta_max.calls": len(by_name["interference.delta_max"]),
        "csvio.write_csv.calls": len(by_name["csvio.write_csv"]),
        "csvio.write_csv.rows": attr_sum("csvio.write_csv", "rows"),
        "csvio.write_csv.bytes": attr_sum("csvio.write_csv", "bytes"),
        "csvio.sha256_file.bytes": attr_sum("csvio.sha256_file", "bytes"),
        "cli.run.self_s": self_total("cli.run"),
    }
    for metric in LAYER_UNITS:
        if metric.endswith(".s") and not metric.startswith("cli.run."):
            out[metric] = total(metric[:-2])
    for experiment in CLI_EXPERIMENTS:
        out[f"cli.run.{experiment}.s"] = sum(
            s.seconds for s in by_name["cli.run"]
            if (s.attrs or {}).get("experiment") == experiment)
    return out
