"""gwalk benchmark: four workloads, end-to-end metrics, traced layer split.

Run from the repository root:

    python3 bench/run.py --workload evolve --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): evolve, evolve-field, spectrum, analysis.
The seed sets every free input; the same seed gives the same inputs.

A run repeats passes of the workload for about ``--seconds`` seconds, at
least two, and checks every output after each pass; every pass must
produce the same bytes as the first.  Between the first passes it times
set-up in fresh interpreters (``prepare.py``).  With ``--trace 1``
untraced and traced passes alternate, and the traced ones record spans
around calls into gwalk's modules (``tracing.py``).

The lines before the last give each metric with its unit and sample count,
the machine and the generated inputs.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics (setup_s,
wall_ref_s, peak_rss_mib), with ``--trace 1`` the per-layer ones.

``wall_ref_s`` is the median pass time with the host's speed divided out:
each pass's wall time is divided by the time of a fixed piece of reference
work (``reference_seconds``) measured just before and after it, and scaled
by REF_NOMINAL_S.  The raw ``wall_s`` is printed beside it.

A record of the run, with its spans when traced, is written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap  # thread pools and import path, before numpy

gwalk = bootstrap.load_gwalk()

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bootstrap import ROOT, THREAD_VARS  # noqa: E402

#: run records, configs and artifacts of the benchmark
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
MIN_PASSES = 2


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level.strip()}{kind.strip()[0].lower()}"] = size.strip()
    return caches


def _git_commit() -> str | None:
    """The checkout's commit, read from .git without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if head.startswith("ref: "):
        ref = _read(ROOT / ".git" / head[5:])
        if ref is not None:
            return ref.strip()
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + head[5:]):
                return line.split()[0]
        return None
    return head


def machine_record() -> dict:
    return {"gwalk": gwalk.__version__, "python": platform.python_version(),
            "numpy": np.__version__, "cores": os.cpu_count(),
            "cpu_model": _cpu_model(), "caches": _caches(),
            "commit": _git_commit(),
            "thread_env": {v: os.environ[v] for v in THREAD_VARS}}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _detail(values: list[float]) -> str:
    """Sample count and quartiles of ``values``."""
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


#: seconds the reference work is scaled to: ``wall_ref_s`` is a pass's time
#: on a host that runs one ``reference_seconds()`` in REF_NOMINAL_S
REF_NOMINAL_S = 0.3
_REF_FIELD = np.random.default_rng(0).standard_normal((2, 256, 256)) * (1 + 1j)
_REF_VALUES = np.linspace(0.0, 1.0, 40_000).tolist()


def reference_seconds() -> float:
    """Time one fixed piece of work that does not touch gwalk.

    It gives about equal time to the four kinds of work the workloads do: an
    interpreter loop, float formatting, and numpy arithmetic and
    transcendentals on a 256x256 two-component field.  The host's speed for
    such work drifts by tens of percent over minutes on a shared machine; a
    pass's time divided by the reference time measured around it cancels
    that drift and keeps what the program itself costs.
    """
    start = time.perf_counter()
    total = 0
    for i in range(1_200_000):
        total += i % 7
    "\n".join(f"{v:.17g},{v * 0.5:.17g}" for v in _REF_VALUES)
    field = _REF_FIELD
    for _ in range(200):
        field = field * 1.0001 + _REF_FIELD[:, ::-1]
    for _ in range(12):
        np.abs(np.roll(field, 1, axis=1) * np.exp(1j * _REF_FIELD.real)) ** 2
    return time.perf_counter() - start


def setup_sample(workload: str, seed: int, work: Path, digest: str) -> tuple[float, bool]:
    """Set-up time of one fresh interpreter, and whether it built the same inputs."""
    script = Path(__file__).resolve().parent / "prepare.py"
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--work", str(work / "prepare")],
        capture_output=True, text=True, timeout=120, check=True)
    ready, probe_digest = proc.stdout.split()
    return (int(ready) - start) / 1e9, probe_digest == digest


def run_passes(prep, work: Path, seconds: float, trace: bool, sample=None) -> list[dict]:
    """Repeat passes until the next one would end after ``seconds``.

    ``sample()``, if given, takes one set-up sample; the SETUP_SAMPLES
    samples are spread between the passes so that they see the same
    machine load as the passes do.
    """
    passes, reference = [], None
    began = time.perf_counter()
    ref_last = reference_seconds()
    while True:
        if sample and len(passes) < SETUP_SAMPLES:
            sample()
        traced = trace and len(passes) % 2 == 1
        gc.collect()
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracing.instrument(tracer)
        try:
            ops = workloads.run_pass(prep, work / "pass")
        finally:
            if tracer:
                tracer.restore()
        ref_before, ref_last = ref_last, reference_seconds()
        ref_s = (ref_before + ref_last) / 2
        errors, digests, rows = workloads.check_pass(prep, ops, reference)
        if reference is None:
            reference = digests
        passes.append({
            "traced": traced,
            "wall_s": sum(op.seconds for op in ops),
            "ref_s": ref_s,
            "ops": [{"name": op.name, "seconds": op.seconds, "errors": errors[op.name]}
                    for op in ops],
            "rows": rows,
            "spans": tracer.spans if tracer else None,
        })
        elapsed = time.perf_counter() - began
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    for _ in range(SETUP_SAMPLES - len(passes) if sample else 0):
        sample()
    return passes


def run_workload(args) -> dict:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    record = {"machine": machine_record(), "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    try:
        prep = workloads.prepare(args.workload, args.seed, work / "configs")
        digest = prep.digest()
        record["inputs"] = prep.record
        setup, mismatches = [], 0

        def sample():
            nonlocal mismatches
            seconds, same = setup_sample(args.workload, args.seed, work, digest)
            setup.append(seconds)
            mismatches += not same

        passes = run_passes(prep, work, args.seconds, bool(args.trace),
                            None if args.trace else sample)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops = [op for p in passes for op in p["ops"]]
    failed_ops = [op for op in ops if op["errors"]]
    attempted = len(ops) + len(setup)
    failed = len(failed_ops) + mismatches
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    lines, metrics = [], {}

    def line(name, value, unit, detail):
        lines.append(f"{args.workload:>12}  {name:<36} {value:>14.6g} {unit:<6} {detail}")

    def report(name, unit, values):
        """One result metric: the median of ``values``, with quartiles and count."""
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        line(name, metrics[name]["value"], unit, _detail(values))

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [tracing.layer_metrics(p["spans"]) for p in traced]
        traced_wall = [p["wall_s"] for p in traced]
        for name, unit in tracing.LAYER_UNITS.items():
            if name == "trace.wall_s":
                report(name, unit, traced_wall)
            elif name == "trace.overhead_s":
                base = statistics.median(untraced)
                report(name, unit, [w - base for w in traced_wall])
            elif name == "trace.spans":
                report(name, unit, [len(p["spans"]) for p in traced])
            else:
                report(name, unit, [m[name] for m in per_pass])
    else:
        report("setup_s", "s", setup)
        report("wall_ref_s", "s", [p["wall_s"] * REF_NOMINAL_S / p["ref_s"]
                                   for p in passes if not p["traced"]])
        report("peak_rss_mib", "MiB", [peak_rss_mib])
        # printed but kept out of the result line: the raw pass time and
        # reference time drift with the host's load, and the rest are 0 or
        # undefined on some workload, so none of them can carry a bound
        line("wall_s", statistics.median(untraced), "s", _detail(untraced))
        refs = [p["ref_s"] for p in passes]
        line("reference_s", statistics.median(refs), "s", _detail(refs))
        line("fail_ratio", failed / attempted, "1", f"n={attempted} failed={failed}")
        site_steps = workloads.site_steps(prep)
        if site_steps:
            rates = [site_steps / w for w in untraced]
            line("site_steps_per_s", statistics.median(rates), "1/s", f"n={len(rates)}")
        rows = [p["rows"] / p["wall_s"] for p in passes if p["rows"]]
        if rows:
            line("rows_per_s", statistics.median(rows), "1/s", f"n={len(rows)}")

    record.update(setup_s=setup, passes=[
        {**p, "spans": [vars(s) for s in p["spans"]] if p["spans"] else None}
        for p in passes], metrics=metrics)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))

    print(f"# gwalk benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# machine " + json.dumps(record["machine"], sort_keys=True))
    print("# inputs " + json.dumps(prep.record, sort_keys=True))
    for op in failed_ops:
        print("# FAILED " + "; ".join(op["errors"]))
    if mismatches:
        print(f"# FAILED setup: {mismatches} fresh interpreters built other inputs")
    for line in lines:
        print(line)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
