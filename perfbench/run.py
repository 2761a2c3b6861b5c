"""Benchmark of the concert pipeline: certificate, bound, pair ensemble, CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {discrete-wide,ring-lock,cli-defaults}
                             --seed N --seconds S --trace {0,1} [--smoke]

Each run builds its inputs from the seed, times whole units of work (one
pipeline pass, one locking comparison, or one CLI call) until the next unit
would overrun S seconds, checks every unit's output and prints, as its last
line, `{"correct", "attempted", "failed", "metrics"}`.  An operation is a pair
(discrete-wide), a ring run (ring-lock) or a CLI call (cli-defaults); a unit
that fails an output check counts all its operations as failed.

--trace 0 reports the end-to-end metrics, measured without tracing:

    setup_s           median wall time of fresh interpreters that import
                      concert and build the workload's inputs
    run_s             median wall time of one unit; for cli-defaults the sum
                      over the seven commands of each command's median
    pair_steps_per_s  pairs (ring: runs) times steps advanced, per second of
                      run_s; for cli-defaults summed over its simulate calls
    call_p50_s        median wall time of one call of the workload's entry
                      point: run_pair_ensemble, run_locking_comparison, or a
                      CLI process from start to exit
    peak_rss_mb       peak resident memory of the benchmark process, or for
                      cli-defaults the largest over the CLI processes

--trace 1 spends half the time untraced and half with every public concert
function wrapped (see tracing.py), and reports per-layer metrics of one unit
(timings: median over traced units; counts: first traced unit) plus
`trace.overhead_frac`.  The spans are written to .perfbench/trace/.

--smoke runs each workload at a tiny size, one unit per phase.

Every result is also written with its environment (commit, versions, thread
caps, seed) to .perfbench/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5

# one compute thread per process; numpy reads these when it is first imported
for _cap in THREAD_CAPS:
    os.environ[_cap] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("discrete-wide", "ring-lock", "cli-defaults"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith(("_s", ".s")):
        return "s"
    return "count"


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "concert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "commit": git_commit(),
            "source_sha256": digest.hexdigest(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "thread_caps": {cap: os.environ[cap] for cap in THREAD_CAPS},
            "platform": platform.platform()}


# Host speed on a shared machine drifts by tens of percent within minutes, and
# CPU time drifts with it.  Each unit is therefore timed next to a fixed kernel
# of interpreter, small-array numpy and generator-construction work that does
# not use concert, and every reported time is scaled by CAL_REF_S over the
# mean wall time of the kernel runs just before and just after the unit.
CAL_REF_S = 0.25


def calibrate() -> float:
    """Wall time of the fixed calibration kernel (about CAL_REF_S here)."""
    import numpy as np
    start = perf_counter()
    x = np.zeros((1024, 6))
    for _ in range(2000):
        x = x + 0.001 * (1.0 - (x * x).sum(axis=1, keepdims=True)) * x
    for i in range(3000):
        np.random.default_rng((7, i, 0)).standard_normal(60)
    total = 0
    for i in range(600000):
        total += i * i % 7
    return perf_counter() - start


@dataclass
class Record:
    """One timed unit: its key (command), raw wall time, the factor that
    turns its times into reference seconds, its outcome, and its per-layer
    summary when traced."""

    key: str
    wall: float
    scale: float
    outcome: object
    layers: dict | None = None

    @property
    def ref_wall(self) -> float:
        return self.wall * self.scale


def calibrated(run, count: int):
    """[(result, scale)] of `count` calls of run(), each timed between two
    calibration kernels."""
    out = []
    before = calibrate()
    for _ in range(count):
        result = run()
        after = calibrate()
        out.append((result, CAL_REF_S / ((before + after) / 2.0)))
        before = after
    return out


def measure(workload, seconds: float, warmup: int, tracer=None):
    """Warm up, then run blocks of the workload's min_units units until the
    next block would end past `seconds` (always at least one block)."""
    warm = [workload.unit(n)[1]() for n in range(warmup)]
    records: list[Record] = []
    start = perf_counter()
    before = calibrate()
    n = warmup
    while True:
        for _ in range(workload.min_units):
            key, fn = workload.unit(n)
            if tracer is not None:
                first = len(tracer)
                span = tracer.open(tracer.name_id("bench.unit"))
            begin = perf_counter()
            outcome = fn()
            wall = perf_counter() - begin
            layers = None
            if tracer is not None:
                tracer.close(span)
                layers = tracer.summarize(first, len(tracer))
            after = calibrate()
            records.append(Record(key, wall, CAL_REF_S / ((before + after) / 2.0),
                                  outcome, layers))
            before = after
            n += 1
        elapsed = perf_counter() - start
        if elapsed * (1.0 + workload.min_units / len(records)) > seconds:
            return warm, records


def per_key(records, value):
    """{key: [value(record), ...]} in first-seen order."""
    out: dict = {}
    for record in records:
        out.setdefault(record.key, []).append(value(record))
    return out


def run_seconds(records) -> float:
    """Reference seconds of one unit, or for a workload of several commands,
    of one sweep: the sum over commands of each command's median."""
    return sum(statistics.median(walls)
               for walls in per_key(records, lambda r: r.ref_wall).values())


def end_to_end(records, probes) -> dict:
    run_s = run_seconds(records)
    pair_steps = sum(steps[0] for steps in
                     per_key(records, lambda r: r.outcome.pair_steps).values())
    return {
        "setup_s": statistics.median(child.wall * scale for child, scale in probes),
        "run_s": run_s,
        "pair_steps_per_s": pair_steps / run_s,
        "call_p50_s": statistics.median(r.outcome.call_wall * r.scale for r in records),
        "peak_rss_mb": max(r.outcome.peak_rss_kb for r in records) / 1024.0,
    }


def per_layer(plain, traced, setup_layers, probes):
    """Per-layer metrics of one unit, and whether every count repeated
    exactly across the traced units."""
    from tracing import parse_importtime
    totals = {metric: value * (traced[0].scale if unit_of(metric) == "s" else 1.0)
              for metric, value in setup_layers.items()}
    counts_repeat = True
    for group in per_key(traced, lambda r: r).values():
        for metric in group[0].layers:
            if unit_of(metric) == "s":
                value = statistics.median(r.layers[metric] * r.scale for r in group)
            else:
                value = group[0].layers[metric]
                counts_repeat &= all(r.layers[metric] == value for r in group)
            totals[metric] = totals.get(metric, 0.0) + value
    cli = [r for r in traced if r.outcome.imports]
    totals["cli.import_s"] = statistics.median(
        r.outcome.imports["import_s"] * r.scale for r in cli) if cli else 0.0
    totals["cli.call_compute_s"] = statistics.median(
        (r.outcome.call_wall - r.outcome.imports["import_s"]) * r.scale
        for r in cli) if cli else 0.0
    totals["certify.scipy_import_s"] = statistics.median(
        parse_importtime(child.stderr)["scipy_import_s"] * scale for child, scale in probes)
    totals["trace.overhead_frac"] = run_seconds(traced) / run_seconds(plain) - 1.0
    return totals, counts_repeat


def bench(args, ctx) -> dict:
    from tracing import Tracer, install
    from workloads import WORKLOADS, run_child
    cls = WORKLOADS[args.workload]
    seconds = 0.0 if args.smoke else args.seconds
    probe_argv = [ctx.python, *(["-X", "importtime"] if args.trace else []),
                  str(Path(__file__).resolve()),
                  "--setup-probe", "--workload", args.workload, "--seed", str(args.seed),
                  *(["--smoke"] if args.smoke else [])]
    probes = calibrated(lambda: run_child(probe_argv, ctx, "probe"),
                        1 if args.smoke else SETUP_PROBES)
    for child, _ in probes:
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.strip()[-500:]}")

    warm, plain = measure(cls(args.seed, args.smoke, ctx),
                          seconds / 2 if args.trace else seconds, cls.warmup)
    result = {"units": [{"key": r.key, "wall": r.wall, "scale": r.scale} for r in plain],
              "setup": [{"wall": child.wall, "scale": scale} for child, scale in probes]}
    if not args.trace:
        metrics = end_to_end(plain, probes)
        outcomes = [*warm, *(r.outcome for r in plain)]
    else:
        tracer = Tracer()
        install(tracer)
        with tracer.span("bench.setup") as first:
            workload = cls(args.seed, args.smoke, ctx, tracer)
        setup_layers = tracer.summarize(first, len(tracer))
        _, traced = measure(workload, seconds / 2, 0, tracer)
        metrics, result["counts_repeat"] = per_layer(plain, traced, setup_layers, probes)
        result["traced_units"] = [{"key": r.key, "wall": r.wall, "scale": r.scale}
                                  for r in traced]
        outcomes = [*warm, *(r.outcome for r in plain), *(r.outcome for r in traced)]
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / "trace" / f"{args.workload}-seed{args.seed}.json")
    problems = [p for o in outcomes for p in o.problems]
    result.update(correct=not problems, problems=problems,
                  attempted=sum(o.attempted for o in outcomes),
                  failed=sum(o.failed for o in outcomes),
                  metrics={name: {"value": value, "unit": unit_of(name)}
                           for name, value in sorted(metrics.items())})
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "concert" / "__init__.py").is_file():
        print(f"error: no concert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import concert
    if Path(concert.__file__).resolve().parent != SRC / "concert":
        print(f"error: imported concert from {concert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Context

    env = dict(os.environ, PYTHONPATH=str(SRC))
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, args.smoke, Context(Path.cwd(), env, sys.executable))
        return 0

    # the calibration kernel measures the speed of the core it runs on, so the
    # benchmark and every process it starts share one core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = bench(args, Context(workdir, env, sys.executable))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["env"] = environment(args)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(OUT / "results" / f"{name}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
