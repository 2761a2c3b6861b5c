"""Tests of the benchmark itself; each workload runs at its smoke size.

Run from the root of the checkout with `python3 -m pytest perfbench`.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import Tracer, parse_importtime

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# exact work counts of one smoke unit (tiny sizes fixed in workloads.py)
SMOKE_COUNTS = {
    "discrete-wide": {"simulate.derive_stream.calls": 2 * 4096,
                      "simulate.draw.values": 2 * 4096 * 60,
                      "simulate.pair_steps": 4096 * 60,
                      "bounds.bound_eval.calls": 61,
                      "certify.samples.calls": 2,
                      "cpg.ring_drift.calls": 0},
    "ring-lock": {"cpg.ring_drift.calls": 2 * 2000,
                  "cpg.run_steps": 2 * 20 * (2000 + 20 + 1),
                  "simulate.derive_stream.calls": 2 * 20,
                  "simulate.pair_steps": 0},
    "cli-defaults": {"simulate.pair_steps": 32 * (60 + 1000 + 200 + 2021 + 5051),
                     "certify.samples.calls": 1,
                     "simulate.failures": 0},
}


def run_bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_declared_metrics(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        for name, count in SMOKE_COUNTS[workload].items():
            assert values[name] == count, name
    else:
        assert all(v > 0 for v in values.values())


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("discrete-wide", 0, tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_children_and_nested_spans_count_once():
    tracer = Tracer()
    outer = tracer.open(tracer.name_id("simulate.run_pair_ensemble"))
    inner = tracer.open(tracer.name_id("simulate.derive_stream"))
    tracer.close(inner)
    again = tracer.open(tracer.name_id("simulate.run_pair_ensemble"))
    tracer.close(again)
    tracer.close(outer)
    tracer.start[:] = type(tracer.start)("d", [0.0, 1.0, 3.0])
    tracer.end[:] = type(tracer.end)("d", [10.0, 2.0, 7.0])
    layers = tracer.summarize(0, len(tracer))
    assert layers["simulate.run_pair_ensemble.s"] == 10.0
    assert layers["simulate.run_pair_ensemble.self_s"] == (10.0 - 1.0 - 4.0) + 4.0
    assert layers["simulate.derive_stream.calls"] == 1.0


def test_importtime_counts_scipy_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.special._ufuncs",
        "import time:       200 |        300 |     scipy.special",
        "import time:       400 |        400 |       scipy.special",
        "import time:       500 |       1000 |     scipy.stats",
        "import time:        50 |       1350 |   concert.certify",
        "import time:        10 |       1360 | concert",
        "import time:        40 |         40 | argparse",
    ])
    assert parse_importtime(stderr) == {"import_s": 1400e-6, "scipy_import_s": 1300e-6}
