"""Self-check of the benchmark: every per-layer count repeats exactly.

    python3 -m pytest perfbench/test_counts.py

Runs each workload's traced run twice at the same seed with a one-second
budget (one untraced and one traced pass) and requires every count
metric to agree, every per-layer metric of BENCHMARK.json to be
reported and every command to be correct.  Takes about a minute and a
half on a 2-core machine.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "B"}


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_counts_repeat_exactly(workload):
    first, second = traced_run(workload, 3), traced_run(workload, 3)
    for run in (first, second):
        assert run["correct"] and run["failed"] == 0
        assert set(run["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] in COUNT_UNITS]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
