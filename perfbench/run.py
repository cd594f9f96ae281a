"""lipdisc benchmark.  Run from the checkout root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prepares the workload's inputs from the seed under .perfbench/, times
set-up in fresh processes, runs one measurement process (child.py) that
drives ``lipdisc.cli.main`` in-process for S seconds, checks every
command's output with the oracle and prints, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1
the per-layer ones.  The line before it records the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from oracle import Oracle

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROCESSES = 5  # fresh processes whose set-up times give the setup_s median
CHILD_GRACE_S = 150  # beyond --seconds, before a hung child is killed


def child_env() -> dict:
    """One single-threaded Python process; BLAS and OpenMP pools capped at
    the cores this process may use; lipdisc at its default parallelism."""
    env = dict(os.environ)
    env.pop("LIPDISC_THREADS", None)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def run_child(work: Path, mode: str, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(work), mode],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark {mode} process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer(passes: list[dict], names: list[str]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    derived = {
        "trace_overhead_s": traced_wall - statistics.median(p["wall_s"] for p in plain),
        # spans include the speed samples taken inside them
        "unattributed_s": statistics.median(
            p["elapsed_s"] - p["layers"]["top_level_s"] for p in traced
        ),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        else:  # a counter no traced call reached stays 0
            out[name] = statistics.median(p["layers"].get(name, 0) for p in traced)
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    golden_dir = Path("tests") / "golden"
    for need in (Path("src") / "lipdisc" / "__init__.py", golden_dir):
        if not need.exists():
            print(f"error: {need} not found; run from a lipdisc checkout", file=sys.stderr)
            return 2

    work = workloads.WORK_ROOT / f"{args.workload}-trace{args.trace}"  # replaced by each run
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands = workloads.prepare(args.workload, args.seed, work)
    specs = [str(work / "specs" / f"{s}.json") for s in workloads.SPECS[args.workload]]
    plan = {
        "specs": specs,
        "commands": [{"id": c.id, "argv": list(c.argv)} for c in commands],
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }
    (work / "plan.json").write_text(json.dumps(plan, indent=1))
    oracle = Oracle(args.workload, args.seed, workloads.DEFAULT_SEED, Path("perfbench"), golden_dir)

    setup = []
    if not args.trace:
        setup = [run_child(work, "setup", 60) for _ in range(SETUP_PROCESSES - 1)]
    result = run_child(work, "measure", args.seconds + CHILD_GRACE_S)
    setup.append(result)

    attempted = failed = 0
    problems = []
    for i, record in enumerate(result["passes"]):
        for cmd, res in zip(commands, record["results"]):
            attempted += 1
            found = oracle.check(cmd, res["exit"], res["error"],
                                 work / f"pass-{i}" / f"{cmd.id}.json",
                                 work / "specs" / f"{cmd.spec}.json")
            if found:
                failed += 1
                problems.append(f"pass {i} {cmd.id}: " + "; ".join(found[:3]))
        if i + 1 < len(result["passes"]):
            shutil.rmtree(work / f"pass-{i}")
    for line in problems[:20]:
        print(f"incorrect: {line}", file=sys.stderr)

    untraced = [p for p in result["passes"] if not p["traced"]]
    if args.trace:
        values = per_layer(result["passes"], [m["name"] for m in bench["per_layer"]])
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        values = {
            "wall_s": statistics.median(p["wall_ref_s"] for p in untraced),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(s["setup_ref_s"] for s in setup),
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    report = {
        "info": {**result["info"], "workload": args.workload, "seed": args.seed,
                 "passes": len(result["passes"]),
                 "pass_wall_s": [p["wall_s"] for p in untraced],
                 "pass_sample_s": [p["sample_s"] for p in untraced],
                 "pass_samples": [p["samples"] for p in untraced],
                 "setup_wall_s": [s["setup_s"] for s in setup],
                 "setup_sample_s": [s["setup_sample_s"] for s in setup],
                 "missing_spans": result["missing_spans"]},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (work / "report.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"info": report["info"]}))
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
