"""The benchmark's workloads: which specs each one loads and the CLI
commands of one pass, generated from the workload seed.

Every path here is relative to the checkout root, which is the working
directory of every benchmark process.  The rationale for each workload
is in README.md.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 42  # the CLI's default seed; references and goldens use it
BUNDLED = ("linear-2d", "pendulum", "cubic-scalar", "van-der-pol")
PROBE = "coupled-pendulum"
PROBE_GRID = 5  # 5^5 = 3125 grid points over D x U
PROBE_PAIRS = 200_000
TRAJECTORY_STEPS = 2000
TRAJECTORY_SPECS = (PROBE, "van-der-pol")
BENCH_DIR = Path("perfbench")
WORK_ROOT = Path(".perfbench")


@dataclass(frozen=True)
class Command:
    id: str  # names the --out file and the reference entry
    kind: str  # CLI subcommand
    spec: str  # spec name
    argv: tuple[str, ...]  # without --out


def spec_source(name: str) -> Path:
    if name == PROBE:
        return BENCH_DIR / "specs" / f"{name}.json"
    return Path("src") / "lipdisc" / "benchmarks" / f"{name}.json"


# workload -> the specs it loads (set-up) and runs commands on
SPECS = {
    "bundled-verify": BUNDLED,
    "probe-constants": (PROBE,),
    "probe-pairs": (PROBE,),
    "trajectory": BUNDLED + (PROBE,),
}


def prepare(workload: str, seed: int, work: Path) -> list[Command]:
    """Copy the specs into ``work``, write the seeded input files and
    return the commands of one pass."""
    (work / "specs").mkdir(parents=True, exist_ok=True)
    spec_path = {}
    for name in SPECS[workload]:
        spec_path[name] = work / "specs" / f"{name}.json"
        shutil.copyfile(spec_source(name), spec_path[name])
    seed_arg = ("--seed", str(seed))

    if workload == "bundled-verify":
        return [
            Command(f"verify-{name}-o{k}", "verify", name,
                    ("verify", str(spec_path[name]), "--order", str(k)) + seed_arg)
            for name in BUNDLED
            for k in (1, 2, 3)
        ]
    if workload == "probe-constants":
        return [
            Command(f"constants-{PROBE}", "constants", PROBE,
                    ("constants", str(spec_path[PROBE]), "--grid", str(PROBE_GRID)) + seed_arg)
        ]
    if workload == "probe-pairs":
        return [
            Command(f"verify-{PROBE}-o{k}", "verify", PROBE,
                    ("verify", str(spec_path[PROBE]), "--order", str(k), "--grid", "2",
                     "--pairs", str(PROBE_PAIRS)) + seed_arg)
            for k in (1, 2, 3)
        ]
    # trajectory: seeded x0 in the central half of D, seeded inputs in U
    rng = np.random.default_rng(seed)
    commands = []
    for name in TRAJECTORY_SPECS:
        spec = json.loads(spec_path[name].read_text())
        lower = np.asarray(spec["region"]["lower"], float)
        upper = np.asarray(spec["region"]["upper"], float)
        center, half = 0.5 * (lower + upper), 0.25 * (upper - lower)
        x0 = center - half + 2.0 * half * rng.random(lower.shape[0])
        ulow = np.asarray(spec["input_region"]["lower"], float)
        uhigh = np.asarray(spec["input_region"]["upper"], float)
        inputs = ulow + (uhigh - ulow) * rng.random((TRAJECTORY_STEPS, ulow.shape[0]))
        inputs_path = work / f"inputs-{name}.json"
        inputs_path.write_text(json.dumps(inputs.tolist()))
        commands.append(Command(
            f"discretize-{name}", "discretize", name,
            ("discretize", str(spec_path[name]), "--order", "3", "--exact",
             "--steps", str(TRAJECTORY_STEPS), "--inputs", str(inputs_path),
             "--x0=" + ",".join(repr(float(v)) for v in x0)) + seed_arg,  # x0 may start with "-"
        ))
    for name in BUNDLED + (PROBE,):
        commands.append(Command(f"convergence-{name}", "convergence", name,
                                ("convergence", str(spec_path[name])) + seed_arg))
    return commands
