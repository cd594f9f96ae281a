"""Regenerate the oracle's reference payloads at the reference seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's commands once through ``lipdisc.cli.main`` and
writes perfbench/reference/<workload>.json.  Run it only when a change
to lipdisc's outputs has been triaged as intended: the benchmark counts
every disagreement with these files as a failed command.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import workloads
from oracle import STRIDED

ROOT = Path(__file__).resolve().parent.parent
ROW_STRIDE = 20


def main(names) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from lipdisc.cli import main as cli_main

    for workload in names or workloads.SPECS:
        work = workloads.WORK_ROOT / f"reference-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        entries = {}
        for cmd in workloads.prepare(workload, workloads.DEFAULT_SEED, work):
            out = work / f"{cmd.id}.json"
            with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                code = cli_main(list(cmd.argv) + ["--out", str(out)])
            payload = json.loads(out.read_text())
            payload.pop("timestamp", None)
            payload["config"].pop("spec_path", None)
            entry = {"exit": code, "payload": payload}
            if cmd.kind == "discretize":
                entry["row_stride"] = ROW_STRIDE
                for key in STRIDED:
                    payload[key] = payload[key][::ROW_STRIDE]
            entries[cmd.id] = entry
            print(f"{workload} {cmd.id}: exit {code}")
        ref = {"seed": workloads.DEFAULT_SEED, "commands": entries}
        path = Path("perfbench") / "reference" / f"{workload}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n")
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
