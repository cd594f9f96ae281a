"""One benchmark process.  Usage: child.py WORK_DIR {setup,measure}

Reads WORK_DIR/plan.json (written by run.py), imports lipdisc from the
checkout's src/ and loads the workload's specs, timing both as set-up.
In ``measure`` mode it then runs passes over the workload's commands
through ``lipdisc.cli.main`` in-process, each command writing its
--out file under WORK_DIR/pass-<i>/, until the next pass would overrun
the time budget; the spans of the last traced pass go to
WORK_DIR/spans.npz.  With tracing on, untraced and traced passes
alternate.  The last line of standard output is one JSON object.

The CPU speed of a shared machine drifts by up to 1.7x within seconds
(CPU time drifts with it, so it is not time taken by other processes).
Every timing therefore comes with the mean time of a short fixed loop,
``SpeedMeter.sample``, measured during it: every INTERVAL_S while the
commands run, and SETUP_SAMPLES times right after the set-up.  Each
timing is reported both as measured and rescaled by REF_SAMPLE_S / that
mean, i.e. to the speed at which one sample takes REF_SAMPLE_S.
"""

import json
import os
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

REF_SAMPLE_S = 0.0005  # SpeedMeter.sample() on the 2-core Xeon (KVM) machine it was tuned on
SETUP_SAMPLES = 40


class SpeedMeter:
    """Samples the machine's speed: ``sample`` times a short fixed mix of
    interpreter and small-matrix work, the kind lipdisc spends its time
    on.  Used as a context manager, a SIGALRM handler takes a sample
    every INTERVAL_S of wall time and adds its own time to ``spent``, so
    that it can be taken out of the timing it interrupts."""

    INTERVAL_S = 0.05

    def __init__(self):
        import numpy as np

        self.mat = np.random.default_rng(1).standard_normal((3, 3))
        self.samples: list[float] = []
        self.spent = 0.0
        self.sample()  # the first calls into numpy are slower
        signal.signal(signal.SIGALRM, self._tick)

    def sample(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(6000):
            acc += i * i
        v = self.mat[0]
        for _ in range(30):
            v = self.mat @ v
            v = v / (v @ v) ** 0.5
        return time.perf_counter() - t0

    def _tick(self, signum, frame):
        d = self.sample()
        self.samples.append(d)
        self.spent += d

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)


def run_pass(cli_main, commands, out_dir: Path, meter: SpeedMeter) -> dict:
    """Run every command once; returns the pass wall time with and
    without the speed samples, the mean sample time and each command's
    result."""
    results = []
    with meter:
        t = time.perf_counter()
        for cmd in commands:
            sink = StringIO()
            try:
                with redirect_stdout(sink), redirect_stderr(sink):
                    code = cli_main(cmd["argv"] + ["--out", str(out_dir / f"{cmd['id']}.json")])
                error = None
            except (Exception, SystemExit) as err:  # a command that raises counts as failed
                code, error = None, f"{type(err).__name__}: {err}"
            results.append({"id": cmd["id"], "exit": code, "error": error})
        elapsed = time.perf_counter() - t
    if not meter.samples:  # a pass shorter than INTERVAL_S
        meter.samples.append(meter.sample())
    wall, sample = elapsed - meter.spent, meter.mean()
    return {"wall_s": wall, "elapsed_s": elapsed, "sample_s": sample, "samples": len(meter.samples),
            "wall_ref_s": wall * REF_SAMPLE_S / sample, "results": results}


def machine_info() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fp if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "lipdisc_threads": os.environ.get("LIPDISC_THREADS"),
    }


def main() -> int:
    work, mode = Path(sys.argv[1]), sys.argv[2]
    plan = json.loads((work / "plan.json").read_text())
    src = Path("src").resolve()
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import lipdisc
    from lipdisc.cli import load_system
    from lipdisc.cli import main as cli_main

    for path in plan["specs"]:
        load_system(path)
    setup_s = time.perf_counter() - t0
    if not Path(lipdisc.__file__).resolve().is_relative_to(src):
        print(f"lipdisc was imported from {lipdisc.__file__}, not {src}", file=sys.stderr)
        return 2
    meter = SpeedMeter()
    sample = sum(meter.sample() for _ in range(SETUP_SAMPLES)) / SETUP_SAMPLES
    setup = {"setup_s": setup_s, "setup_sample_s": sample,
             "setup_ref_s": setup_s * REF_SAMPLE_S / sample}
    if mode == "setup":
        print(json.dumps(setup))
        return 0

    import resource

    from tracer import Tracer

    tracer = Tracer() if plan["trace"] else None
    budget, commands = plan["seconds"], plan["commands"]
    passes = []
    last_pass = {}
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        out_dir = work / f"pass-{len(passes)}"
        out_dir.mkdir()
        if traced:
            tracer.reset()
            tracer.install()
        t = time.perf_counter()
        try:
            record = run_pass(cli_main, commands, out_dir, meter)
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        if traced:
            record["layers"] = tracer.layers()
        passes.append(record)
        last_pass[traced] = time.perf_counter() - t
        elapsed = time.perf_counter() - started
        next_traced = tracer is not None and len(passes) % 2 == 1
        needed = 2 if tracer is not None else 1
        if len(passes) >= needed and elapsed + last_pass.get(next_traced, last_pass[traced]) > budget:
            break

    if tracer is not None:
        tracer.dump(work / "spans.npz")
    print(json.dumps({
        **setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "missing_spans": tracer.missing if tracer is not None else [],
        "info": machine_info(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
