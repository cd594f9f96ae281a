"""Correctness oracle for the benchmark's command outputs.

At the reference seed every payload is compared with the committed
reference (``reference/<workload>.json``, made by make_reference.py) and
each order-2 verify report of a bundled spec also with its golden file
under tests/golden/.  Constants, bounds, margins and witnesses must agree
within the goldens' 1e-12 relative tolerance; trajectories and
convergence errors within the looser LOOSE tolerance, because the
adaptive reference integrator may take different steps after a change
in the last bits of its right-hand side.  Exit codes and pass flags
must match exactly.  ``timestamp``, ``config.spec_path`` and keys absent
from the reference are not compared.

At any seed the seed-independent parts (grid constants, their
witnesses, gamma_d) are compared with the reference and the goldens,
and these invariants are checked: exit 0, the paper's formulas
re-evaluated from the reported constants, margins and pass flags
consistent with formula >= empirical - tol, trajectories consistent
with their spec and within an error cap of the exact map, and
convergence slopes within 0.3 of k+1.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TIGHT = (1e-12, 1e-15)  # (relative, absolute), as in tests/test_golden.py
LOOSE = (1e-6, 1e-10)
SKIP = {("timestamp",), ("config", "spec_path")}
STRIDED = ("states", "outputs", "exact_states", "errors")  # kept every row_stride-th row
GOLDEN_FLAGS = {"--grid": "21", "--pairs": "20000", "--polish-iters": "40"}
SLOPE_TOL = 0.3
# max |order-3 state - exact state| over a 2000-step trajectory; about 100 seeds tried reach 1.04e-3
TRAJECTORY_ERROR_CAP = 5e-3
SEED_FREE_CONSTANTS = ("gamma_c", "beta", "big_m", "sigma_bar_a")
SEED_FREE_WITNESSES = ("gamma_c", "beta", "big_m")


def compare(got, want, tol, path=(), out=None) -> list[str]:
    """Differences between ``got`` and the reference ``want``."""
    out = [] if out is None else out
    if path[-1:] in SKIP or path[-2:] in SKIP:
        return out
    where = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    if isinstance(want, bool) or want is None or isinstance(want, str):
        if got != want or type(got) is not type(want):
            out.append(f"{where}: {got!r} != {want!r}")
    elif isinstance(want, (int, float)):
        rel, abs_tol = tol
        if isinstance(got, bool) or not isinstance(got, (int, float)) or not (
            abs(got - want) <= abs_tol + rel * abs(want)
        ):
            out.append(f"{where}: {got!r} != {want!r}")
    elif isinstance(want, dict):
        if not isinstance(got, dict):
            out.append(f"{where}: expected an object")
            return out
        for key, value in want.items():
            if key not in got:
                out.append(f"{where}.{key}: missing")
            else:
                compare(got[key], value, tol, path + (key,), out)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{where}: expected a list of {len(want)}")
            return out
        for i, (g, w) in enumerate(zip(got, want)):
            compare(g, w, tol, path + (i,), out)
    return out


def _close(a, b, tol=TIGHT) -> bool:
    return abs(a - b) <= tol[1] + tol[0] * max(abs(a), abs(b))


def gamma_d(order, t, c) -> float:
    g, s = c["gamma_c"], c["sigma_bar_a"]
    value = t * g
    if order >= 2:
        value += t * t * (s * g + g * g / 2.0)
    if order >= 3:
        b, m = c["beta"], c["big_m"]
        value += (t**3 / 6.0) * (
            2.0 * b * s + (b * s + 2.0 * b * m + 2.0 * s * s) * g + 2.0 * s * g * g + 2.0 * g**3
        )
    return value


def rho_d(order, t, c):
    if order == 3:
        return None
    r, s, g = c["rho_c"], c["sigma_bar_a"], c["gamma_c"]
    value = t * r
    if order == 2:
        value += (t * t / 2.0) * s * (r + g + r * g)
    return value


def _seed_free(payload: dict) -> dict:
    c = payload.get("constants", {})
    w = c.get("witnesses", {})
    out = {
        "constants": {k: c[k] for k in SEED_FREE_CONSTANTS if k in c},
        "witnesses": {k: w[k] for k in SEED_FREE_WITNESSES if k in w},
    }
    if "bounds" in payload and isinstance(payload["bounds"], dict):
        out["gamma_d"] = payload["bounds"].get("gamma_d")
    return out


def _verify_invariants(p: dict, problems: list[str]):
    order, t, c = p["order"], p["T"], p["constants"]
    formulas = {"gamma_d": gamma_d(order, t, c), "rho_d": rho_d(order, t, c)}
    for key, formula in formulas.items():
        bound = p["bounds"][key]
        if formula is None:
            if bound is not None or p["passed"][key] is not None:
                problems.append(f"{key}: no formula at order {order}, got {bound!r}")
            continue
        if not _close(bound, formula):
            problems.append(f"bounds.{key} = {bound!r}, formula gives {formula!r}")
        empirical = p["empirical"][key]["value"]
        tol = 1e-9 + 1e-6 * abs(bound)
        margin = p["margins"][key]
        if not _close(margin, bound - empirical) or not _close(p["tolerances"][key], tol):
            problems.append(f"margins.{key} or tolerances.{key} inconsistent")
        if p["passed"][key] is not (margin >= -p["tolerances"][key]):
            problems.append(f"passed.{key} inconsistent with its margin")
        if bound < empirical - tol:
            problems.append(f"{key}: formula {bound!r} < empirical {empirical!r} - {tol!r}")
    if p["passed"]["all"] is not True:
        problems.append("passed.all is not true")


def _trajectory_invariants(p: dict, spec: dict, argv: list[str], problems: list[str]):
    steps = int(argv[argv.index("--steps") + 1])
    x0 = [float(v) for v in next(a for a in argv if a.startswith("--x0="))[5:].split(",")]
    states = np.asarray(p["states"], float)
    exact = np.asarray(p["exact_states"], float)
    errors = np.asarray(p["errors"], float)
    if states.shape != (steps + 1, len(x0)) or exact.shape != states.shape:
        problems.append(f"trajectory shape {states.shape}, expected {(steps + 1, len(x0))}")
        return
    if not (np.all(np.isfinite(states)) and np.all(np.isfinite(exact))):
        problems.append("non-finite trajectory")
        return
    if not np.array_equal(states[0], x0) or not np.array_equal(exact[0], x0):
        problems.append("trajectory does not start at --x0")
    outputs = states @ np.asarray(spec["C"], float).T
    if not np.allclose(p["outputs"], outputs, rtol=1e-12, atol=1e-15):
        problems.append("outputs != C x")
    if not np.allclose(errors, np.linalg.norm(states - exact, axis=1), rtol=1e-12, atol=1e-15):
        problems.append("errors != |states - exact_states|")
    if not errors.max() <= TRAJECTORY_ERROR_CAP:
        problems.append(f"max error {errors.max()!r} above {TRAJECTORY_ERROR_CAP}")
    lower, upper = np.asarray(spec["region"]["lower"]), np.asarray(spec["region"]["upper"])
    outside = np.flatnonzero(np.any((states < lower) | (states > upper), axis=1))
    first_exit = int(outside[0]) if outside.size else None
    if p["first_exit"] != first_exit:
        problems.append(f"first_exit {p['first_exit']!r}, states give {first_exit!r}")


def _convergence_invariants(p: dict, problems: list[str]):
    if p["t_values"] != [0.2, 0.1, 0.05, 0.025]:
        problems.append(f"t_values {p['t_values']!r}")
    if sorted(p["orders"]) != ["1", "2", "3"]:
        problems.append(f"orders {sorted(p['orders'])!r}")
        return
    for k, row in p["orders"].items():
        if not abs(row["slope"] - (int(k) + 1)) <= SLOPE_TOL:
            problems.append(f"order {k}: slope {row['slope']!r}, expected {int(k) + 1} +- {SLOPE_TOL}")


class Oracle:
    def __init__(self, workload: str, seed: int, reference_seed: int, bench_dir: Path,
                 golden_dir: Path):
        ref = json.loads((bench_dir / "reference" / f"{workload}.json").read_text())
        if ref["seed"] != reference_seed:
            raise ValueError(f"reference made at seed {ref['seed']}, expected {reference_seed}")
        self.reference = ref["commands"]
        self.exact = seed == reference_seed
        self.golden_dir = golden_dir
        self._goldens: dict[str, dict] = {}

    def _golden(self, cmd) -> dict | None:
        argv = cmd.argv
        if cmd.kind != "verify" or argv[argv.index("--order") + 1] != "2":
            return None
        path = self.golden_dir / f"{cmd.spec}-order2.json"
        if not path.exists():
            return None
        flags = dict(zip(argv[2::2], argv[3::2]))
        if any(flags.get(k, v) != v for k, v in GOLDEN_FLAGS.items()):
            return None
        if cmd.spec not in self._goldens:
            self._goldens[cmd.spec] = json.loads(path.read_text())
        return self._goldens[cmd.spec]

    def check(self, cmd, exit_code, error, out_path: Path, spec_path: Path) -> list[str]:
        """Problems with one command's result; empty when it is correct."""
        if error is not None:
            return [f"raised {error}"]
        ref = self.reference.get(cmd.id)
        if ref is None:
            return [f"no reference for {cmd.id}"]
        want_exit = ref["exit"] if self.exact else 0
        if exit_code != want_exit:
            return [f"exit {exit_code}, expected {want_exit}"]
        try:
            payload = json.loads(out_path.read_text())
        except (OSError, ValueError) as err:
            return [f"unreadable --out file: {err}"]
        problems: list[str] = []
        try:
            self._check_payload(cmd, payload, ref, spec_path, problems)
        except (KeyError, TypeError, ValueError, IndexError) as err:
            problems.append(f"malformed payload: {type(err).__name__}: {err}")
        return problems

    def _check_payload(self, cmd, payload, ref, spec_path, problems):
        want = ref["payload"]
        golden = self._golden(cmd)
        if cmd.kind in ("verify", "constants"):
            if self.exact:
                compare(payload, want, TIGHT, out=problems)
                if golden is not None:
                    compare(payload, golden, TIGHT, out=problems)
            else:
                for base in (want, golden):
                    if base is not None:
                        compare(_seed_free(payload), _seed_free(base), TIGHT, out=problems)
            if cmd.kind == "verify":
                _verify_invariants(payload, problems)
        elif cmd.kind == "discretize":
            if self.exact:
                stride = ref["row_stride"]
                strided = {k: (v[::stride] if k in STRIDED else v) for k, v in payload.items()}
                compare(strided, want, LOOSE, out=problems)
            spec = json.loads(spec_path.read_text())
            _trajectory_invariants(payload, spec, list(cmd.argv), problems)
        elif cmd.kind == "convergence":
            if self.exact:
                compare(payload, want, LOOSE, out=problems)
            _convergence_invariants(payload, problems)
        else:
            problems.append(f"unknown command kind {cmd.kind!r}")
