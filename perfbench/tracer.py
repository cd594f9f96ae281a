"""Spans around the public functions of each lipdisc module, recorded
from outside the library.

``Tracer.install`` replaces each target function by a timing wrapper in
every ``lipdisc`` module that holds a reference to it (for example
``max_singular_value`` in both ``linalg`` and ``constants``), or on its
class for methods; ``uninstall`` puts the originals back.  Spans (name,
start, end, parent) are kept in flat arrays in memory; ``layers`` turns
them into per-layer calls, self time and counters after a pass.

A target that is already active further up the stack is not recorded
again, so the recursion inside ``expr.evaluate`` counts as one call and
its time stays in that call's self time.  Only the calling thread is
traced: the benchmark runs lipdisc single-threaded.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np


def _rows_arg(counters, span, args, result):
    counters[span + ".rows"] += args[1].shape[0]  # (self, x, u) or (e, x, u)


def _evaluate_batch(counters, span, args, result):
    _rows_arg(counters, span, args, result)
    counters[span + ".nonfinite"] += int(np.count_nonzero(~np.isfinite(result)))


def _hessian_bytes(counters, span, args, result):
    spec, x = args[0], args[1]
    counters[span + ".bytes"] += x.shape[0] * spec.n**3 * 8  # computed, float64


def _rows_result(counters, span, args, result):
    counters[span + ".rows"] += result.shape[0]


def _pair_rows(counters, span, args, result):
    counters[span + ".rows"] += result.x1.shape[0]


def _text_bytes(counters, span, args, result):
    counters[span + ".bytes"] += len(result)


# span name -> (module, attribute or Class.method, counter hook)
TARGETS = {
    "linalg.max_singular_value": ("lipdisc.linalg", "max_singular_value", None),
    "linalg.tensor3_norm_surrogate": ("lipdisc.linalg", "tensor3_norm_surrogate", None),
    "expr.evaluate": ("lipdisc.expr", "evaluate", None),
    "expr.evaluate_batch": ("lipdisc.expr", "evaluate_batch", _evaluate_batch),
    "system.eval_f": ("lipdisc.system", "SystemSpec.eval_f", None),
    "system.jacobian": ("lipdisc.system", "SystemSpec.jacobian", None),
    "system.second_derivative": ("lipdisc.system", "SystemSpec.second_derivative", None),
    "system.jacobian_batch": ("lipdisc.system", "SystemSpec.jacobian_batch", None),
    "system.second_derivative_batch":
        ("lipdisc.system", "SystemSpec.second_derivative_batch", _hessian_bytes),
    "constants.grid_points": ("lipdisc.constants", "grid_points", _rows_result),
    "constants.sample_pairs": ("lipdisc.constants", "sample_pairs", _pair_rows),
    "constants.estimate_gamma_c": ("lipdisc.constants", "estimate_gamma_c", None),
    "constants.estimate_beta_and_m": ("lipdisc.constants", "estimate_beta_and_m", None),
    "constants.sup_pair_quotient": ("lipdisc.constants", "sup_pair_quotient", None),
    "discretize.f_t": ("lipdisc.discretize", "DiscreteModel.f_t", None),
    "discretize.f_t_batch": ("lipdisc.discretize", "DiscreteModel.f_t_batch", _rows_arg),
    "discretize.exact_step": ("lipdisc.discretize", "exact_step", None),
    "discretize.simulate": ("lipdisc.discretize", "simulate", None),
    "cli.dumps_json": ("lipdisc.cli", "dumps_json", _text_bytes),
    "cli.load_system": ("lipdisc.cli", "load_system", None),
    "bounds.evaluate_bounds": ("lipdisc.bounds", "evaluate_bounds", None),
    "verify.verify_bounds": ("lipdisc.verify", "verify_bounds", None),
    "verify.convergence_study": ("lipdisc.verify", "convergence_study", None),
}

# metric prefixes that sum several spans
GROUPS = {"system.pointwise": ("system.eval_f", "system.jacobian", "system.second_derivative")}


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter[str] = Counter()
        self._stack = [-1]

    def _wrap(self, nid: int, fn, hook):
        span = self.names[nid]
        active = False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            active = True
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self.counters, span, args, result)
                return result
            finally:
                self.end[idx] = time.perf_counter()
                self.start[idx] = t0
                self._stack.pop()
                active = False

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "lipdisc" or n.startswith("lipdisc.")]
        self.missing = []
        for nid, (span, (module, attr, hook)) in enumerate(TARGETS.items()):
            home = sys.modules.get(module)
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name, None)
                original = getattr(owner, "__dict__", {}).get(member)
                if original is None:
                    self.missing.append(span)
                    continue
                self._patched.append((owner, member, original))
                setattr(owner, member, self._wrap(nid, original, hook))
                continue
            original = getattr(home, member, None)
            if original is None:
                self.missing.append(span)
                continue
            wrapper = self._wrap(nid, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    def layers(self) -> dict[str, float]:
        """Per-layer calls, self time and counters of the spans recorded
        since the last reset, plus the time covered by top-level spans."""
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child_time
        count = len(self.names)
        calls = np.bincount(name, minlength=count)
        self_s = np.bincount(name, weights=self_time, minlength=count)
        out: dict[str, float] = dict(self.counters)
        for nid, span in enumerate(self.names):
            out[span + ".calls"] = int(calls[nid])
            out[span + ".self_s"] = float(self_s[nid])
        for group, members in GROUPS.items():
            out[group + ".calls"] = sum(out[m + ".calls"] for m in members)
            out[group + ".self_s"] = sum(out[m + ".self_s"] for m in members)
        # right-hand-side evaluations of the reference integrator
        eval_f = self.names.index("system.eval_f")
        exact = self.names.index("discretize.exact_step")
        under_exact = nested & (name == eval_f)
        under_exact[under_exact] = name[parent[under_exact]] == exact
        out["discretize.exact_step.rhs_evals"] = int(np.count_nonzero(under_exact))
        out["top_level_s"] = float(dur[~nested].sum())
        return out

    def dump(self, path):
        """Write the recorded spans to an .npz file: the name table and one
        row per span in ``name``, ``start``, ``end`` and ``parent`` (the
        row of the enclosing span, -1 at top level)."""
        np.savez(path, names=np.asarray(self.names), name=np.asarray(self.name),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent))
