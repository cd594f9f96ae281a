"""Command-line surface: load JSON system specs, run the estimators,
bounds, verification, discretization and convergence studies.

argparse only parses, and the library function that uses an argument
checks it.  ``main`` builds a command's one :class:`SamplingConfig` and
names the flag of a ``_FLAGS`` parameter that a SpecValidationError names.
Exit codes: 0 success (all bounds hold), 1 a bound was violated (a
finding, not a crash), 2 input or spec validation error, 3 numerical
failure.  JSON output serializes every float with 17 significant
digits, so values round-trip exactly and identical invocations produce
byte-identical files (the timestamp field aside).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import __version__
from .bounds import evaluate_bounds
from .constants import NumericalError, SamplingConfig, estimate_all
from .discretize import ORDERS, DiscreteModel, ExactMap, simulate
from .discretize import _check_order, _check_tol, _input_rows
from .expr import ExprError
from .system import SpecValidationError, SystemSpec
from .verify import convergence_study, verify_bounds

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
_INDENT = 2  # spaces per nesting level of JSON output


# ---------------------------------------------------------------------------
# full-precision JSON

def dumps_json(obj) -> str:
    """Serialize to JSON with floats at 17 significant digits; a float
    ndarray takes one ``%`` operation over :func:`_float_template`."""
    pieces: list[str] = []
    _write_json(obj, pieces, 0)
    return "".join(pieces) + "\n"


def _write_json(obj, out: list[str], level: int):
    pad = " " * (_INDENT * (level + 1))
    close_pad = " " * (_INDENT * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not np.isfinite(value):
            raise ValueError(f"cannot serialize non-finite number {value!r}")
        out.append(format(value, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim:
        finite = np.isfinite(obj)
        if not finite.all():
            value = float(obj[~finite][0])  # the first in C order
            raise ValueError(f"cannot serialize non-finite number {value!r}")
        out.append(_float_template(obj.shape, level) % tuple(obj.ravel().tolist()))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj.tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(pad)
            _write_json(item, out, level + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(close_pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = list(obj)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(pad + json.dumps(key) + ": ")
            _write_json(obj[key], out, level + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(close_pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def _float_template(shape: tuple, level: int) -> str:
    """A float array of ``shape`` at nesting ``level`` as the general case
    writes its nested lists, with ``%.17g`` for each value: ``"%.17g" % v``
    is the text of ``format(v, ".17g")``."""
    if not shape[0]:
        return "[]"
    pad = " " * (_INDENT * (level + 1))
    item = _float_template(shape[1:], level + 1) if len(shape) > 1 else "%.17g"
    return "[\n" + pad + (",\n" + pad).join([item] * shape[0]) + "\n" + pad[_INDENT:] + "]"


def _write_out(path: str, payload: dict):
    text = dumps_json(payload)  # before the file is opened: a failure leaves none
    with open(path, "w") as fp:
        fp.write(text)


# ---------------------------------------------------------------------------
# argument handling

def _tool_stamp() -> dict:
    return {"name": "lipdisc", "version": __version__}


def load_system(path: str) -> SystemSpec:
    try:
        with open(path) as fp:
            data = json.load(fp)
    except OSError as err:
        raise SpecValidationError("$", f"cannot read {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise SpecValidationError(
            "$", f"malformed JSON in {path!r}: {err.msg} at line {err.lineno} column {err.colno}"
        ) from err
    return SystemSpec.from_dict(data)


_FLAGS = {
    "grid_per_axis": "--grid",
    "pair_budget": "--pairs",
    "seed": "--seed",
    "polish_iters": "--polish-iters",
    "tol": "--tol",
    "t_values": "--t-list",
    "order": "--order",
    "orders": "--orders",
    "x0": "--x0",
    "u_seq": "--inputs",
}


def _config_echo(args) -> dict:
    echo = {
        "spec_path": args.spec,
        "seed": args.seed,
        "pairs": args.pairs,
        "grid": args.grid,
        "polish_iters": args.polish_iters,
    }
    for name in ("order", "tol", "steps"):
        if hasattr(args, name):
            echo[name] = getattr(args, name)
    return echo


def _numbers(text: str) -> np.ndarray:
    """Comma-separated floats; ValueError if an item is not a number."""
    return np.asarray([float(v) for v in text.split(",") if v.strip() != ""])


def _parse_vector(text: str, label: str) -> np.ndarray:
    try:
        return _numbers(text)
    except ValueError as err:
        raise SpecValidationError(label, f"expected comma-separated numbers, got {text!r}") from err


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipdisc",
        description=(
            "Taylor-Lie ZOH discretization with empirical verification of "
            "discrete Lipschitz constant formulas"
        ),
    )
    parser.add_argument("--version", action="version", version=f"lipdisc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the flags of every subcommand
    cfg = SamplingConfig()  # the library owns every default
    common.add_argument("spec", help="system spec JSON file")
    common.add_argument("--seed", type=int, default=cfg.seed, help="sampling seed")
    common.add_argument("--pairs", type=int, default=cfg.pair_budget, help="pair budget")
    common.add_argument("--grid", type=int, default=cfg.grid_per_axis, help="grid points per axis")
    common.add_argument(
        "--polish-iters", dest="polish_iters", type=int, default=cfg.polish_iters,
        help="coordinate-descent polish iterations",
    )
    common.add_argument("--out", help="write the result as JSON")

    sub.add_parser("constants", parents=[common], help="estimate the region constants")

    p_bounds = sub.add_parser("bounds", parents=[common], help="evaluate the formula constants")
    p_bounds.add_argument("--order", type=int, default=None,
                          help="single order (default: all three)")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="check formula vs empirical constants")
    p_verify.add_argument("--order", type=int, default=1)

    p_disc = sub.add_parser("discretize", parents=[common], help="simulate the discrete model")
    p_disc.add_argument("--order", type=int, default=1)
    p_disc.add_argument("--x0", required=True, help="initial state, comma-separated")
    p_disc.add_argument(
        "--inputs", default=None,
        help="constant input 'v1,v2,...' or a JSON file with one input vector per step",
    )
    p_disc.add_argument("--steps", type=int, default=50)
    p_disc.add_argument("--exact", action="store_true",
                        help="add the integrated reference trajectory and errors")
    p_disc.add_argument("--tol", type=float, default=ExactMap.tol, help="integrator tolerance")

    p_conv = sub.add_parser("convergence", parents=[common], help="local-error order study")
    p_conv.add_argument("--orders", default="1,2,3", help="comma-separated orders")
    p_conv.add_argument("--t-list", dest="t_list", default="0.2,0.1,0.05,0.025",
                        help="comma-separated sampling times (>= 3)")
    p_conv.add_argument("--tol", type=float, default=ExactMap.tol, help="integrator tolerance")

    return parser


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed arguments, the loaded spec and its
# SamplingConfig and returns the exit code and the body of the --out payload

def cmd_constants(args, s: SystemSpec, cfg: SamplingConfig) -> tuple[int, dict]:
    est = estimate_all(s, cfg)
    print(f"system {s.name}: n={s.n} m={s.m} p={s.p} T={s.sampling_time}")
    print(f"  gamma_c     = {est.gamma_c:.12g}   (two-sided Lipschitz, empirical sup)")
    print(f"  rho_c       = {est.rho_c:.12g}   (one-sided Lipschitz, empirical sup)")
    print(f"  beta        = {est.beta:.12g}   (second-derivative norm surrogate)")
    print(f"  big_m       = {est.big_m:.12g}   (sup ||f||)")
    print(f"  sigma_bar_a = {est.sigma_bar_a:.12g}   (max singular value of A)")
    return EXIT_OK, {"constants": est.to_jsonable()}


def cmd_bounds(args, s: SystemSpec, cfg: SamplingConfig) -> tuple[int, dict]:
    orders = ORDERS if args.order is None else [_check_order(args.order)]
    est = estimate_all(s, cfg)
    t = s.sampling_time
    rows = [{"order": k, "T": t, **evaluate_bounds(k, t, est)} for k in orders]
    for row in rows:
        rho = "n/a" if row["rho_d"] is None else f"{row['rho_d']:.12g}"
        print(f"order {row['order']}: gamma_d = {row['gamma_d']:.12g}  rho_d = {rho}")
    return EXIT_OK, {"constants": est.to_jsonable(), "bounds": rows}


def cmd_verify(args, s: SystemSpec, cfg: SamplingConfig) -> tuple[int, dict]:
    report = verify_bounds(s, args.order, cfg)
    print(f"system {s.name}, order {report.order}, T = {report.sampling_time}")
    for key, formula in report.bounds.items():
        empirical = f"empirical {report.empirical[key][0]:.12g}"
        if formula is None:
            print(f"  {key + ':':<8} no formula at order {report.order} ({empirical})")
        else:
            verdict = "PASS" if report.passed[key] else "VIOLATED"
            print(f"  {key + ':':<8} formula {formula:.12g}  {empirical}  "
                  f"margin {report.margins[key]:.3e}  {verdict}")
    return (EXIT_OK if report.all_passed else EXIT_VIOLATION), report.to_jsonable()


def _input_sequence(args, s: SystemSpec) -> np.ndarray:
    steps = args.steps
    if steps < 0:
        raise SpecValidationError("--steps", "must be >= 0")
    if args.inputs is None:
        return np.zeros((steps, s.m))
    try:
        constant = _numbers(args.inputs)
    except ValueError:
        constant = None  # not a number list: a file name
    if constant is not None:  # one row, held for every step
        return np.tile(_input_rows([constant], s.m), (steps, 1))
    try:
        with open(args.inputs) as fp:
            rows = json.load(fp)
    except (OSError, json.JSONDecodeError) as err:
        raise SpecValidationError("--inputs", f"cannot read input file: {err}") from err
    seq = _input_rows(rows, s.m)
    if seq.shape[0] != steps:
        raise SpecValidationError(
            "--inputs", f"file provides {seq.shape[0]} steps, --steps is {steps}"
        )
    return seq


def _trajectory(label: str, stepper, s: SystemSpec, x0, u_seq):
    """:func:`simulate`, warning if the ``label`` trajectory leaves D."""
    traj = simulate(stepper, s, x0, u_seq)
    if traj.first_exit is not None:
        warnings.warn(f"{label} of {s.name!r} leaves the region at step {traj.first_exit}")
    return traj


def cmd_discretize(args, s: SystemSpec, cfg: SamplingConfig) -> tuple[int, dict]:
    _check_tol(args.tol)  # echoed into --out, so checked even without --exact
    x0 = _parse_vector(args.x0, "--x0")
    u_seq = _input_sequence(args, s)
    traj = _trajectory("trajectory", DiscreteModel(s, args.order), s, x0, u_seq)
    body = {
        "order": args.order,
        "T": s.sampling_time,
        "states": traj.states,
        "outputs": traj.outputs,
        "first_exit": traj.first_exit,
    }
    if args.exact:
        exact = _trajectory("exact trajectory", ExactMap(s, args.tol), s, x0, u_seq)
        body["exact_states"] = exact.states
        with np.errstate(over="ignore"):  # reported as non-finite below
            body["errors"] = np.linalg.norm(traj.states - exact.states, axis=1)
    for key, values in body.items():  # an overflow fails the command, with --out or without
        if isinstance(values, np.ndarray) and not np.isfinite(values).all():
            step = np.isfinite(values.reshape(len(values), -1)).all(axis=1).argmin()
            raise NumericalError(f"{key}: first non-finite value at step {step}")
    summary = (f"max |approx - exact| = {float(body['errors'].max()):.6g}" if args.exact
               else f"final state {traj.states[-1].tolist()}")
    print(f"{s.name} order {args.order}: {len(u_seq)} steps, {summary}")
    return EXIT_OK, body


def cmd_convergence(args, s: SystemSpec, cfg: SamplingConfig) -> tuple[int, dict]:
    try:
        orders = [int(v) for v in args.orders.split(",") if v.strip()]
    except ValueError as err:
        raise SpecValidationError(
            "--orders", f"expected comma-separated integers, got {args.orders!r}"
        ) from err
    t_values = _parse_vector(args.t_list, "--t-list").tolist()
    study = convergence_study(s, orders, t_values, cfg.seed, args.tol)
    for k in sorted(study.slopes):
        print(f"order {k}: slope {study.slopes[k]:.3f} (expected about {k + 1})")
    return EXIT_OK, study.to_jsonable()


_COMMANDS = {
    "constants": cmd_constants,
    "bounds": cmd_bounds,
    "verify": cmd_verify,
    "discretize": cmd_discretize,
    "convergence": cmd_convergence,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        s = load_system(args.spec)
        cfg = SamplingConfig(grid_per_axis=args.grid, pair_budget=args.pairs,
                             seed=args.seed, polish_iters=args.polish_iters)
        code, body = _COMMANDS[args.command](args, s, cfg)
        if args.out:
            # tool and system lead; the report's own config (verify)
            # keeps its place and follows the echo of the arguments
            payload = {"tool": _tool_stamp(), "system": s.name, **body}
            payload["config"] = {**_config_echo(args), **payload.get("config", {})}
            _write_out(args.out, payload)
        return code
    except SpecValidationError as err:
        print(f"error: {_FLAGS.get(err.path, err.path)}: {err.message}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, ExprError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as err:  # numpy's names the allocation, Python's own is empty
        detail = f": {err}" if str(err) else ""
        print(f"numerical failure: out of memory{detail}", file=sys.stderr)
        return EXIT_NUMERICAL


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A shown warning as the console prints it: one line, like ``error:``."""
    return f"warning: {message}\n"


def console_main():
    warnings.formatwarning = _warning_line  # the process is the command
    sys.exit(main())


if __name__ == "__main__":
    console_main()
