"""CLI surface: exit codes, JSON outputs, schemas, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from lipdisc import (
    SamplingConfig,
    SpecValidationError,
    benchmarks,
    build_taylor_model,
    cli,
    convergence_study,
    discretize,
    simulate,
)
from lipdisc.cli import OUTPUT_SCHEMAS, dumps_json, main


@pytest.fixture()
def spec_path(tmp_path):
    def write(name, **overrides):
        data = benchmarks.load_dict(name)
        data.update(overrides)
        path = tmp_path / f"{name}-spec.json"
        path.write_text(json.dumps(data))
        return str(path)

    return write


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# full-precision JSON writer

def test_dumps_json_round_trips_doubles():
    values = [0.1, 1.0 / 3.0, math.pi, 1e-300, -0.0, 2.0**-52, 12345.6789]
    payload = {"values": values, "n": 3, "flag": True, "none": None, "name": "x"}
    text = dumps_json(payload)
    back = json.loads(text)
    for orig, new in zip(values, back["values"]):
        assert float(new) == orig
    assert back["n"] == 3 and back["flag"] is True and back["none"] is None


def test_dumps_json_uses_17_significant_digits():
    assert "0.10000000000000001" in dumps_json({"v": 0.1})


def test_dumps_json_rejects_nonfinite():
    with pytest.raises(ValueError):
        dumps_json({"v": float("nan")})


def _as_lists(obj):
    """The payload with every array as nested lists: the general writer."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(v) for v in obj]
    return obj


def test_dumps_json_float_arrays_match_the_general_writer():
    rng = np.random.default_rng(3)
    edge = np.array([[-0.0, 5e-324, 1e308], [-1e308, 0.0, -5e-324]])
    payload = {
        "edge": edge,
        "row": edge[0],
        "empty_rows": np.zeros((0, 3)),
        "empty_cols": np.zeros((3, 0)),
        "empty": np.zeros(0),
        "cube": rng.standard_normal((2, 3, 2)),
        "arrays": [edge, np.zeros((0, 2)), rng.standard_normal(4)],
        "nested": {"deep": [[rng.standard_normal((2, 2))]]},
        "strided": rng.standard_normal((4, 4))[::2, ::-1],
        "ints": np.arange(3),
    }
    assert dumps_json(payload) == dumps_json(_as_lists(payload))


@pytest.mark.parametrize(
    "values",
    [
        [[1.0, np.nan], [np.inf, 2.0]],
        [[1.0, -np.inf], [np.nan, 2.0]],
        [np.inf],
        [[[1.0, 2.0], [3.0, -np.inf]], [[np.nan, 1.0], [1.0, 1.0]]],
    ],
)
def test_dumps_json_float_array_names_the_first_nonfinite_value(values):
    with pytest.raises(ValueError) as want:
        dumps_json({"v": values})
    with pytest.raises(ValueError) as got:
        dumps_json({"v": np.array(values)})
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("cannot serialize non-finite number")


def _float_rows(rows: list, level: int) -> str:
    """The row-by-row writer that the one-format-call template replaced."""
    if not rows:
        return "[]"
    pad = " " * (2 * (level + 1))
    if isinstance(rows[0], list):
        items = [_float_rows(row, level + 1) for row in rows]
    else:
        items = [format(v, ".17g") for v in rows]
    return "[\n" + pad + (",\n" + pad).join(items) + "\n" + " " * (2 * level) + "]"


@pytest.mark.parametrize("shape", [(0,), (0, 3), (4, 0), (7,), (2001, 4), (3, 2, 2), (1, 1)])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_dumps_json_float_template_keeps_the_row_writers_text(shape, level):
    rng = np.random.default_rng(len(shape) * 10 + level)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    values.reshape(-1)[:3] = [-0.0, 5e-324, 1.7976931348623157e308][: values.size]
    out: list[str] = []
    cli._write_json(values, out, level)
    assert "".join(out) == _float_rows(values.tolist(), level)
    doc = {"v": [values]} if level == 2 else {"v": values} if level == 1 else values
    assert dumps_json(doc) == dumps_json(_as_lists(doc))


def test_float_format_operator_matches_format_call():
    rng = np.random.default_rng(8)
    values = rng.standard_normal(100_000) * 10.0 ** rng.integers(-320, 300, 100_000)
    values = [*values.tolist(), 0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]
    assert "|".join(["%.17g"] * len(values)) % tuple(values) == "|".join(
        format(v, ".17g") for v in values
    )


# ---------------------------------------------------------------------------
# entry points and the shared --out envelope

def test_module_entry_point_runs_main():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "lipdisc.cli", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.strip() == "lipdisc 0.1.0"


def test_out_file_key_order(capsys, spec_path, tmp_path):
    spec = spec_path("pendulum")
    fast = ["--pairs", "2000", "--grid", "5", "--polish-iters", "2"]
    commands = {
        "constants": ["constants", spec, *fast],
        "bounds": ["bounds", spec, *fast],
        "discretize": ["discretize", spec, "--x0", "0.1,0.2", "--steps", "2", "--exact"],
        "convergence": ["convergence", spec, "--orders", "1"],
        "verify": ["verify", spec, *fast],
    }
    middle = {
        "constants": ["constants"],
        "bounds": ["constants", "bounds"],
        "discretize": ["order", "T", "states", "outputs", "first_exit", "exact_states", "errors"],
        "convergence": ["t_values", "orders"],
        "verify": ["order", "T", "constants", "bounds", "empirical", "margins", "tolerances",
                   "passed"],
    }
    for name, argv in commands.items():
        out = tmp_path / f"{name}.json"
        code, _, _ = _run(capsys, *argv, "--out", str(out))
        assert code == 0, name
        keys = list(json.loads(out.read_text()))
        tail = ["config", "timestamp"] if name == "verify" else ["config"]
        assert keys == ["tool", "system", *middle[name], *tail], name


# ---------------------------------------------------------------------------
# constants

def test_cmd_constants_pendulum(capsys, spec_path, tmp_path):
    out = tmp_path / "constants.json"
    code, stdout, _ = _run(
        capsys, "constants", spec_path("pendulum"), "--out", str(out), "--pairs", "2000"
    )
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, OUTPUT_SCHEMAS["constants"])
    assert payload["constants"]["gamma_c"] == pytest.approx(1.0, abs=1e-6)
    assert "gamma_c" in stdout


def test_cmd_constants_linear_all_zero(capsys, spec_path, tmp_path):
    out = tmp_path / "constants.json"
    code, _, _ = _run(
        capsys, "constants", spec_path("linear-2d"), "--out", str(out), "--pairs", "2000"
    )
    assert code == 0
    constants = json.loads(out.read_text())["constants"]
    for key in ("gamma_c", "rho_c", "beta", "big_m"):
        assert constants[key] == 0.0


def test_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", ')
    code, _, stderr = _run(capsys, "constants", str(bad))
    assert code == 2
    assert "line" in stderr


def test_invalid_field_exits_2_and_names_path(capsys, tmp_path):
    data = benchmarks.load_dict("pendulum")
    data["f"] = ["0", "x7"]
    path = tmp_path / "bad-field.json"
    path.write_text(json.dumps(data))
    code, _, stderr = _run(capsys, "constants", str(path))
    assert code == 2
    assert "f[1]" in stderr


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, stderr = _run(capsys, "constants", str(tmp_path / "nope.json"))
    assert code == 2


def test_numerical_failure_exits_3(capsys, tmp_path):
    # ln(x1) is undefined on half the region; the pair estimator's 10%
    # skip budget is exceeded, which is a numerical failure
    data = {
        "name": "half-domain",
        "A": [[0.0]],
        "C": [[1.0]],
        "f": ["ln(x1)"],
        "region": {"lower": [-1.0], "upper": [1.0]},
        "T": 0.1,
    }
    path = tmp_path / "half-domain.json"
    path.write_text(json.dumps(data))
    code, _, stderr = _run(capsys, "constants", str(path), "--pairs", "2000")
    assert code == 3
    assert "numerical failure" in stderr


def test_power_overflow_exits_3(capsys, tmp_path):
    # 1e200^2 overflows to inf at every grid point, which is a numerical
    # failure, not a crash
    data = {
        "name": "overflow",
        "A": [[0.0]],
        "C": [[1.0]],
        "f": ["1e200^2*x1"],
        "region": {"lower": [-1.0], "upper": [1.0]},
        "T": 0.1,
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    code, _, stderr = _run(capsys, "constants", str(path), "--pairs", "2000")
    assert code == 3
    assert "grid evaluations failed" in stderr


def test_invalid_sampling_flags_exit_2(capsys, spec_path):
    code, _, _ = _run(capsys, "constants", spec_path("pendulum"), "--pairs", "10")
    assert code == 2
    code, _, _ = _run(capsys, "constants", spec_path("pendulum"), "--grid", "1")
    assert code == 2


# a value of each flag in cli._FLAGS that the CLI parses and the library
# rejects, with the message it gives; "{rows}" is an --inputs file
_BAD_VALUES = {
    "grid_per_axis": (("--grid", "1"), "must be >= 2, got 1"),
    "pair_budget": (("--pairs", "10"), "must be >= 1000, got 10"),
    "seed": (("--seed", "-1"), "must be >= 0, got -1"),
    "polish_iters": (("--polish-iters", "-1"), "must be >= 0, got -1"),
    "tol": (("--tol", "1"), "must lie in [1e-13, 1e-6], got 1.0"),
    "t_values": (
        ("--t-list", "0.2,0.1,1e-13"),
        "sampling times must be at least the integrator's minimum step 1e-12",
    ),
    "orders": (("--orders", "1,4"), "must be among (1, 2, 3), got [1, 4]"),
    "x0": (("--x0", "0.1"), "must have shape (2,), got (1,)"),
    "u_seq": (("--inputs", "{rows}"), "expected rows of m = 1 numbers, got shape (2, 2)"),
}
_SAMPLING = ("grid_per_axis", "pair_budget", "seed", "polish_iters")
_FLAG_CASES = [
    *((command, name) for command in ("constants", "bounds", "verify") for name in _SAMPLING),
    *(("discretize", name) for name in (*_SAMPLING, "tol", "x0", "u_seq")),
    *(("convergence", name) for name in (*_SAMPLING, "tol", "t_values", "orders")),
]


def _forbid_work(monkeypatch):
    """Make estimation, model stepping and integration fail the test."""
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the arguments were checked")

    monkeypatch.setattr(cli, "estimate_all", no_work)
    monkeypatch.setattr(cli, "verify_bounds", no_work)
    monkeypatch.setattr(discretize.DiscreteModel, "__call__", no_work)
    monkeypatch.setattr(discretize.ExactMap, "__call__", no_work)
    monkeypatch.setattr(discretize, "_integrator", no_work)


def test_flag_cases_cover_every_flag():
    assert {name for _, name in _FLAG_CASES} == set(cli._FLAGS) == set(_BAD_VALUES)


@pytest.mark.parametrize("command, name", _FLAG_CASES)
def test_bad_flag_exits_2_naming_it_before_any_work(
    capsys, monkeypatch, spec_path, tmp_path, command, name
):
    rows = tmp_path / "rows.json"
    rows.write_text("[[0.1, 0.2], [0.3, 0.4]]")
    (flag, value), message = _BAD_VALUES[name]
    assert cli._FLAGS[name] == flag
    base = ["--x0", "0.1,0.1", "--steps", "2", "--exact"] if command == "discretize" else []
    out = tmp_path / "out.json"
    _forbid_work(monkeypatch)
    code, stdout, stderr = _run(
        capsys, command, spec_path("van-der-pol"), *base,
        flag, value.format(rows=rows), "--out", str(out),
    )
    assert code == 2
    assert stderr == f"error: {flag}: {message}\n"
    assert stdout == "" and not out.exists()


def test_every_flag_maps_a_parameter_that_a_library_check_names(bench):
    # each check is called by keyword, so each name is a real parameter
    vdp = bench["van-der-pol"]
    mdl = build_taylor_model(vdp, 1)
    study = {"s": vdp, "orders": [1], "t_values": [0.2, 0.1, 0.05]}
    steps = {"stepper": mdl, "s": vdp, "x0": [0.1, 0.2], "u_seq": [[0.0]]}
    calls = {
        "grid_per_axis": (SamplingConfig, {"grid_per_axis": 1}),
        "pair_budget": (SamplingConfig, {"pair_budget": 10}),
        "seed": (SamplingConfig, {"seed": -1}),
        "polish_iters": (SamplingConfig, {"polish_iters": -1}),
        "tol": (discretize.ExactMap, {"spec": vdp, "tol": 1.0}),
        "t_values": (convergence_study, {**study, "t_values": [0.1, 0.1, 0.1]}),
        "orders": (convergence_study, {**study, "orders": [4]}),
        "x0": (simulate, {**steps, "x0": [0.1]}),
        "u_seq": (simulate, {**steps, "u_seq": [[0.1, 0.2]]}),
    }
    assert set(calls) == set(cli._FLAGS)
    for name, (check, kwargs) in calls.items():
        with pytest.raises(SpecValidationError) as err:
            check(**kwargs)
        assert err.value.path == name, name


def test_exact_with_a_sampling_time_below_the_minimum_step_exits_2(
    capsys, monkeypatch, spec_path, tmp_path
):
    # it used to integrate to t = T, then exit 3 on a step-size underflow
    path = spec_path("cubic-scalar", T=1e-13)
    out = tmp_path / "traj.json"
    _forbid_work(monkeypatch)
    code, stdout, stderr = _run(
        capsys, "discretize", path, "--x0", "0.5", "--steps", "2", "--exact", "--out", str(out)
    )
    assert code == 2
    assert stderr == "error: T: must be at least the integrator's minimum step 1e-12, got 1e-13\n"
    assert stdout == "" and not out.exists()
    monkeypatch.undo()
    assert _run(capsys, "discretize", path, "--x0", "0.5", "--steps", "2")[0] == 0
    argv = ["convergence", path, "--orders", "1"]
    code, _, stderr = _run(capsys, *argv, "--t-list", "0.2,0.1,1e-13")
    assert code == 2 and stderr.startswith("error: --t-list: ")
    # convergence integrates at its --t-list times, not at the spec's T
    assert _run(capsys, *argv)[0] == 0


def test_load_system_builds_no_point_template(spec_path):
    # the field and Lie templates wait for the first pointwise call
    assert cli.load_system(spec_path("van-der-pol"))._point_templates == {}


def test_constants_on_an_overflowing_jacobian_norm_reads_the_true_scale(capsys, tmp_path):
    # J = exp(x1) reaches e^300 = 1.94e130, whose square is finite but
    # whose ||A^T A v||^2 overflows in the power iteration
    data = {
        "name": "steep",
        "A": [[0.0]],
        "C": [[1.0]],
        "f": ["exp(x1)"],
        "region": {"lower": [-1.0], "upper": [300.0]},
        "T": 0.1,
    }
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "constants.json"
    code, _, stderr = _run(capsys, "constants", str(path), "--pairs", "2000", "--out", str(out))
    assert code == 0 and stderr == ""
    constants = json.loads(out.read_text())["constants"]
    for name in ("gamma_c", "beta", "big_m"):
        assert constants[name] == pytest.approx(math.exp(300.0), rel=1e-12), name


def test_constants_reports_a_jacobian_norm_above_the_largest_float_as_an_overflow(
    capsys, tmp_path
):
    # J has the rows (e^x1, e^x2) twice, so sigma = sqrt(2) * ||(e^x1, e^x2)||
    # exceeds the largest float wherever a coordinate is 709.5, though
    # every J is finite: gamma_c's supremum overflows, and no grid point
    # counts as failed
    data = {
        "name": "twin-exp",
        "A": [[0.0, 0.0], [0.0, 0.0]],
        "C": [[1.0, 0.0]],
        "f": ["exp(x1) + exp(x2)", "exp(x1) + exp(x2)"],
        "region": {"lower": [0.0, 0.0], "upper": [709.5, 709.5]},
        "T": 0.1,
    }
    path = tmp_path / "twin-exp.json"
    path.write_text(json.dumps(data))
    code, _, stderr = _run(capsys, "constants", str(path), "--pairs", "1000", "--grid", "3")
    assert code == 3
    assert stderr == "numerical failure: gamma_c: a grid norm overflows to inf\n"


def test_constants_reports_an_f_norm_above_the_largest_float_naming_big_m(capsys, tmp_path):
    # ||f(+-1.3, +-1.3)|| = 1.84e308 with every f finite; gamma_c, rho_c
    # and beta are finite
    data = {
        "name": "bigm", "A": [[0, 0], [0, 0]], "C": [[1, 0]], "T": 0.1,
        "f": ["1e308*x1", "1e308*x2"], "region": {"lower": [-1.3, -1.3], "upper": [1.3, 1.3]},
    }
    path = tmp_path / "bigm.json"
    path.write_text(json.dumps(data))
    code, stdout, stderr = _run(capsys, "constants", str(path), "--pairs", "1000")
    assert (code, stdout) == (3, "")
    assert stderr == "numerical failure: big_m: a grid norm overflows to inf\n"


@pytest.mark.parametrize("command", ["constants", "bounds", "verify"])
def test_a_norm_above_the_largest_float_names_sigma_bar_a(capsys, tmp_path, command):
    # ||A||_2 = 2e308 while f = 0 leaves every grid and pair constant 0
    data = {
        "name": "bigA", "A": [[1e308, 1e308], [1e308, 1e308]], "C": [[1, 0]], "T": 0.1,
        "f": ["0", "0"], "region": {"lower": [-1, -1], "upper": [1, 1]},
    }
    path = tmp_path / "bigA.json"
    path.write_text(json.dumps(data))
    code, stdout, stderr = _run(capsys, command, str(path), "--pairs", "1000")
    assert (code, stdout) == (3, "")
    assert stderr == (
        "numerical failure: sigma_bar_a: power iteration did not converge, "
        "or the 2-norm overflows\n"
    )


def _exp_spec(tmp_path, lower, upper, t=0.1):
    data = {
        "name": "overflowing",
        "A": [[0.0, 0.0], [0.0, 0.0]],
        "C": [[1.0, 0.0]],
        "f": ["exp(x1) - x2", "x1"],
        "region": {"lower": [lower, -1.0], "upper": [upper, 1.0]},
        "T": t,
    }
    path = tmp_path / "overflowing.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_overflowing_grid_failure_exits_3_without_numpy_warnings(capsys, tmp_path):
    # exp(x1) overflows for x1 > 709.78: J's power iteration overflows at
    # finite points and the pair images hold inf, yet stderr carries only
    # the failure (a RuntimeWarning would be raised as an error here).
    # The grids skip the 21 of 441 points at x1 = 712, and rho_c, whose
    # pair products of finite images near x1 = 709 overflow, is read on
    # scaled rows; the first failure is gamma_c^3 (gamma_c near e^709.78)
    path = _exp_spec(tmp_path, -100.0, 712.0)
    code, _, stderr = _run(capsys, "verify", path, "--order", "3", "--pairs", "1000")
    assert code == 3
    assert stderr == "numerical failure: the order-3 bound formula overflows at T = 0.1\n"


@pytest.mark.parametrize("order", [1, 2, 3])
def test_verify_near_overflow_exits_3_with_one_line(capsys, tmp_path, order):
    # at T = 10, T gamma_c (gamma_c near e^709.78) overflows at every order
    path = _exp_spec(tmp_path, -7000.0, 712.0, t=10.0)
    code, _, stderr = _run(capsys, "verify", path, "--order", str(order), "--pairs", "20000")
    assert code == 3
    assert stderr == f"numerical failure: the order-{order} bound formula overflows at T = 10.0\n"


def test_pair_quotients_whose_products_overflow_are_read(capsys, tmp_path):
    # f = exp(x1) - x2 differs by about 1e308 between pair endpoints, so
    # <df, dx> overflows for x1 far apart though each quotient fits a float
    path = _exp_spec(tmp_path, 0.0, 715.0)
    out = tmp_path / "constants.json"
    code, _, stderr = _run(capsys, "constants", path, "--out", str(out))
    assert (code, stderr) == (0, "")
    rho_c = json.loads(out.read_text())["constants"]["rho_c"]
    assert math.exp(709.0) < rho_c < math.inf  # the sup of exp' where exp is finite
    path = _exp_spec(tmp_path, -7000.0, 712.0)
    code, _, stderr = _run(capsys, "verify", path, "--order", "1", "--pairs", "20000")
    assert (code, stderr) == (0, "")


@pytest.mark.parametrize(
    "f, order, failure",
    [
        # gamma_c**3 and gamma_c**2 overflow (F_T's pair failures come later)
        ("1e103*x1", 3, "the order-3 bound formula overflows at T = 0.1"),
        ("1e155*x1", 2, "the order-2 bound formula overflows at T = 0.1"),
    ],
)
def test_verify_overflowing_quotient_or_formula_exits_3(capsys, tmp_path, f, order, failure):
    data = {
        "name": "steep-linear",
        "A": [[0.0]],
        "C": [[1.0]],
        "f": [f],
        "region": {"lower": [-1.0], "upper": [1.0]},
        "T": 0.1,
    }
    path = tmp_path / "steep-linear.json"
    path.write_text(json.dumps(data))
    code, _, stderr = _run(capsys, "verify", str(path), "--order", str(order), "--pairs", "1000")
    assert code == 3
    assert stderr == f"numerical failure: {failure}\n"


def _steep_spec(tmp_path, a, f, t):
    data = {
        "name": "steep-linear",
        "A": [[a]],
        "C": [[1.0]],
        "f": [f],
        "region": {"lower": [-0.5], "upper": [0.5]},
        "T": t,
    }
    path = tmp_path / "steep-linear.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "f, order, code, gamma_d",
    [
        # F_T differs by about 1e159 and 5e203 between pair endpoints: the
        # square of the difference overflows, the quotient does not.  Order
        # 2 reports rho_d violated: with A = 0 its formula T rho_c lacks the
        # (T^2/2) gamma_c^2 of F_T's one-sided constant
        ("1e160*x1", 1, 0, 1e159),
        ("1e103*x1", 2, 1, 5e203),
    ],
)
def test_verify_reads_an_f_t_quotient_whose_square_overflows(capsys, tmp_path, f, order, code, gamma_d):
    out = tmp_path / "verify.json"
    path = _steep_spec(tmp_path, 0.0, f, 0.1)
    got = _run(capsys, "verify", path, "--order", str(order), "--pairs", "1000", "--out", str(out))
    assert (got[0], got[2]) == (code, "")
    report = json.loads(out.read_text())
    assert report["empirical"]["gamma_d"]["value"] == pytest.approx(gamma_d, rel=1e-9)


def test_verify_stops_f_t_once_rho_c_has_failed(capsys, tmp_path, monkeypatch):
    # ln(x1) fails on x1 <= 0; once rho_c's failures pass 10% of the
    # sample, later chunks evaluate f only, and the failure reads as before
    from lipdisc import discretize

    data = {
        "name": "log", "A": [[0.0, 0.0], [0.0, 0.0]], "C": [[1.0, 0.0]], "T": 0.1,
        "f": ["ln(x1)", "0"], "region": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    }
    path = tmp_path / "log.json"
    path.write_text(json.dumps(data))
    real, rows = discretize.DiscreteModel.f_t_batch, []

    def counting(self, x, u, f=None):
        rows.append(x.shape[0])
        return real(self, x, u, f)

    monkeypatch.setattr(discretize.DiscreteModel, "f_t_batch", counting)
    code, _, stderr = _run(capsys, "verify", str(path), "--order", "3", "--pairs", "200000")
    assert code == 3
    assert stderr == "numerical failure: rho_c: 125145/200008 pair evaluations failed\n"
    assert 0 < sum(rows) <= 4 * discretize._CHUNK_ROWS  # not 2 * 200008


def test_verify_full_map_quotient_above_the_largest_float_exits_3(capsys, tmp_path):
    # a_d = 1 + 1e308 and F_T = 1e308 x: every image fits a float, the
    # full map's quotient 2e308 does not; the order-1 formulas use no sigma
    path = _steep_spec(tmp_path, 1e308, "1e308*x1", 1.0)
    code, _, stderr = _run(capsys, "verify", path, "--order", "1", "--pairs", "1000")
    assert code == 3
    assert stderr == "numerical failure: full-map gamma_d: a pair quotient overflows to inf\n"


# ---------------------------------------------------------------------------
# bounds

def test_cmd_bounds_all_orders(capsys, spec_path, tmp_path):
    out = tmp_path / "bounds.json"
    code, stdout, _ = _run(
        capsys, "bounds", spec_path("pendulum"), "--out", str(out), "--pairs", "2000"
    )
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, OUTPUT_SCHEMAS["bounds"])
    rows = {row["order"]: row for row in payload["bounds"]}
    assert set(rows) == {1, 2, 3}
    assert rows[3]["rho_d"] is None
    assert rows[1]["gamma_d"] == pytest.approx(0.1, abs=1e-6)


# ---------------------------------------------------------------------------
# verify

def test_cmd_verify_pendulum_order1_passes(capsys, spec_path, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = _run(
        capsys, "verify", spec_path("pendulum"), "--order", "1", "--out", str(out)
    )
    assert code == 0
    assert "PASS" in stdout
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, OUTPUT_SCHEMAS["verify"])
    assert payload["passed"]["all"] is True
    # Euler tightness: the margin is essentially zero
    assert abs(payload["margins"]["gamma_d"]) <= 1e-6


def test_cmd_verify_linear_any_order(capsys, spec_path, tmp_path):
    for order in ("1", "2", "3"):
        code, _, _ = _run(
            capsys, "verify", spec_path("linear-2d"), "--order", order,
            "--pairs", "2000", "--grid", "7",
        )
        assert code == 0


def test_cmd_verify_large_t_violation_is_exit_1(capsys, spec_path, tmp_path):
    # at T = 1 the order-2 formula loses to the measured constant on the
    # cubic benchmark (the formula omits the Jacobian variation term);
    # the report is still written and the exit code flags the finding
    out = tmp_path / "violation.json"
    code, stdout, _ = _run(
        capsys, "verify", spec_path("cubic-scalar", T=1.0), "--order", "2",
        "--out", str(out), "--pairs", "4000",
    )
    assert code == 1
    assert "VIOLATED" in stdout
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, OUTPUT_SCHEMAS["verify"])
    assert payload["passed"]["all"] is False
    assert payload["margins"]["gamma_d"] < 0


def test_cmd_verify_byte_identical_reports(capsys, spec_path, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = _run(
            capsys, "verify", spec_path("van-der-pol"), "--order", "2",
            "--seed", "42", "--pairs", "3000", "--grid", "9", "--out", str(path),
        )
        assert code == 0
    docs = []
    for path in paths:
        doc = json.loads(path.read_text())
        doc.pop("timestamp")
        docs.append(dumps_json(doc))
    assert docs[0] == docs[1]


# ---------------------------------------------------------------------------
# discretize

def test_cmd_discretize_zero_steps(capsys, spec_path, tmp_path):
    out = tmp_path / "traj.json"
    code, _, _ = _run(
        capsys, "discretize", spec_path("pendulum"), "--x0", "0.1,0.2",
        "--steps", "0", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, OUTPUT_SCHEMAS["discretize"])
    assert len(payload["states"]) == 1


def test_cmd_discretize_linear_matches_matrix_powers(capsys, spec_path, tmp_path):
    out = tmp_path / "traj.json"
    code, _, _ = _run(
        capsys, "discretize", spec_path("linear-2d"), "--x0", "0.2,-0.1",
        "--steps", "4", "--order", "1", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    spec = benchmarks.load("linear-2d")
    a_d = np.eye(2) + spec.sampling_time * spec.a
    state = np.array([0.2, -0.1])
    for k, row in enumerate(payload["states"]):
        np.testing.assert_allclose(row, state, rtol=1e-12, atol=1e-15)
        state = a_d @ state
    np.testing.assert_allclose(
        payload["outputs"], np.asarray(payload["states"]) @ spec.c.T, rtol=1e-12
    )


def test_cmd_discretize_exact_errors_improve_with_order(capsys, spec_path, tmp_path):
    max_err = {}
    for order in ("1", "2"):
        out = tmp_path / f"traj-{order}.json"
        code, _, _ = _run(
            capsys, "discretize", spec_path("pendulum"), "--x0", "0.5,0.0",
            "--steps", "20", "--order", order, "--exact", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, OUTPUT_SCHEMAS["discretize"])
        max_err[order] = max(payload["errors"])
    assert max_err["2"] < max_err["1"]


def test_cmd_discretize_dimension_mismatch_exits_2(capsys, spec_path):
    code, _, stderr = _run(
        capsys, "discretize", spec_path("pendulum"), "--x0", "0.1", "--steps", "1"
    )
    assert code == 2
    assert "--x0" in stderr


@pytest.mark.parametrize("x0", ["nan,0", "inf,0", "0,-inf", "1e400,0"])
def test_cmd_discretize_nonfinite_x0_exits_2(capsys, spec_path, tmp_path, x0):
    out = tmp_path / "traj.json"
    code, _, stderr = _run(
        capsys, "discretize", spec_path("pendulum"), "--x0=" + x0, "--steps", "2",
        "--out", str(out),
    )
    assert code == 2
    assert "--x0" in stderr and "finite" in stderr
    assert not out.exists()


@pytest.mark.parametrize("write_out", [False, True])
def test_cmd_discretize_overflowing_trajectory_exits_3(capsys, spec_path, tmp_path, write_out):
    out = tmp_path / "traj.json"
    argv = ["discretize", spec_path("cubic-scalar"), "--order", "3", "--x0=1e120", "--steps", "3"]
    with pytest.warns(UserWarning, match="leaves the region"):
        code, stdout, stderr = _run(capsys, *argv, *(["--out", str(out)] if write_out else []))
    assert code == 3
    assert stderr == "numerical failure: states: first non-finite value at step 1\n"
    assert stdout == "" and not out.exists()


def test_cmd_discretize_overflowing_outputs_exit_3(capsys, spec_path):
    # the suite turns a RuntimeWarning into an error: each overflow is reported once, as exit 3
    cases = [
        ({"C": [[1e308, 1e308]]}, ("--x0", "1,1"), "outputs: first non-finite value at step 0"),
        ({}, ("--x0", "1e200,1e200", "--exact"), "errors: first non-finite value at step 1"),
    ]
    for overrides, argv, message in cases:
        path = spec_path("linear-2d", **overrides)
        with pytest.warns(UserWarning, match="leaves the region"):
            code, stdout, stderr = _run(capsys, "discretize", path, *argv, "--steps", "2")
        assert code == 3
        assert stderr == f"numerical failure: {message}\n"
        assert stdout == ""


def test_cmd_discretize_nonfinite_constant_input_exits_2(capsys, spec_path):
    code, _, stderr = _run(
        capsys, "discretize", spec_path("van-der-pol"), "--x0", "0.1,0.1",
        "--steps", "3", "--inputs", "nan",
    )
    assert code == 2
    assert "--inputs" in stderr and "finite" in stderr


def test_cmd_discretize_nonfinite_input_file_exits_2(capsys, spec_path, tmp_path):
    inputs = tmp_path / "inputs.json"
    inputs.write_text("[[0.1], [NaN], [0.0]]")
    code, _, stderr = _run(
        capsys, "discretize", spec_path("van-der-pol"), "--x0", "0.0,0.0",
        "--steps", "3", "--inputs", str(inputs),
    )
    assert code == 2
    assert "--inputs" in stderr and "finite" in stderr


def test_cmd_discretize_non_numeric_input_file_exits_2(capsys, spec_path, tmp_path):
    inputs = tmp_path / "inputs.json"
    inputs.write_text('[["a"], [1]]')
    code, _, stderr = _run(
        capsys, "discretize", spec_path("van-der-pol"), "--x0", "0.0,0.0",
        "--steps", "2", "--inputs", str(inputs),
    )
    assert code == 2
    assert "--inputs" in stderr


def test_cmd_discretize_constant_input(capsys, spec_path, tmp_path):
    out = tmp_path / "traj.json"
    code, _, _ = _run(
        capsys, "discretize", spec_path("van-der-pol"), "--x0", "0.1,0.1",
        "--steps", "3", "--inputs", "0.2", "--out", str(out),
    )
    assert code == 0
    assert len(json.loads(out.read_text())["states"]) == 4


def test_cmd_discretize_input_file(capsys, spec_path, tmp_path):
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps([[0.1], [-0.1], [0.0]]))
    code, _, _ = _run(
        capsys, "discretize", spec_path("van-der-pol"), "--x0", "0.0,0.0",
        "--steps", "3", "--inputs", str(inputs),
    )
    assert code == 0


def test_cmd_discretize_input_free_spec_reads_empty_rows(capsys, spec_path, tmp_path):
    inputs = tmp_path / "inputs.json"
    inputs.write_text("[[], []]")
    out, plain = tmp_path / "traj.json", tmp_path / "plain.json"
    argv = ["discretize", spec_path("pendulum"), "--x0", "0.1,0.2", "--steps", "2"]
    code, _, _ = _run(capsys, *argv, "--inputs", str(inputs), "--out", str(out))
    assert code == 0
    assert _run(capsys, *argv, "--out", str(plain))[0] == 0
    assert json.loads(out.read_text())["states"] == json.loads(plain.read_text())["states"]


@pytest.mark.parametrize("rows", ["[[], [], []]", "[]", "[[1], [2]]"])
def test_cmd_discretize_input_free_spec_wrong_rows_exit_2(capsys, spec_path, tmp_path, rows):
    inputs = tmp_path / "inputs.json"
    inputs.write_text(rows)
    code, _, stderr = _run(
        capsys, "discretize", spec_path("pendulum"), "--x0", "0.1,0.2",
        "--steps", "2", "--inputs", str(inputs),
    )
    assert code == 2
    assert "--inputs" in stderr


@pytest.mark.parametrize("steps", ["2", "4"])
def test_cmd_discretize_input_rows_of_the_wrong_width_exit_2(capsys, spec_path, tmp_path, steps):
    # van-der-pol has m = 1: two rows of two inputs are two steps of the
    # wrong width, not four steps of one input
    inputs = tmp_path / "inputs.json"
    inputs.write_text("[[0.1, 0.2], [0.3, 0.4]]")
    code, stdout, stderr = _run(
        capsys, "discretize", spec_path("van-der-pol"), "--x0", "0.0,0.0",
        "--steps", steps, "--inputs", str(inputs),
    )
    assert code == 2
    assert stderr == "error: --inputs: expected rows of m = 1 numbers, got shape (2, 2)\n"
    assert stdout == ""


def test_cmd_discretize_constant_input_of_the_wrong_width_exits_2(capsys, spec_path):
    code, stdout, stderr = _run(
        capsys, "discretize", spec_path("van-der-pol"), "--x0", "0.0,0.0", "--inputs", "0.1,0.2"
    )
    assert code == 2
    assert stderr == "error: --inputs: expected rows of m = 1 numbers, got shape (1, 2)\n"
    assert stdout == ""


def test_cmd_discretize_flat_input_file_for_one_input(capsys, spec_path, tmp_path):
    flat, rows = tmp_path / "flat.json", tmp_path / "rows.json"
    flat.write_text("[0.1, -0.1, 0.0]")
    rows.write_text("[[0.1], [-0.1], [0.0]]")
    argv = ["discretize", spec_path("van-der-pol"), "--x0", "0.1,0.1", "--steps", "3"]
    outs = []
    for inputs in (flat, rows):
        outs.append(tmp_path / f"traj-{inputs.name}")
        assert _run(capsys, *argv, "--inputs", str(inputs), "--out", str(outs[-1]))[0] == 0
    assert json.loads(outs[0].read_text())["states"] == json.loads(outs[1].read_text())["states"]


@pytest.mark.parametrize("steps", ["0", "2"])
@pytest.mark.parametrize("tol", ["1e-3", "1e-14", "nan"])
def test_cmd_discretize_exact_bad_tol_exits_2(capsys, spec_path, tmp_path, steps, tol):
    out = tmp_path / "traj.json"
    code, _, stderr = _run(
        capsys, "discretize", spec_path("pendulum"), "--x0", "0.1,0.2", "--steps", steps,
        "--exact", "--tol", tol, "--out", str(out),
    )
    assert code == 2
    assert "--tol" in stderr and "must lie in [1e-13, 1e-6]" in stderr
    assert not out.exists()


def test_cmd_discretize_ignores_tol_without_exact(capsys, spec_path):
    code, _, _ = _run(
        capsys, "discretize", spec_path("pendulum"), "--x0", "0.1,0.2", "--steps", "2",
        "--tol", "1e-3",
    )
    assert code == 0


# ---------------------------------------------------------------------------
# convergence

def test_cmd_convergence(capsys, spec_path, tmp_path):
    out = tmp_path / "conv.json"
    code, stdout, _ = _run(
        capsys, "convergence", spec_path("pendulum"), "--orders", "1,2",
        "--t-list", "0.2,0.1,0.05,0.025", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, OUTPUT_SCHEMAS["convergence"])
    assert abs(payload["orders"]["1"]["slope"] - 2.0) <= 0.3
    assert abs(payload["orders"]["2"]["slope"] - 3.0) <= 0.3


def test_cmd_convergence_too_few_sampling_times(capsys, spec_path):
    code, _, stderr = _run(
        capsys, "convergence", spec_path("pendulum"), "--t-list", "0.1,0.05"
    )
    assert code == 2
    assert "--t-list" in stderr


def test_cmd_convergence_repeated_sampling_times_exit_2(capsys, spec_path):
    code, stdout, stderr = _run(
        capsys, "convergence", spec_path("pendulum"), "--t-list", "0.1,0.1,0.1"
    )
    assert code == 2
    assert "--t-list" in stderr and "distinct" in stderr
    assert stdout == ""


def test_cmd_convergence_sampling_time_below_minimum_step_exits_2(capsys, spec_path):
    # 1e-300 used to reach the integrator and exit 3 on a step-size underflow
    code, stdout, stderr = _run(
        capsys, "convergence", spec_path("pendulum"), "--t-list", "0.2,0.1,1e-300",
        "--orders", "1",
    )
    assert code == 2
    assert "--t-list" in stderr and "minimum step" in stderr
    assert stdout == ""


def test_cmd_convergence_non_integer_orders_exit_2(capsys, spec_path):
    code, _, stderr = _run(capsys, "convergence", spec_path("pendulum"), "--orders", "a")
    assert code == 2
    assert "--orders" in stderr


def test_cmd_convergence_no_orders_exits_2(capsys, spec_path, tmp_path):
    out = tmp_path / "conv.json"
    code, _, stderr = _run(
        capsys, "convergence", spec_path("pendulum"), "--orders", ",", "--out", str(out)
    )
    assert code == 2
    assert "--orders" in stderr
    assert not out.exists()


@pytest.mark.parametrize("tol", ["1e-3", "1e-14", "nan"])
def test_cmd_convergence_bad_tol_exits_2(capsys, spec_path, tmp_path, tol):
    out = tmp_path / "conv.json"
    code, stdout, stderr = _run(
        capsys, "convergence", spec_path("pendulum"), "--tol", tol, "--out", str(out)
    )
    assert code == 2
    assert "--tol" in stderr and "must lie in [1e-13, 1e-6]" in stderr
    assert stdout == ""
    assert not out.exists()
