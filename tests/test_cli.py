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

from lipdisc import benchmarks
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
