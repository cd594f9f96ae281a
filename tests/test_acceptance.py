"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from lipdisc import (
    BoxRegion,
    ConstantEstimates,
    DiscreteModel,
    ExactMap,
    SystemSpec,
    benchmarks,
    convergence_study,
    estimate_all,
    evaluate_bounds,
    parse,
    verify_bounds,
)
from lipdisc.cli import dumps_json, main
from lipdisc.constants import sample_pairs

from conftest import (
    central_diff,
    empirical_gamma_c,
    empirical_lipschitz,
    empirical_one_sided,
    expm,
    rho_c_of,
    sample_points,
)


def _report(criterion: str, passed: bool, detail: str = ""):
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} {detail}".rstrip())
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_euler_exactness(bench, default_cfg):
    """Order-1 empirical constants equal T times the continuous ones."""
    worst_two, worst_one, slowest = 0.0, 0.0, 0.0
    for name, spec in bench.items():
        started = time.perf_counter()
        pairs = sample_pairs(spec, default_cfg)
        mdl = DiscreteModel(spec, 1)
        t = spec.sampling_time

        discrete_two, _ = empirical_lipschitz(mdl, spec, default_cfg, pairs=pairs)
        continuous_two, _ = empirical_gamma_c(spec, default_cfg, pairs=pairs)
        rel_two = (
            abs(discrete_two - t * continuous_two) / (t * continuous_two)
            if continuous_two
            else abs(discrete_two)
        )

        discrete_one, _ = empirical_one_sided(mdl, spec, default_cfg, pairs=pairs)
        continuous_one, _ = rho_c_of(spec, default_cfg)
        scale = max(1e-12, abs(t * continuous_one))
        rel_one = abs(discrete_one - t * continuous_one) / scale

        elapsed = time.perf_counter() - started
        worst_two = max(worst_two, rel_two)
        worst_one = max(worst_one, rel_one)
        slowest = max(slowest, elapsed)
    _report(
        "1 Euler exactness",
        worst_two <= 1e-9 and worst_one <= 1e-9 and slowest < 10.0,
        f"rel(two-sided)={worst_two:.2e} rel(one-sided)={worst_one:.2e} slowest={slowest:.2f}s",
    )


def test_criterion_2_formula_transcription():
    """Formula unit vectors, exact to 1e-15 relative."""

    def c(gamma=0.0, rho=0.0, beta=0.0, big_m=0.0, sigma=0.0):
        return ConstantEstimates(
            gamma_c=gamma, rho_c=rho, beta=beta, big_m=big_m, sigma_bar_a=sigma
        )

    checks = [
        (evaluate_bounds(1, 0.1, c(gamma=2.0))["gamma_d"], 0.2),
        (evaluate_bounds(2, 0.1, c(gamma=1.0, sigma=2.0))["gamma_d"], 0.125),
        (evaluate_bounds(2, 0.1, c(gamma=1.0, rho=0.0, sigma=2.0))["rho_d"], 0.01),
        # 4733/24000, computed once with exact rational arithmetic for
        # T=1/10, gamma=3/2, sigma=2, beta=1/2, M=3, and frozen
        (evaluate_bounds(3, 0.1, c(gamma=1.5, sigma=2.0, beta=0.5, big_m=3.0))["gamma_d"],
         0.19720833333333335),
    ]
    worst = max(abs(got - want) / abs(want) for got, want in checks)
    _report("2 formula transcription", worst <= 1e-15, f"worst rel={worst:.2e}")


def test_criterion_3_linear_consistency():
    """f = 0: a_d matches the truncated series, ExactMap matches expm."""
    rng = np.random.default_rng(2718)
    worst_trunc, worst_exact = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        x = rng.uniform(-1.0, 1.0, size=n)
        for t in (0.01, 0.1):
            spec = SystemSpec(
                name="random-linear",
                a=a,
                c=np.eye(n),
                f=tuple(parse("0") for _ in range(n)),
                region=BoxRegion(-np.ones(n), np.ones(n)),
                sampling_time=t,
            )
            for order in (1, 2, 3):
                mdl = DiscreteModel(spec, order)
                series = np.eye(n)
                term = np.eye(n)
                for l in range(1, order + 1):
                    term = term @ a * (t / l)
                    series = series + term
                worst_trunc = max(worst_trunc, float(np.max(np.abs(mdl.a_d - series))))
            gap = np.array(ExactMap(spec)(x)) - expm(a, t) @ x
            scale = max(1.0, float(np.max(np.abs(expm(a, t) @ x))))
            worst_exact = max(worst_exact, float(np.max(np.abs(gap))) / scale)
    _report(
        "3 linear-system consistency",
        worst_trunc <= 1e-13 and worst_exact <= 1e-9,
        f"truncation={worst_trunc:.2e} exact-vs-expm={worst_exact:.2e}",
    )


def test_criterion_4_convergence_orders(bench, default_cfg):
    """Local-error slope within 0.3 of k+1 for k = 1, 2, 3."""
    started = time.perf_counter()
    t_values = (0.2, 0.1, 0.05, 0.025)
    details = []
    ok = True
    for name in ("pendulum", "cubic-scalar"):
        study = convergence_study(bench[name], (1, 2, 3), t_values, default_cfg.seed)
        for k in (1, 2, 3):
            slope = study.slopes[k]
            ok = ok and abs(slope - (k + 1)) <= 0.3
            details.append(f"{name} k={k}: {slope:.2f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    _report("4 convergence orders", ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_5_derivative_correctness(bench):
    """Symbolic Jacobian and second derivative vs central differences."""
    worst = 0.0
    for name, spec in bench.items():
        xs, us = sample_points(spec, 100, seed=31415)
        for x, u in zip(xs, us):
            jac = spec.jacobian(x, u)
            hess = spec.second_derivative_batch(x[None], u[None])[0]
            for i in range(spec.n):
                for j in range(spec.n):
                    fd = central_diff(lambda pt: spec.eval_f_batch(pt[None], u[None])[0, i], x, j)
                    gap = abs(jac[i, j] - fd) / max(1.0, abs(jac[i, j]))
                    worst = max(worst, gap)
                    for k in range(spec.n):
                        fd2 = central_diff(lambda pt: spec.jacobian(pt, u)[i, j], x, k)
                        gap2 = abs(hess[i, j, k] - fd2) / max(1.0, abs(hess[i, j, k]))
                        worst = max(worst, gap2)
    _report("5 derivative correctness", worst <= 1e-6, f"worst scaled error={worst:.2e}")


def test_criterion_6_bound_domination_small_t(bench, default_cfg):
    """At T = 0.05 every formula dominates its measured constant."""
    details = []
    ok = True
    for name, spec in bench.items():
        spec_t = spec.with_sampling_time(0.05)
        for order in (1, 2, 3):
            report = verify_bounds(spec_t, order, default_cfg)
            ok = ok and report.passed["gamma_d"] and (report.passed["rho_d"] is not False)
            details.append(
                f"{name} k={order}: gamma margin {report.margins['gamma_d']:.2e}"
                + (
                    f", rho margin {report.margins['rho_d']:.2e}"
                    if report.margins["rho_d"] is not None
                    else ""
                )
            )
    _report("6 bound domination at T=0.05", ok, "; ".join(details))


def test_criterion_7_determinism(bench, tmp_path, capsys):
    """Identical verify invocations yield byte-identical reports."""
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(benchmarks.load_dict("pendulum")))
    rendered = []
    for tag in ("a", "b"):
        out = tmp_path / f"report-{tag}.json"
        code = main(
            ["verify", str(spec_file), "--order", "2", "--seed", "42",
             "--pairs", "5000", "--grid", "11", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        doc.pop("timestamp")
        rendered.append(dumps_json(doc))
    _report("7 determinism", rendered[0] == rendered[1])


def test_criterion_8_one_sided_ordering(bench, default_cfg):
    """rho_c <= gamma_c everywhere; the cubic benchmark hits 0 and 12."""
    ok = True
    details = []
    for name, spec in bench.items():
        est = estimate_all(spec, default_cfg)
        gamma, rho = est.gamma_c, est.rho_c
        ok = ok and rho <= gamma + 1e-9
        if name == "cubic-scalar":
            ok = ok and abs(rho) <= 1e-3 and abs(gamma - 12.0) <= 1e-2
            details.append(f"cubic rho={rho:.2e} gamma={gamma:.6f}")
    _report("8 one-sided ordering", ok, "; ".join(details))
