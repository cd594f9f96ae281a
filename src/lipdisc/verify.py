"""Empirical checks of the discrete constant formulas against the maps.

The estimators measure the nonlinear part F_T alone, matching the
per-part structure of the discrete family (the linear part a_d is
handled exactly through its singular value); the full-map constant is
also reported for information.  One pair sample serves the whole
report (rho_c included), reduced in one pass of chunks of 16,384 rows
(``constants.sup_pair_quotient``).  Per chunk, f is evaluated once per
pair endpoint and feeds both rho_c's quotient and F_T's series; the
two-sided, one-sided and full-map quotients all derive from the two F_T
images, the full map as x a_d^T + F_T.  So no image array of the whole
sample exists: at 200k pairs on the 4-state probe the pass holds 4.6 MB
(order 1) to 8.8 MB (order 3) beside the 13.7 MB sample (tracemalloc).
Failures surface in the order gamma_c grid, rho_c pairs, beta/M grid,
bound formula, F_T pairs, so once rho_c has failed the later chunks
evaluate f only; a quotient of finite images above the largest float or
a formula that overflows raises NumericalError.  A bound passes when

    formula >= empirical - tol_verify,
    tol_verify = 1e-9 + 1e-6 |formula|,

absolute plus relative slack that absorbs floating-point noise without
hiding real violations.  Witness pairs are always included so a
violation can be reproduced from the report alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import bounds as bnd
from .constants import (
    ConstantEstimates,
    SamplingConfig,
    estimate_all,
    sample_pairs,
    sup_pair_quotient,
)
from .discretize import _MIN_STEP, ORDERS, ExactMap, build_taylor_model
from .system import SpecValidationError, SystemSpec

_CONVERGENCE_POINTS = 25  # seeded sample size of the convergence study


def verify_tolerance(formula: float) -> float:
    return 1e-9 + 1e-6 * abs(formula)


@dataclass
class VerificationReport:
    system: str
    order: int
    sampling_time: float
    constants: ConstantEstimates
    formula_gamma_d: float
    formula_rho_d: float | None
    empirical_gamma_d: float
    empirical_gamma_witness: dict
    empirical_rho_d: float
    empirical_rho_witness: dict
    full_map_gamma_d: float
    gamma_margin: float
    rho_margin: float | None
    gamma_pass: bool
    rho_pass: bool | None
    gamma_tol: float
    rho_tol: float | None
    config: SamplingConfig
    timestamp: str

    @property
    def all_passed(self) -> bool:
        return self.gamma_pass and (self.rho_pass is not False)

    def to_jsonable(self) -> dict:
        return {
            "system": self.system,
            "order": self.order,
            "T": self.sampling_time,
            "constants": self.constants.to_jsonable(),
            "bounds": {"gamma_d": self.formula_gamma_d, "rho_d": self.formula_rho_d},
            "empirical": {
                "gamma_d": {
                    "value": self.empirical_gamma_d,
                    "witness": self.empirical_gamma_witness,
                },
                "rho_d": {
                    "value": self.empirical_rho_d,
                    "witness": self.empirical_rho_witness,
                },
                "full_map_gamma_d": self.full_map_gamma_d,
            },
            "margins": {"gamma_d": self.gamma_margin, "rho_d": self.rho_margin},
            "tolerances": {"gamma_d": self.gamma_tol, "rho_d": self.rho_tol},
            "passed": {
                "gamma_d": self.gamma_pass,
                "rho_d": self.rho_pass,
                "all": self.all_passed,
            },
            "config": self.config.to_jsonable(),
            "timestamp": self.timestamp,
        }


def verify_bounds(s: SystemSpec, order: int, cfg: SamplingConfig) -> VerificationReport:
    """Full pipeline: constants, formula bounds, empirical constants,
    margins and pass flags for one order."""
    pairs = sample_pairs(s, cfg)
    mdl = build_taylor_model(s, order)
    x1, x2, u = pairs.x1, pairs.x2, pairs.u

    def images(rows):  # f once per endpoint, for rho_c and F_T
        a, b, w = x1[rows], x2[rows], u[rows]
        f1, f2 = s.eval_f_batch(a, w), s.eval_f_batch(b, w)
        yield f1, f2  # once rho_c has failed, the pass asks for nothing more
        m1, m2 = mdl.f_t_batch(a, w, f1), mdl.f_t_batch(b, w, f2)
        yield m1, m2
        yield m1, m2
        # the complete map a_d x + F_T, reported for information
        yield a @ mdl.a_d.T + m1, b @ mdl.a_d.T + m2

    rho_c, gamma_d, rho_d, full_map = sup_pair_quotient(
        pairs, images, (True, False, True, False)
    )
    constants = estimate_all(s, cfg, rho_c=rho_c)
    t = s.sampling_time
    result = bnd.evaluate_bounds(order, t, constants)
    emp_gamma, gamma_wit = gamma_d.result("empirical gamma_d")
    emp_rho, rho_wit = rho_d.result("empirical rho_d")
    full_map, _ = full_map.result("full-map gamma_d")

    gamma_tol = verify_tolerance(result.gamma_d)
    gamma_margin = result.gamma_d - emp_gamma
    gamma_pass = gamma_margin >= -gamma_tol
    if result.rho_d is None:
        rho_tol = rho_margin = rho_pass = None
    else:
        rho_tol = verify_tolerance(result.rho_d)
        rho_margin = result.rho_d - emp_rho
        rho_pass = rho_margin >= -rho_tol

    return VerificationReport(
        system=s.name,
        order=order,
        sampling_time=t,
        constants=constants,
        formula_gamma_d=result.gamma_d,
        formula_rho_d=result.rho_d,
        empirical_gamma_d=emp_gamma,
        empirical_gamma_witness=gamma_wit,
        empirical_rho_d=emp_rho,
        empirical_rho_witness=rho_wit,
        full_map_gamma_d=full_map,
        gamma_margin=gamma_margin,
        rho_margin=rho_margin,
        gamma_pass=gamma_pass,
        rho_pass=rho_pass,
        gamma_tol=gamma_tol,
        rho_tol=rho_tol,
        config=cfg,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


# ---------------------------------------------------------------------------
# convergence study

@dataclass
class ConvergenceStudy:
    t_values: list[float]
    errors: dict  # order -> list of max local errors, aligned with t_values
    slopes: dict  # order -> fitted slope of log error vs log T

    def to_jsonable(self) -> dict:
        return {
            "t_values": list(self.t_values),
            "orders": {
                str(k): {"max_local_errors": self.errors[k], "slope": self.slopes[k]}
                for k in sorted(self.errors)
            },
        }


def convergence_study(
    s: SystemSpec,
    orders,
    t_values,
    cfg: SamplingConfig | None = None,
    integrator_tol: float = 1e-12,
) -> ConvergenceStudy:
    """Fit the local truncation error order of each Taylor map.

    For each T, the max over a seeded sample of _CONVERGENCE_POINTS
    points of the gap between the exact map and the order-k model is
    recorded; the least-squares slope of log error against log T should
    be close to k + 1.  Points are drawn from the central half of the
    region (and inputs from U) so the series stays well inside its
    convergence zone.  Every argument is checked before any work.
    """
    t_values = [float(t) for t in t_values]
    if len(set(t_values)) < 3:
        raise SpecValidationError("t_values", "need at least 3 distinct sampling times")
    if min(t_values) < _MIN_STEP:
        raise SpecValidationError(
            "t_values", f"sampling times must be at least the integrator's minimum step {_MIN_STEP}"
        )
    orders = sorted(set(int(k) for k in orders))
    if not orders:
        raise SpecValidationError("orders", "need at least one order")
    if not set(orders) <= set(ORDERS):
        raise SpecValidationError("orders", f"must be among {ORDERS}, got {orders}")
    exact_maps = [ExactMap(s.with_sampling_time(t), integrator_tol) for t in t_values]
    seed = cfg.seed if cfg is not None else 42
    rng = np.random.default_rng(seed)
    inner = s.region.scaled(0.5)
    xs = inner.lower + rng.random((_CONVERGENCE_POINTS, s.n)) * inner.width
    us = s.input_region.lower + rng.random((_CONVERGENCE_POINTS, s.m)) * s.input_region.width

    errors: dict[int, list[float]] = {k: [] for k in orders}
    for exact_map in exact_maps:
        exact = np.array([exact_map(x, u) for x, u in zip(xs, us)])
        for k in orders:
            model = build_taylor_model(exact_map.spec, k)
            approx = np.array([model(x, u) for x, u in zip(xs, us)])
            gap = np.max(np.linalg.norm(exact - approx, axis=1))
            errors[k].append(float(max(gap, 1e-300)))

    log_t = np.log(np.asarray(t_values))
    slopes = {}
    for k in orders:
        slope, _ = np.polyfit(log_t, np.log(np.asarray(errors[k])), 1)
        slopes[k] = float(slope)
    return ConvergenceStudy(t_values=t_values, errors=errors, slopes=slopes)
