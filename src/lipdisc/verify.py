"""Empirical checks of the discrete constant formulas against the maps.

The estimators measure the nonlinear part F_T alone, matching the
per-part structure of the discrete family (the linear part a_d is
handled exactly through its singular value); the full-map constant is
also reported for information.  One pair sample serves the whole
report (rho_c included), reduced in one pass of chunks of
``discretize._CHUNK_ROWS`` rows (``constants.sup_pair_quotient``).
Per chunk, f is evaluated once per pair endpoint and feeds both rho_c's
quotient and F_T's series; the two-sided, one-sided and full-map
quotients all derive from the two F_T images, the full map as
x a_d^T + F_T.  So no image array of the whole sample exists: at 200k
pairs on the 4-state probe the pass holds 4.6 MB (order 1) to 8.8 MB
(order 3) beside the 13.7 MB sample (tracemalloc).  Failures surface
in the order gamma_c grid, rho_c pairs, beta/M grid, bound formula,
F_T pairs, so once rho_c has failed the later chunks evaluate f only;
a quotient of finite images above the largest float or a formula that
overflows raises NumericalError.  A bound passes when

    formula >= empirical - tol_verify,
    tol_verify = 1e-9 + 1e-6 |formula|,

absolute plus relative slack that absorbs floating-point noise without
hiding real violations.  The report keeps one record per checked
constant, keyed ``gamma_d`` and ``rho_d`` like ``bounds.evaluate_bounds``,
and one rule gives every key its margin, tolerance and pass flag
(None for all three where the order has no formula).  Witness pairs are
always included so a violation can be reproduced from the report alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import bounds as bnd
from .constants import (
    ConstantEstimates,
    NumericalError,
    SamplingConfig,
    estimate_all,
    sample_pairs,
    sup_pair_quotient,
)
from .discretize import DiscreteModel, ExactMap, _check_order
from .system import SpecValidationError, SystemSpec, _sampling_time

_CONVERGENCE_POINTS = 25  # seeded sample size of the convergence study


def verify_tolerance(formula: float) -> float:
    return 1e-9 + 1e-6 * abs(formula)


@dataclass
class VerificationReport:
    """One order's check, keyed by constant name (``gamma_d``, ``rho_d``):
    ``bounds`` maps each to its formula value (None without a formula)
    and ``empirical`` to its measured (value, witness).  ``margins``,
    ``tolerances`` and ``passed`` derive from those two by one rule; a
    constant without a formula reads None in all three."""

    system: str
    order: int
    sampling_time: float
    constants: ConstantEstimates
    bounds: dict
    empirical: dict
    full_map_gamma_d: float
    config: SamplingConfig
    timestamp: str
    margins: dict = field(init=False)
    tolerances: dict = field(init=False)
    passed: dict = field(init=False)

    def __post_init__(self):
        self.margins, self.tolerances, self.passed = {}, {}, {}
        for key, formula in self.bounds.items():
            margin = tol = ok = None
            if formula is not None:
                margin, tol = formula - self.empirical[key][0], verify_tolerance(formula)
                ok = margin >= -tol
            self.margins[key], self.tolerances[key], self.passed[key] = margin, tol, ok

    @property
    def all_passed(self) -> bool:
        return all(ok is not False for ok in self.passed.values())

    def to_jsonable(self) -> dict:
        empirical = {key: {"value": v, "witness": w} for key, (v, w) in self.empirical.items()}
        return {
            "system": self.system,
            "order": self.order,
            "T": self.sampling_time,
            "constants": self.constants.to_jsonable(),
            "bounds": dict(self.bounds),
            "empirical": {**empirical, "full_map_gamma_d": self.full_map_gamma_d},
            "margins": dict(self.margins),
            "tolerances": dict(self.tolerances),
            "passed": {**self.passed, "all": self.all_passed},
            "config": self.config.to_jsonable(),
            "timestamp": self.timestamp,
        }


def verify_bounds(s: SystemSpec, order: int, cfg: SamplingConfig) -> VerificationReport:
    """Full pipeline: constants, formula bounds, empirical constants,
    margins and pass flags for one order."""
    mdl = DiscreteModel(s, order)  # the order is checked before the sample is drawn
    pairs = sample_pairs(s, cfg)
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

    rho_c, *checked, full_map = sup_pair_quotient(pairs, images, (True, False, True, False))
    constants = estimate_all(s, cfg, rho_c=rho_c)
    t = s.sampling_time
    bounds = bnd.evaluate_bounds(mdl.order, t, constants)
    # F_T's two-sided and one-sided quotients, in the order of the keys
    empirical = {key: sup.result(f"empirical {key}") for key, sup in zip(bounds, checked)}
    full_map, _ = full_map.result("full-map gamma_d")
    return VerificationReport(
        system=s.name,
        order=mdl.order,
        sampling_time=t,
        constants=constants,
        bounds=bounds,
        empirical=empirical,
        full_map_gamma_d=full_map,
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
    s: SystemSpec, orders, t_values, seed: int = SamplingConfig.seed, tol: float = ExactMap.tol
) -> ConvergenceStudy:
    """Fit the local truncation error order of each Taylor map.

    For each T, the max over _CONVERGENCE_POINTS points drawn with
    ``seed`` of the gap between ``ExactMap`` at ``tol`` and the order-k
    model is recorded; the least-squares slope of log error against
    log T should be close to k + 1.  Points are drawn from the central
    half of the region (and inputs from U) so the series stays well
    inside its convergence zone.  Every argument is checked before any
    work.  A gap that is not finite, or no larger than the rounding
    level 64 eps max(1, max |exact state|) at its T, raises
    NumericalError: its slope would fit rounding, not truncation.
    """
    t_values = [_sampling_time(t, "t_values") for t in t_values]
    if len(set(t_values)) < 3:
        raise SpecValidationError("t_values", "need at least 3 distinct sampling times")
    orders = sorted(set(_check_order(k, "orders") for k in orders))
    if not orders:
        raise SpecValidationError("orders", "need at least one order")
    exact_maps = [ExactMap(s.with_sampling_time(t), tol) for t in t_values]
    rng = np.random.default_rng(SamplingConfig(seed=seed).seed)
    inner = s.region.scaled(0.5)
    xs = inner.lower + rng.random((_CONVERGENCE_POINTS, s.n)) * inner.width
    us = s.input_region.lower + rng.random((_CONVERGENCE_POINTS, s.m)) * s.input_region.width

    rows = list(zip(xs.tolist(), us.tolist()))  # stepped on Python floats, as simulate does
    errors: dict[int, list[float]] = {k: [] for k in orders}
    for exact_map in exact_maps:
        exact = np.array([exact_map(x, u) for x, u in rows])
        rounding = 64 * float(np.finfo(float).eps) * max(1.0, float(np.max(np.abs(exact))))
        for k in orders:
            model = DiscreteModel(exact_map.spec, k)
            approx = np.array([model(x, u) for x, u in rows])
            with np.errstate(over="ignore", invalid="ignore"):
                gap = float(np.max(np.linalg.norm(exact - approx, axis=1)))
            where = f"order {k} at T={exact_map.spec.sampling_time!r}: the gap to the exact map"
            if not np.isfinite(gap):
                raise NumericalError(f"{where} is not finite")
            if gap <= rounding:
                raise NumericalError(f"{where}, {gap!r}, is at rounding level (<= {rounding!r})")
            errors[k].append(gap)

    log_t = np.log(np.asarray(t_values))
    slopes = {}
    for k in orders:
        slope, _ = np.polyfit(log_t, np.log(np.asarray(errors[k])), 1)
        slopes[k] = float(slope)
    return ConvergenceStudy(t_values=t_values, errors=errors, slopes=slopes)
