"""Closed-form discrete (one-sided) Lipschitz constants per order.

The formulas map the continuous constants (gamma_c, rho_c, beta, M,
sigma = max singular value of A) and the sampling time T to constants
of the order-k nonlinear map F_T:

    order 1:  gamma_d = T gamma_c
              rho_d   = T rho_c
    order 2:  gamma_d = T gamma_c + T^2 (sigma gamma_c + gamma_c^2 / 2)
              rho_d   = T rho_c + (T^2/2) sigma (rho_c + gamma_c
                                                 + rho_c gamma_c)
    order 3:  gamma_d = order-2 value
                        + (T^3/6) [ 2 beta sigma
                                    + (beta sigma + 2 beta M
                                       + 2 sigma^2) gamma_c
                                    + 2 sigma gamma_c^2 + 2 gamma_c^3 ]

There is no order-3 one-sided formula.  The formulas are transcribed
as derived, not tightened: in particular the order-2 derivation bounds
the Jacobian difference term without the Jacobian's own variation, so
domination over the measured constant is checked empirically by the
verify module rather than assumed.  ``evaluate_bounds`` returns both
formulas of one order keyed by constant name, the keys the verify
report is keyed by.
"""

from __future__ import annotations

import math

from .constants import ConstantEstimates
from .discretize import ORDERS
from .linalg import NumericalError
from .system import SpecValidationError

_RHO_ORDERS = (1, 2)  # the orders with a one-sided formula


class UnsupportedOrderError(SpecValidationError):
    """An order without a formula, named by the path ``order``."""


def _check_order(order: int, supported: tuple[int, ...]):
    if order not in supported:
        raise UnsupportedOrderError("order", f"must be one of {supported}, got {order!r}")


def _check_t(t: float):
    if not t >= 0.0:
        raise SpecValidationError("t", f"must be nonnegative, got {t!r}")


def gamma_d(order: int, t: float, c: ConstantEstimates) -> float:
    """Discrete Lipschitz constant of the order-k nonlinear map."""
    _check_order(order, ORDERS)
    _check_t(t)
    gamma = c.gamma_c
    value = t * gamma
    if order == 1:
        return value
    sigma = c.sigma_bar_a
    value += t * t * (sigma * gamma + gamma * gamma / 2.0)
    if order == 2:
        return value
    if c.beta is None or c.big_m is None:
        raise ValueError("order 3 requires beta and big_m estimates")
    beta, big_m = c.beta, c.big_m
    bracket = (
        2.0 * beta * sigma
        + (beta * sigma + 2.0 * beta * big_m + 2.0 * sigma * sigma) * gamma
        + 2.0 * sigma * gamma * gamma
        + 2.0 * gamma**3
    )
    return value + (t**3 / 6.0) * bracket


def rho_d(order: int, t: float, c: ConstantEstimates) -> float:
    """Discrete one-sided Lipschitz constant; orders 1 and 2 only.

    May be negative, like the continuous constant it scales.
    """
    _check_order(order, _RHO_ORDERS)
    _check_t(t)
    rho = c.rho_c
    if order == 1:
        return t * rho
    sigma = c.sigma_bar_a
    gamma = c.gamma_c
    return t * rho + (t * t / 2.0) * sigma * (rho + gamma + rho * gamma)


def evaluate_bounds(order: int, t: float, c: ConstantEstimates) -> dict:
    """Both formula constants for one order, keyed ``gamma_d`` and
    ``rho_d`` (``rho_d`` None at order 3).

    A formula that overflows or is not finite raises NumericalError."""
    try:
        gamma = gamma_d(order, t, c)
        rho = rho_d(order, t, c) if order in _RHO_ORDERS else None
    except OverflowError:  # a float power such as gamma**3
        gamma = rho = math.inf
    if not all(math.isfinite(v) for v in (gamma, rho) if v is not None):
        raise NumericalError(f"the order-{order} bound formula overflows at T = {t}")
    return {"gamma_d": gamma, "rho_d": rho}
