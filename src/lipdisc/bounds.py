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
verify module rather than assumed.  ``evaluate_bounds`` is the one
entry point: it checks the order by the model's rule
(``discretize._check_order``) and returns both formulas of one order
keyed by constant name, the keys the verify report is keyed by.
"""

from __future__ import annotations

import math

from .constants import ConstantEstimates
from .discretize import _check_order
from .linalg import NumericalError
from .system import SpecValidationError


def evaluate_bounds(order: int, t: float, c: ConstantEstimates) -> dict:
    """Both formula constants for one order, keyed ``gamma_d`` and
    ``rho_d`` (``rho_d`` None at order 3).  ``rho_d`` may be negative,
    like the continuous constant it scales.  T = 0 is in the domain,
    unlike a spec's T > 0: the formulas are polynomials in T, all 0 there.
    A formula that overflows or is not finite raises NumericalError."""
    order = _check_order(order)
    if not t >= 0.0:
        raise SpecValidationError("t", f"must be nonnegative, got {t!r}")
    if order == 3 and (c.beta is None or c.big_m is None):
        raise ValueError("order 3 requires beta and big_m estimates")
    gamma, rho, sigma = c.gamma_c, c.rho_c, c.sigma_bar_a
    try:
        gamma_d, rho_d = t * gamma, t * rho
        if order >= 2:
            gamma_d += t * t * (sigma * gamma + gamma * gamma / 2.0)
            rho_d += (t * t / 2.0) * sigma * (rho + gamma + rho * gamma)
        if order == 3:
            beta, big_m = c.beta, c.big_m
            bracket = (
                2.0 * beta * sigma
                + (beta * sigma + 2.0 * beta * big_m + 2.0 * sigma * sigma) * gamma
                + 2.0 * sigma * gamma * gamma
                + 2.0 * gamma**3
            )
            gamma_d, rho_d = gamma_d + (t**3 / 6.0) * bracket, None
    except OverflowError:  # a float power such as gamma**3
        gamma_d = rho_d = math.inf
    if not all(math.isfinite(v) for v in (gamma_d, rho_d) if v is not None):
        raise NumericalError(f"the order-{order} bound formula overflows at T = {t}")
    return {"gamma_d": gamma_d, "rho_d": rho_d}
