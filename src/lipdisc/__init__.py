"""lipdisc: Taylor-Lie ZOH discretization of nonlinear control systems
with empirical verification of discrete Lipschitz constant formulas."""

__version__ = "0.1.0"

from . import benchmarks
from .bounds import BoundResult, UnsupportedOrderError, evaluate_bounds, gamma_d, rho_d
from .constants import (
    ConstantEstimates,
    SamplingConfig,
    estimate_all,
    estimate_beta_and_m,
    estimate_gamma_c,
    estimate_rho_c,
)
from .discretize import (
    DiscreteModel,
    IntegrationError,
    Trajectory,
    build_taylor_model,
    exact_step,
    simulate,
)
from .expr import (
    ExprError,
    ExprEvalError,
    ExprSyntaxError,
    Expression,
    differentiate,
    evaluate,
    parse,
    unparse,
)
from .linalg import NumericalError, max_singular_value, tensor3_norm_surrogate
from .system import BoxRegion, SpecValidationError, SystemSpec
from .verify import (
    ConvergenceStudy,
    VerificationReport,
    convergence_study,
    verify_bounds,
)

__all__ = [
    "__version__",
    "benchmarks",
    "BoundResult",
    "BoxRegion",
    "ConstantEstimates",
    "ConvergenceStudy",
    "DiscreteModel",
    "ExprError",
    "ExprEvalError",
    "ExprSyntaxError",
    "Expression",
    "IntegrationError",
    "NumericalError",
    "SamplingConfig",
    "SpecValidationError",
    "SystemSpec",
    "Trajectory",
    "UnsupportedOrderError",
    "VerificationReport",
    "build_taylor_model",
    "convergence_study",
    "differentiate",
    "estimate_all",
    "estimate_beta_and_m",
    "estimate_gamma_c",
    "estimate_rho_c",
    "evaluate",
    "evaluate_bounds",
    "exact_step",
    "gamma_d",
    "max_singular_value",
    "parse",
    "rho_d",
    "simulate",
    "tensor3_norm_surrogate",
    "unparse",
    "verify_bounds",
]
