"""lipdisc: Taylor-Lie ZOH discretization of nonlinear control systems
with empirical verification of discrete Lipschitz constant formulas."""

__version__ = "0.1.0"

from . import benchmarks
from .bounds import UnsupportedOrderError, evaluate_bounds, gamma_d, rho_d
from .constants import ConstantEstimates, SamplingConfig, estimate_all
from .discretize import (
    DiscreteModel,
    ExactMap,
    IntegrationError,
    Trajectory,
    build_taylor_model,
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
from .linalg import NumericalError, max_singular_value
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
    "BoxRegion",
    "ConstantEstimates",
    "ConvergenceStudy",
    "DiscreteModel",
    "ExactMap",
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
    "evaluate",
    "evaluate_bounds",
    "gamma_d",
    "max_singular_value",
    "parse",
    "rho_d",
    "simulate",
    "unparse",
    "verify_bounds",
]
