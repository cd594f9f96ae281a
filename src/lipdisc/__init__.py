"""lipdisc: Taylor-Lie ZOH discretization of nonlinear control systems
with empirical verification of discrete Lipschitz constant formulas."""

__version__ = "0.1.0"

from . import benchmarks
from .bounds import evaluate_bounds
from .constants import ConstantEstimates, SamplingConfig, estimate_all
from .discretize import DiscreteModel, ExactMap, IntegrationError, Trajectory, simulate
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
from .linalg import NumericalError
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
    "VerificationReport",
    "convergence_study",
    "differentiate",
    "estimate_all",
    "evaluate",
    "evaluate_bounds",
    "parse",
    "simulate",
    "unparse",
    "verify_bounds",
]
