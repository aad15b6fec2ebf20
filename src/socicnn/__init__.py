"""Exact dual geometry of second-order-cone input convex networks.

The package evaluates these convex models, reads their gradients and
subdifferentials out of optimal multiplier branches in closed form, builds
branch-local quadratic models, and runs white-box first- and second-order
inference against finite-difference twins.
"""

from .curvature import (
    CurvatureModel,
    hessian,
    quadratic_model_residual,
)
from .dual import (
    DualBranch,
    argmax_branch,
    canonical,
    dual_value,
    feasibility_violation,
    readout,
    sample_optimal_branches,
)
from .errors import (
    ConstructionError,
    DegenerateInputError,
    InfeasibleBranchError,
    NonFiniteError,
    SocIcnnError,
    SolveFailureError,
    ValidationError,
)
from .geometry import (
    DirectionalDerivativeResult,
    directional_derivative,
    gradient,
)
from .inference import (
    InferenceConfig,
    InferenceReport,
    ReadoutDiagnostics,
    readout_diagnostics,
    solve,
)
from .model import (
    ArchSpec,
    DEFAULT_TAU,
    DegeneracyReport,
    DegeneracySpec,
    ForwardTrace,
    SocIcnnParams,
    build_degenerate_2d,
    build_random,
    conic_margin,
    degeneracy_report,
    forward,
    forward_values,
    relu_margin,
    validate,
)
from .oracle import fd_directional, fd_gradient, fd_hessian

__version__ = "0.1.0"
