"""Construct rotationally symmetric metrics with prescribed Ricci curvature.

Given a smooth nonsingular target T = phi(t) dt^2 + t^2 psi(t) dTheta^2 on
R^n, the solver validates definiteness, integrates the Ricci potential
through the folded saddle of the governing implicit ODE, reconstructs the
metric profile by quadrature and verifies the curvature residuals against
independent numeric oracles.
"""

from .exprfn import EvalError, Expr, Jet2, ParseError, eval_jet2, parse, unparse
from .hypersurface import (
    GraphEmbedding,
    gauss_curvatures,
    induced_metric,
    principal_curvatures,
    ricci_graph,
)
from .pipeline import DefinitenessError, Solution, solution_summary, solve
from .potential import (
    PotentialCurve,
    SaddleReport,
    check_global,
    fold_curve,
    integrate_separatrix,
    lie_cartan_field,
    saddle_report,
    seed_separatrix,
    solve_branch,
    solve_n2,
    surface_eval,
)
from .reconstruct import (
    ReconstructionError,
    ReconstructionResult,
    reconstruct_profile,
    ricci_potential_from_profile,
    solve_rf,
    verify_ricci,
)
from .rotsym import (
    DefinitenessVerdict,
    MetricProfile,
    RotSymTensor,
    definiteness_check,
    forward_tensor,
    ricci_forward,
)
from .tensorlab import (
    MetricField,
    SingularMatrixError,
    christoffel,
    invert_spd,
    ricci_numeric,
    riemann_from_ricci_3d,
    rotsym_to_cartesian,
    scalar_curvature,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
