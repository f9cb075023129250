"""Numerical laboratory for nonlocal eigenvalue problems Lu - lambda u = f.

Fractional Laplacians (restricted and spectral) on the interval and the
ball through their explicit Green's functions, Nystrom eigendecomposition,
Martin kernels and large boundary-blow-up solutions, the Fredholm
alternative, maximum principle and the s -> 1 classical limit.
"""

from .boundary import (
    MartinConstantReport,
    TraceReport,
    martin_apply,
    martin_constant_report,
    weighted_trace,
)
from .discretize import (
    DiscreteKernel,
    GridFunction,
    apply_G0,
    as_values,
    assemble_green_matrix,
)
from .geometry import DomainKind, DomainSpec, QuadGrid, build_grid, make_domain, sphere_area
from .kernels import (
    OperatorKind,
    OperatorSpec,
    check_K1_bounds,
    make_operator,
    martin_kernel,
)
from .limits import (
    SLimitReport,
    boundary_exponent_fit,
    large_solution_limit_s,
    resolvent_convergence_s,
    spectral_convergence_s,
)
from .solver import (
    FredholmReport,
    SolveReport,
    SweepReport,
    check_max_principle,
    check_notions,
    check_poincare,
    fredholm_diagnose,
    solve_large,
    sweep_lambda,
)
from .spectral import (
    LambdaContext,
    SpectralData,
    apply_Glambda,
    apply_Glambda_neumann,
    apply_Glambda_perp,
    eigendecompose,
    lambda_context,
    project_perp,
)
from .verify import CheckResult, VerifySuite, run_verification

__version__ = "0.1.0"
