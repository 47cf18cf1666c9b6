"""Numerical laboratory for boundary blow-up conformal solutions near
singular boundary points: separated cone profiles, the singular first
eigenpair driving decay regimes, structure-condition operators, truncated
2-D blow-up solves with localization brackets, barrier certificates and
asymptotic rate fits.
"""

from .analysis import (
    BarrierCertificate,
    RateFit,
    RatioField,
    StructureClass,
    certify_supersolution,
    compare_to_cone,
    fit_rate,
    verify_theorem,
)
from .geometry import (
    DiffeoT,
    GraphSurface,
    HyperplaneFan,
    TangentConeSpec,
    apply_T,
    build_T,
    jacobian_T,
    paraboloid_surface,
    plane_surface,
    signed_distance,
    sphere_surface,
    tangent_cone,
)
from .operators import (
    MetricFamily,
    OperatorSpec,
    TensorMesh,
    apply_operator,
    conformal_operator,
    conformal_quadratic_metric,
    euclidean_operator,
    scalar_curvature,
    structure_constant,
)
from .profiles import (
    BlowupProfile,
    GridSpec,
    SphericalDomain1D,
    check_rho_bounds,
    cone_solution,
    graded_nodes,
    profile_from_csv,
    profile_to_csv,
    solve_profile,
)
from .solver import (
    DomainSpec2D,
    SolutionField,
    SolveConfig,
    exact_ball,
    exact_halfspace,
    growth_check,
    monotone_check,
    solve,
    sum_supersolution_defect,
)
from .spectral import (
    EigenResult,
    RateForm,
    first_eigenpair,
    half_sphere_lambda1,
    rayleigh,
    regime_exponent,
)

__version__ = "0.1.0"
