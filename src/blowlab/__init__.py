"""Numerical laboratory for boundary blow-up conformal solutions near
singular boundary points: separated cone profiles, the singular first
eigenpair driving decay regimes, structure-condition operators, truncated
2-D blow-up solves with localization brackets, barrier certificates and
asymptotic rate fits.

The package namespace is lazy (PEP 562): each public name is imported
from its module on first access, so `import blowlab` loads none of the
modules and no SciPy, and a CLI stage loads only the modules it runs.
"""

import importlib

_EXPORTS = {
    "analysis": ("BarrierCertificate", "RateFit", "RatioField",
                 "StructureClass", "certify_supersolution", "compare_to_cone",
                 "fit_rate", "verify_theorem"),
    "geometry": ("DiffeoT", "GraphSurface", "HyperplaneFan", "TangentConeSpec",
                 "apply_T", "build_T", "jacobian_T", "paraboloid_surface",
                 "plane_surface", "signed_distance", "sphere_surface",
                 "tangent_cone"),
    "operators": ("MetricFamily", "OperatorSpec", "TensorMesh",
                  "apply_operator", "conformal_operator",
                  "conformal_quadratic_metric", "euclidean_operator",
                  "scalar_curvature", "structure_constant"),
    "profiles": ("BlowupProfile", "GridSpec", "SphericalDomain1D",
                 "check_rho_bounds", "cone_solution", "graded_nodes",
                 "profile_from_csv", "profile_to_csv", "solve_profile"),
    "solver": ("DomainSpec2D", "SolutionField", "SolveConfig", "exact_ball",
               "exact_halfspace", "growth_check", "level_fields",
               "monotone_check", "solve", "sum_supersolution_defect"),
    "spectral": ("EigenResult", "RateForm", "first_eigenpair",
                 "half_sphere_lambda1", "rayleigh", "regime_exponent"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached here: a name always reads its module's current binding,
    # so rebinding it in the module (as a test or tracer may) shows here too
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
