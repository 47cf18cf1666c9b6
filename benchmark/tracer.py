"""Span tracer that wraps blowlab's public functions from outside the program.

`install()` replaces, at each module boundary, the public function with a
wrapper that times it and records a span; `uninstall()` puts the originals
back.  Spans are aggregated in memory per name: total time of the
outermost span of each name, self time (the span minus the wrapped spans
it directly contains), call counts and a few work counters.  `layers()`
turns one round's aggregates into the per-layer metrics.

Wrapped boundaries:
  solver      solve (split by operator: euclidean / perturbed), and SciPy's
              splu as bound in blowlab.solver, with the solve() of the
              factor it returns
  operators   OperatorSpec.coefficients, scalar_curvature,
              MetricFamily.christoffel, structure_constant
  polynomials Polynomial.__call__
  profiles    solve_profile
  spectral    first_eigenpair
  analysis    certify_supersolution, compare_to_cone, fit_rate
  geometry    apply_T
  reports     every writer of blowlab.reports
"""

import functools
import os
import sys
import time
from collections import defaultdict

REPORT_WRITERS = ("write_csv", "write_markdown_table", "write_ratio_csv",
                  "write_eigen_csv", "write_field_csv", "write_loglog_svg")


class _TracedFactor:
    """Stands in for a SuperLU factor; times its triangular solves."""

    def __init__(self, lu, span):
        self._lu = lu
        self.solve = span("splu.solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self._patches = []
        self.reset()

    # -- bookkeeping ------------------------------------------------------
    def reset(self):
        # cleared in place: the installed wrappers hold these dicts
        if not hasattr(self, "time"):
            self.time = defaultdict(float)   # outermost spans of a name
            self.self_time = defaultdict(float)
            self.calls = defaultdict(int)
            self.counts = defaultdict(float)
            self._stack = []                 # [name, seconds in children]
        for table in (self.time, self.self_time, self.calls, self.counts):
            table.clear()
        self.last_factor = None

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span called `name`; hooks see (args, kwargs[, result])."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            outermost = all(frame[0] != name for frame in stack)
            frame = [name, 0.0]
            if before is not None:
                before(args, kwargs)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if outermost:
                    tracer.time[name] += dt
                tracer.self_time[name] += dt - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                result = after(args, kwargs, result, outermost)
            return result

        return wrapper

    def _inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    # -- patching ---------------------------------------------------------
    def _replace_everywhere(self, original, wrapper):
        """Rebind every blowlab module attribute that is `original`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "blowlab"
                                   or modname.startswith("blowlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper_of):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper_of(original))

    def install(self):
        if self._patches:
            return
        from blowlab import (analysis, geometry, operators, polynomials,
                             profiles, reports, solver, spectral)

        span = self.span
        counts = self.counts

        def npoints(points):
            shape = getattr(points, "shape", None)
            if shape is None or len(shape) < 2:
                return 1
            return shape[0]

        # solver: splu and the factor's solve
        def after_splu(args, kwargs, lu, outermost):
            self.last_factor = lu
            return _TracedFactor(lu, span)

        self._replace_everywhere(
            solver.splu, span("splu", solver.splu, after=after_splu))

        def after_solve(args, kwargs, fld, outermost):
            levels = len(getattr(fld, "m_history", None) or [])
            counts["solve_levels_max"] = max(counts["solve_levels_max"], levels)
            return fld

        solve = solver.solve
        euclid = span("solve.euclidean", solve, after=after_solve)
        perturbed = span("solve.perturbed", solve, after=after_solve)

        @functools.wraps(solve)
        def traced_solve(domain, op, *args, **kwargs):
            fn = euclid if op.is_euclidean else perturbed
            return fn(domain, op, *args, **kwargs)

        self._replace_everywhere(solve, traced_solve)

        # operators
        def before_coefficients(args, kwargs):
            counts["coefficient_points"] += npoints(args[1])

        self._replace_method(
            operators.OperatorSpec, "coefficients",
            lambda fn: span("coefficients", fn, before=before_coefficients))

        def before_curvature(args, kwargs):
            if not self._inside("scalar_curvature"):
                counts["curvature_points"] += npoints(args[1])

        self._replace_everywhere(
            operators.scalar_curvature,
            span("scalar_curvature", operators.scalar_curvature,
                 before=before_curvature))

        def before_christoffel(args, kwargs):
            if self._inside("scalar_curvature"):
                counts["christoffel_curvature_points"] += npoints(args[1])

        self._replace_method(
            operators.MetricFamily, "christoffel",
            lambda fn: span("christoffel", fn, before=before_christoffel))
        self._replace_everywhere(
            operators.structure_constant,
            span("structure_constant", operators.structure_constant))

        # polynomials
        self._replace_method(polynomials.Polynomial, "__call__",
                             lambda fn: span("polynomial", fn))

        # profiles and spectral
        def after_profile(args, kwargs, prof, outermost):
            counts["profile_levels"] += len(prof.m_history)
            return prof

        self._replace_everywhere(
            profiles.solve_profile,
            span("solve_profile", profiles.solve_profile, after=after_profile))

        def after_eigen(args, kwargs, eig, outermost):
            counts["eigen_iterations"] += eig.iterations
            return eig

        self._replace_everywhere(
            spectral.first_eigenpair,
            span("first_eigenpair", spectral.first_eigenpair,
                 after=after_eigen))

        # analysis and geometry
        for name in ("certify_supersolution", "compare_to_cone", "fit_rate"):
            fn = getattr(analysis, name)
            self._replace_everywhere(fn, span(name, fn))
        self._replace_everywhere(geometry.apply_T,
                                 span("apply_T", geometry.apply_T))

        # reports: one span name for all writers, so nested writers
        # (write_ratio_csv -> write_csv) count their file once
        def after_write(args, kwargs, result, outermost):
            path = args[0] if args else kwargs.get("path")
            if outermost and path and os.path.exists(path):
                counts["bytes_written"] += os.path.getsize(path)
            return result

        for name in REPORT_WRITERS:
            fn = getattr(reports, name)
            self._replace_everywhere(
                fn, span("reports.write", fn, after=after_write))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- per-layer metrics -------------------------------------------------
    def layers(self):
        """Per-layer figures of everything recorded since the last reset."""
        t, calls, counts = self.time, self.calls, self.counts
        curvature_points = counts["curvature_points"]
        return {
            "solver.lu_factorizations": calls["splu"],
            "solver.lu_factor_s": t["splu"],
            "solver.lu_solve_s": t["splu.solve"],
            "solver.lu_nnz": (self.last_factor.nnz
                              if self.last_factor is not None else 0),
            "solver.levels": int(counts["solve_levels_max"]),
            "solver.solve_s.euclidean": t["solve.euclidean"],
            "solver.solve_s.perturbed": t["solve.perturbed"],
            "solver.self_s": (self.self_time["solve.euclidean"]
                              + self.self_time["solve.perturbed"]),
            "operators.coefficients_s": t["coefficients"],
            "operators.coefficient_points": int(counts["coefficient_points"]),
            "operators.curvature_s": t["scalar_curvature"],
            "operators.christoffel_per_curvature_point": (
                counts["christoffel_curvature_points"] / curvature_points
                if curvature_points else 0),
            "operators.structure_constant_s": t["structure_constant"],
            "polynomials.evals": calls["polynomial"],
            "polynomials.eval_s": t["polynomial"],
            "profiles.solve_profile_s": t["solve_profile"],
            "profiles.levels": int(counts["profile_levels"]),
            "spectral.eigenpair_s": t["first_eigenpair"],
            "spectral.iterations": int(counts["eigen_iterations"]),
            "analysis.certify_s": t["certify_supersolution"],
            "analysis.rate_fit_s": t["compare_to_cone"] + t["fit_rate"],
            "geometry.apply_T_s": t["apply_T"],
            "reports.write_s": t["reports.write"],
            "reports.bytes_written": int(counts["bytes_written"]),
        }


def merge(totals):
    """Combine the per-layer dicts of the processes of one round.

    Times and counts add up; the level count and the curvature ratio are
    per-solve figures, so the largest is kept, and the fill is that of the
    last process that factorized.
    """
    out = {}
    for layer in totals:
        for key, value in layer.items():
            if key in ("solver.levels",
                       "operators.christoffel_per_curvature_point"):
                out[key] = max(out.get(key, 0), value)
            elif key == "solver.lu_nnz":
                out[key] = value or out.get(key, 0)
            else:
                out[key] = out.get(key, 0) + value
    return out
