"""Damped Newton and truncation escalation shared by the blow-up solves.

The 1-D profile, the 2-D meridian/wedge reductions and the radial ball all
approximate the boundary value u = +infinity by Dirichlet truncation u = M
on the blow-up wall, solve each level by damped Newton from a warm start,
and raise M geometrically until the interior stops moving or the mesh can
no longer resolve the layer where u reaches M.  This module owns that
method; a problem supplies only its discrete pieces:

    fixed               mask of the Dirichlet nodes (wall, and cuts in 2-D)
    band                interior nodes whose relative change ends escalation
    dirichlet(M)        data vector holding the level's values on `fixed`
    warm_start(x, M)    start of level M from the previous level's x (None
                        on the first level)
    residual(x, data)   row-scaled residual
    step(x, res)        Newton step, the solution of J dx = -res
    scale(x)            scale of the stopping test |res| <= tol * scale(x)
    cap_reached(x, M)   True once the truncation layer is sub-grid
    name                label for error messages
"""

from __future__ import annotations

import numpy as np

from .errors import NewtonError

__all__ = ["damped_newton", "escalate"]

MAX_ITER = 60
MAX_HALVINGS = 40
STEP_FLOOR = 1e-13


def damped_newton(problem, x0, M, tol, max_iter=MAX_ITER):
    """Damped Newton at truncation level M; returns (x, scaled residual).

    A step is halved until the iterate stays positive off the Dirichlet
    nodes and the residual norm decreases.  A relative step below
    STEP_FLOOR ends the iteration: the stiff wall rows are then at their
    rounding floor.
    """
    data = problem.dirichlet(M)
    fixed = problem.fixed
    free = ~fixed
    x = x0.copy()
    x[fixed] = data[fixed]
    res = problem.residual(x, data)
    norm = np.linalg.norm(res)
    trace = [norm]
    for _ in range(max_iter):
        if norm <= tol * problem.scale(x):
            return x, norm / problem.scale(x)
        step = problem.step(x, res)
        if np.max(np.abs(step) / np.maximum(np.abs(x), 1e-300)) < STEP_FLOOR:
            return x, norm / problem.scale(x)
        t = 1.0
        for _ in range(MAX_HALVINGS):
            x_try = x + t * step
            if np.all(x_try[free] > 0.0):
                res_try = problem.residual(x_try, data)
                norm_try = np.linalg.norm(res_try)
                if norm_try < norm:
                    break
            t *= 0.5
        else:
            raise NewtonError(
                f"{problem.name} Newton stalled at M={M:g} (residual {norm:.3e})",
                trace=trace,
            )
        x, res, norm = x_try, res_try, norm_try
        trace.append(norm)
    raise NewtonError(
        f"{problem.name} Newton did not converge in {max_iter} iterations "
        f"at M={M:g}",
        trace=trace,
    )


def escalate(problem, schedule, *, tol, growth, interior_tol, max_levels,
             on_level=None):
    """Solve the truncation levels in turn; returns (x, m_history, residual).

    The levels of `schedule` run first and M then grows by `growth`.  From
    the last scheduled level on, escalation stops once the relative change
    on `problem.band` drops below `interior_tol` or the resolvability cap
    is reached; it always stops after `max_levels` levels, so a schedule
    replayed with `max_levels=len(schedule)` runs exactly its levels.
    `on_level(M, x)` sees every converged level; `residual` is the last
    level's scaled Newton residual.
    """
    schedule = [float(M) for M in schedule]
    x = None
    m_history = []
    level = 0
    M = schedule[0]
    while True:
        x_new, residual = damped_newton(problem, problem.warm_start(x, M), M, tol)
        m_history.append(M)
        if on_level is not None:
            on_level(M, x_new)
        scheduled_left = level + 1 < len(schedule)
        if x is not None and not scheduled_left:
            band = problem.band
            change = np.max(np.abs(x_new[band] - x[band]) / x_new[band])
            if change < interior_tol:
                x = x_new
                break
        x = x_new
        if not scheduled_left and problem.cap_reached(x, M):
            break
        level += 1
        if level >= max_levels:
            break
        M = schedule[level] if level < len(schedule) else M * growth
    return x, m_history, residual
