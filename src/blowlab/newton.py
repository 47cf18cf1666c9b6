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
    factor(x)           factorization of the Jacobian J at x, as a function
                        rhs -> J^-1 rhs
    scale(x)            scale of the stopping test |res| <= tol * scale(x)
    cap_reached(x, M)   True once the truncation layer is sub-grid
    reuse_factor        class attribute: True lets Newton keep a
                        factorization over several steps and levels
    name                label for error messages

With `reuse_factor`, Newton is the simplified (chord) method of Deuflhard,
*Newton Methods for Nonlinear Problems*, sec. 2.1.  A factorization is
kept while a full step from it stays positive off the Dirichlet nodes and
cuts the residual norm to CONTRACTION = 1/4 of its value or less, and
escalation carries it into the next level, where the same test decides
whether it still serves.  A kept step that fails the test is discarded;
the Jacobian is then factorized afresh at the current iterate and the
damped step is taken from it.  A fresh factorization is kept only after a
full step (t = 1) that made the same 4x cut.  This pays where a
factorization costs far more than a residual (the sparse 2-D Jacobian); a
banded solve that refactors anyway only loses by it, so the 1-D problems
take a fresh Jacobian at every step.
"""

from __future__ import annotations

import numpy as np

from .errors import NewtonError

__all__ = ["damped_newton", "escalate"]

MAX_ITER = 60
MAX_HALVINGS = 40
STEP_FLOOR = 1e-13
CONTRACTION = 0.25


def damped_newton(problem, x0, M, tol, max_iter=MAX_ITER, solve=None):
    """Damped Newton at truncation level M.

    Returns (x, scaled residual, solve), where `solve` is the factorization
    still kept for the next level (None if there is none).  `solve` on
    input is a factorization kept from an earlier level.  A fresh step is
    halved until the iterate stays positive off the Dirichlet nodes and
    the residual norm decreases.  A relative fresh step below STEP_FLOOR
    ends the iteration: the stiff wall rows are then at their rounding
    floor.
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
            return x, norm / problem.scale(x), solve
        if solve is not None:
            x_try = x + solve(-res)
            if np.all(x_try[free] > 0.0):
                res_try = problem.residual(x_try, data)
                norm_try = np.linalg.norm(res_try)
                if norm_try <= CONTRACTION * norm:
                    x, res, norm = x_try, res_try, norm_try
                    trace.append(norm)
                    continue
            solve = None    # free the stale factorization before the new one
        solve = problem.factor(x)
        step = solve(-res)
        if np.max(np.abs(step) / np.maximum(np.abs(x), 1e-300)) < STEP_FLOOR:
            return x, norm / problem.scale(x), None
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
        if not (problem.reuse_factor and t == 1.0
                and norm_try <= CONTRACTION * norm):
            solve = None
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
    level's scaled Newton residual.  A factorization Newton keeps at the
    end of a level is offered to the next one.
    """
    schedule = [float(M) for M in schedule]
    x = None
    solve = None
    m_history = []
    level = 0
    M = schedule[0]
    while True:
        x_new, residual, solve = damped_newton(
            problem, problem.warm_start(x, M), M, tol, solve=solve)
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
