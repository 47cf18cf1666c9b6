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
    cap_reached(x, M)   True once the truncation layer is sub-grid
    reuse_factor        class attribute: True lets Newton keep a
                        factorization over several steps and levels
    name                label for error messages

A level ends on the update, not on the residual (Deuflhard, *Newton
Methods for Nonlinear Problems*, sec. 2.1): after each step the next
correction is predicted as the step's relative size on the free nodes,
max |dx| / |x| with dx the undamped correction, times the residual
contraction min(1, |res_new| / |res|), and the level is done once that
prediction is at most `tol`.  The residual norm is no measure of
convergence here, since the stiff rows next to the wall dominate it.  A
level always takes at least one step, so a warm start that is off is
corrected even when its residual looks small.  A fresh correction that is
already within `tol` is taken whole and ends the level without a line
search: at the rounding floor the residual need not decrease.

With `reuse_factor`, Newton is the simplified (chord) method of the same
section.  A factorization is kept while a full step from it stays positive
off the Dirichlet nodes and cuts the residual norm to CONTRACTION = 1/4 of
its value or less, and escalation carries it into the next level, where
the same test decides whether it still serves.  A kept step that fails
the test is discarded; the Jacobian is then factorized afresh at the
current iterate and the damped step is taken from it.  A fresh
factorization is kept only after a full step (t = 1) that made the same
4x cut, or after a correction that ended the level.  This pays where a
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
CONTRACTION = 0.25


def damped_newton(problem, x0, M, tol, max_iter=MAX_ITER, solve=None):
    """Damped Newton at truncation level M.

    Returns (x, predicted correction, solve), where the predicted
    correction is the relative update the stop judged (at most `tol`) and
    `solve` is the factorization still kept for the next level (None if
    there is none).  `solve` on input is a factorization kept from an
    earlier level.  A fresh step is halved until the iterate stays
    positive off the Dirichlet nodes and the residual norm decreases.
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
        fresh = True
        if solve is not None:
            step = solve(-res)
            x_try = x + step
            if np.all(x_try[free] > 0.0):
                res_try = problem.residual(x_try, data)
                norm_try = np.linalg.norm(res_try)
                fresh = norm_try > CONTRACTION * norm
        if fresh:
            solve = None    # free the stale factorization before the new one
            solve = problem.factor(x)
            step = solve(-res)
        # relative size of the undamped correction on the free nodes
        rel = np.max(np.abs(step[free]) / np.abs(x[free]))
        if fresh:
            if not problem.reuse_factor:
                solve = None
            if rel <= tol:
                # already within tol: take it whole, since at the rounding
                # floor a line search finds no decrease
                return x + step, rel, solve
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
                    f"{problem.name} Newton stalled at M={M:g} "
                    f"(residual {norm:.3e})",
                    trace=trace,
                )
            if not (t == 1.0 and norm_try <= CONTRACTION * norm):
                solve = None
        predicted = rel * min(1.0, norm_try / norm) if norm > 0.0 else rel
        x, res, norm = x_try, res_try, norm_try
        trace.append(norm)
        if predicted <= tol:
            return x, predicted, solve
    raise NewtonError(
        f"{problem.name} Newton did not converge in {max_iter} iterations "
        f"at M={M:g}",
        trace=trace,
    )


def escalate(problem, schedule, *, tol, growth, interior_tol, max_levels,
             on_level=None):
    """Solve the truncation levels in turn.

    Returns (x, m_history, residual, stop_reason).  The levels of
    `schedule` run first and M then grows by `growth`.  From the last
    scheduled level on, escalation stops once the relative change on
    `problem.band` drops below `interior_tol` (stop_reason "interior") or
    the resolvability cap is reached ("cap"); it always stops after
    `max_levels` levels ("max_levels"), so a schedule replayed with
    `max_levels=len(schedule)` runs exactly its levels.  `on_level(M, x)`
    sees every converged level; `residual` is the last level's predicted
    Newton correction.  A factorization Newton keeps at the end of a level
    is offered to the next one.
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
                x, reason = x_new, "interior"
                break
        x = x_new
        if not scheduled_left and problem.cap_reached(x, M):
            reason = "cap"
            break
        level += 1
        if level >= max_levels:
            reason = "max_levels"
            break
        M = schedule[level] if level < len(schedule) else M * growth
    return x, m_history, residual, reason
