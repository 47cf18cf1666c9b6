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
search: at the rounding floor the residual need not decrease.  For the
same reason the line search accepts a damping factor t either when the
residual norm decreases or, failing that, when the simplified correction
J^-1 F(x + t dx) from the factorization in hand is at most (1 - t/4) times
dx in the stop's measure (natural monotonicity, Deuflhard's NLEQ-ERR); a
trial costs one solve with the factorization in hand.

Only the level escalation stops at is reported, so the levels before it
are continuation steps (Allgower & Georg, *Introduction to Numerical
Continuation Methods*): level k is solved to max(tol, KAPPA c), with c the
relative change level k - 1 made on the band (1 before that exists), and
only the reported level is then converged to `tol`, from where it stands
and with the factorization it kept.  The stop tests must decide as they
would on levels converged to `tol`.  A loose field is taken to lie within
twice its predicted correction of the converged one.  When that error
could carry the band change c across `interior_tol`, the fields the test
compares are solved on to KAPPA c, which settles a change well above
`interior_tol`, and, if the test is still in doubt, to `tol`; when it
could flip the cap probe, the field is converged to `tol`.  The test is
then taken on the tightened fields.  Levels 0 and 1 both go to KAPPA, so
the first comparison is often in doubt; solving them tighter up front
costs more solves than this two-step settling.  The tests run at every
level, so a replay of the levels makes the very same Newton solves.  An
`on_level` hook only observes: it sees each level converged to `tol`, in a
copy that Newton converges apart from the solve, from a factorization of
its own.  The iterates, the kept factorizations and the stop decisions are
thus the same floats with or without the hook.

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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NewtonError

__all__ = ["Escalation", "check_schedule", "damped_newton", "escalate"]

MAX_ITER = 60
MAX_HALVINGS = 40
CONTRACTION = 0.25
KAPPA = 1e-2
GROWTH = 2.0


def check_schedule(schedule):
    """Raise ConfigError unless `schedule` has a truncation level, every
    level is finite and > 0, and the levels strictly increase."""
    levels = np.asarray(schedule, dtype=float)
    # negated tests, so that NaN fails them
    if not (levels.size and np.all(np.diff(levels) > 0) and levels[0] > 0
            and np.isfinite(levels[-1])):
        raise ConfigError(f"truncation schedule must hold finite levels > 0 "
                          f"that strictly increase, got {list(schedule)}")


def damped_newton(problem, x0, M, tol, solve=None):
    """Damped Newton at truncation level M, in at most MAX_ITER steps.

    Returns (x, predicted correction, solve), where the predicted
    correction is the relative update the stop judged (at most `tol`) and
    `solve` is the factorization still kept for the next level (None if
    there is none).  `solve` on input is a factorization kept from an
    earlier level.  A fresh step is halved until the iterate stays
    positive off the Dirichlet nodes and either the residual norm
    decreases or the simplified correction shrinks (natural monotonicity).
    """
    data = problem.dirichlet(M)
    fixed = problem.fixed
    free = ~fixed
    x = x0.copy()
    x[fixed] = data[fixed]
    res = problem.residual(x, data)
    norm = np.linalg.norm(res)
    trace = [norm]
    for _ in range(MAX_ITER):
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
            if rel <= tol:
                # already within tol: take it whole, since at the rounding
                # floor a line search finds no decrease
                return x + step, rel, solve if problem.reuse_factor else None
            t = 1.0
            for _ in range(MAX_HALVINGS):
                x_try = x + t * step
                if np.all(x_try[free] > 0.0):
                    res_try = problem.residual(x_try, data)
                    norm_try = np.linalg.norm(res_try)
                    if norm_try < norm:
                        break
                    # the residual may sit at its rounding floor: accept t
                    # once the simplified correction shrinks enough instead
                    simplified = solve(-res_try)
                    if (np.max(np.abs(simplified[free]) / np.abs(x[free]))
                            <= (1.0 - 0.25 * t) * rel):
                        break
                t *= 0.5
            else:
                raise NewtonError(
                    f"{problem.name} Newton stalled at M={M:g} "
                    f"(residual {norm:.3e})",
                    trace=trace,
                )
            if not (problem.reuse_factor and t == 1.0
                    and norm_try <= CONTRACTION * norm):
                solve = None
        predicted = rel * min(1.0, norm_try / norm) if norm > 0.0 else rel
        x, res, norm = x_try, res_try, norm_try
        trace.append(norm)
        if predicted <= tol:
            return x, predicted, solve
    raise NewtonError(
        f"{problem.name} Newton did not converge in {MAX_ITER} iterations "
        f"at M={M:g}",
        trace=trace,
    )


@dataclass
class Escalation:
    """Result of `escalate`; unpacks as (x, m_history, residual, stop_reason).

    `solve` is the factorization Newton kept at the end of the reported
    level (None if there is none); its Jacobian depends only on x off the
    Dirichlet nodes, so a solve at the same level with other Dirichlet data
    may start from it.
    """

    x: np.ndarray
    m_history: list
    residual: float
    stop_reason: str
    solve: object = None

    def __iter__(self):
        return iter((self.x, self.m_history, self.residual, self.stop_reason))


def escalate(problem, schedule, *, tol, interior_tol, max_levels,
             on_level=None):
    """Solve the truncation levels in turn.

    Returns an `Escalation`.  The levels of `schedule` run first and M then
    grows by GROWTH.  From the last scheduled level on, escalation stops
    once the relative change on `problem.band` drops below `interior_tol`
    (stop_reason "interior") or the resolvability cap is reached ("cap");
    it always stops after `max_levels` levels ("max_levels"), so a schedule
    replayed with `max_levels=len(schedule)` runs exactly its levels and
    the same Newton solves.  Levels before the stop are solved loosely and
    the reported one to `tol` (module docstring), with or without
    `on_level(M, x)`, which observes each level in turn: x is a copy of the
    level converged to `tol` apart from the solve, the last one the reported
    level itself.  `residual` is the reported level's predicted Newton
    correction.  A factorization Newton keeps at the end of a level is
    offered to the next one.
    """
    schedule = [float(M) for M in schedule]
    band = problem.band

    def newton(x, M, level_tol):
        nonlocal solve
        x, err, solve = damped_newton(problem, x, M, level_tol, solve=solve)
        # a field's error bound; a field within tol counts as converged
        return x, err, 2.0 * err if err > tol else 0.0

    def band_change(x_new, x):
        return np.max(np.abs(x_new[band] - x[band]) / x_new[band])

    def observe(x, M, bound):
        # a copy converged apart, so that the solve never sees the hook
        if on_level is not None:
            on_level(M, damped_newton(problem, x, M, tol)[0] if bound
                     else x.copy())

    x = None
    solve = None
    m_history = []
    change = 1.0
    level = 0
    M = schedule[0]
    while True:
        x_new, err_new, bound_new = newton(problem.warm_start(x, M), M,
                                           max(tol, KAPPA * change))
        m_history.append(M)
        # the stop tests run at every level, so that a replay of the levels
        # makes the same Newton solves, but stop only past the schedule
        reason = None
        if x is not None:
            change = band_change(x_new, x)
            for target in (max(tol, KAPPA * change), tol):
                if not ((bound or bound_new) and abs(change - interior_tol)
                        <= (bound + bound_new) * (1.0 + change)):
                    break
                # too close to call: tighten the fields the test compares,
                # first as far as a change of this size needs, then to tol
                if bound > 2.0 * target:
                    x, _, bound = newton(x, m_history[-2], target)
                if bound_new > 2.0 * target:
                    x_new, err_new, bound_new = newton(x_new, M, target)
                change = band_change(x_new, x)
            if change < interior_tol:
                reason = "interior"
        if reason is None:
            reached = problem.cap_reached(x_new, M)
            if (bound_new and problem.cap_reached(x_new * (1.0 - bound_new), M)
                    != problem.cap_reached(x_new * (1.0 + bound_new), M)):
                x_new, err_new, bound_new = newton(x_new, M, tol)
                reached = problem.cap_reached(x_new, M)
            if reached:
                reason = "cap"
        x, err, bound = x_new, err_new, bound_new
        if reason is not None and level + 1 >= len(schedule):
            break
        level += 1
        if level >= max_levels:
            reason = "max_levels"
            break
        observe(x, M, bound)
        M = schedule[level] if level < len(schedule) else M * GROWTH
    if bound:
        # the reported level, from where it stands
        x, err, bound = newton(x, M, tol)
    observe(x, M, bound)
    return Escalation(x, m_history, err, reason, solve)
