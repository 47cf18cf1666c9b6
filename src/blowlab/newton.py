"""Damped Newton and the truncation search shared by the blow-up solves.

The 1-D profile, the 2-D meridian/wedge reductions and the radial ball all
approximate the boundary value u = +infinity by Dirichlet truncation u = M
on the blow-up wall.  The levels form a ladder: the given schedule, then M
times GROWTH, at most `max_levels` levels.  The reported level is the
lowest one, from the last scheduled level on, where the stop test holds,
taken in this order: the mesh can no longer resolve the layer where u
reaches M (stop_reason "cap"), or the relative change on the interior band
between the level and a neighbouring solved level is under `interior_tol`
("interior"; which neighbour is set out below).  When no level stops, a
ladder within the schedule reports its last level ("max_levels"), and one
grown past it raises NewtonError.  This module owns
that method; a problem supplies only its discrete pieces:

    fixed               mask of the Dirichlet nodes (wall, and cuts in 2-D)
    band                interior nodes whose relative change stops the search
    dirichlet(M)        data vector holding the level's values on `fixed`
    warm_start(x, M)    start of level M from a solved neighbouring level's
                        x, or from the supersolution when x is None
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

`escalate` reaches the reported level from above.  The truncated
solutions increase with M and lie below the supersolution start
warm_start(None, M): for the Euclidean operator (2/d)^m, m = (n-2)/2, is
the blow-up solution at the centre of the ball of radius d inscribed at a
point d away from the blow-up wall, and it lies above the solution on any
domain containing that ball (comparison principle; Loewner & Nirenberg,
1974).  The cap probe grows with the field, so a level whose start reaches
the cap reaches it once solved.  The search solves the first such level at
or past the last scheduled one (else the last level `max_levels` allows)
from that start: the top.  Each level below the top holds a smaller field,
so every level whose cap the top's field reaches, with Newton's tolerance
on both fields as slack, reaches it too; the search jumps to the lowest of
these from the last scheduled level on, solves it from the top's field,
and then steps down a level at a time (Allgower & Georg, *Introduction to
Numerical Continuation Methods*), each level from the one above,
warm_start(x_above, M), and the factorization Newton kept last, while the
level below still stops.  On the way down the interior test of a level is
taken against the level above, which the search holds; at the top it is
taken against the level below, the next one solved.  Should the top or the
jump's target not stop (a bound that fails), the search steps up instead,
each level from the one below and tested against it.  Every level it
visits is solved to `tol`.  The factorization Newton kept at a level is
held while that level may still be reported, and the reported level's is
handed back, so that a solve there with other Dirichlet data starts from
it.  The search assumes that the stop test, once met, holds at every
higher level (the probe grows more slowly than M, and the band change
falls with M), and so reports the level at which a climb through every
level stops, where the cap decides; a test against such a climb guards
this.  Where the interior test decides, a descent reports the lower level
of the first pair within `interior_tol` and a climb the upper one.  No
solve of the pipeline, the bench or the demos stops on it.  `m_history`
is the ladder up to the reported M.  The search only searches: it hands
back no field of the levels below the reported one, and
`blowlab.solver.level_fields` solves them for a caller that wants them.
Nor does it hand back the reported level's predicted correction: that
depends on the path the search took to the level, not on the field.

With `reuse_factor`, Newton is the simplified (chord) method of the same
section.  A factorization is kept while a full step from it stays positive
off the Dirichlet nodes and cuts the residual norm to CONTRACTION = 1/4 of
its value or less, and the search hands it to the next level it visits,
where the same test decides whether it still serves.  A kept step that fails
the test is discarded; the Jacobian is then factorized afresh at the
current iterate and the damped step is taken from it.  A fresh
factorization is kept only after a full step (t = 1) that made the same
4x cut, or after a correction that ended the level.  This pays where a
factorization costs far more than a residual (the sparse 2-D Jacobian).
The 1-D problems take a fresh Jacobian at every step: their tridiagonal
LU costs about as much as one solve from it, so the extra steps of the
linearly converging chord method cost more than a kept LU saves (1.6x
the CPU time, measured over 27 profiles of 1,600 nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NewtonError

__all__ = ["Escalation", "check_schedule", "check_tolerance", "damped_newton",
           "escalate"]

MAX_ITER = 60
MAX_HALVINGS = 40
CONTRACTION = 0.25
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


def check_tolerance(name, value):
    """Raise ConfigError unless the tolerance `value` is finite and > 0."""
    if not 0.0 < value < np.inf:       # NaN fails it too
        raise ConfigError(f"{name} must be finite and > 0, got {value}")


@np.errstate(over="ignore", invalid="ignore")
def damped_newton(problem, x0, M, tol, solve=None):
    """Damped Newton at truncation level M, in at most MAX_ITER steps.

    Returns (x, predicted correction, solve), where the predicted
    correction is the relative update the stop judged (at most `tol`) and
    `solve` is the factorization still kept for the next level (None if
    there is none).  `solve` on input is a factorization kept from an
    earlier level.  A fresh step is halved until the iterate stays
    positive off the Dirichlet nodes and either the residual norm
    decreases or the simplified correction shrinks (natural monotonicity).
    Overflow warns nowhere in here: a residual norm at the start, or a
    fresh correction, that is not finite raises NewtonError at once, and a
    trial step whose residual overflows is halved.
    """
    data = problem.dirichlet(M)
    fixed = problem.fixed
    free = ~fixed
    x = x0.copy()
    x[fixed] = data[fixed]
    res = problem.residual(x, data)
    norm = np.linalg.norm(res)
    trace = [norm]
    if not np.isfinite(norm):
        raise NewtonError(f"{problem.name} residual norm is not finite at "
                          f"M={M:g}", trace=trace)
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
            if not np.all(np.isfinite(step)):
                raise NewtonError(f"{problem.name} Newton correction is not "
                                  f"finite at M={M:g}", trace=trace)
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
    """Result of `escalate`: the reported field, its ladder and stop reason.

    `solve` is the factorization Newton kept at the reported level (None
    if it kept none); its Jacobian depends only on x off the Dirichlet
    nodes, so a solve at the reported level with other Dirichlet data may
    start from it, and Newton replaces it once it stops contracting.
    """

    x: np.ndarray
    m_history: list
    stop_reason: str
    solve: object = None


def escalate(problem, schedule, *, tol, interior_tol, max_levels):
    """Search the truncation ladder for the reported level.

    Returns an `Escalation`.  The ladder is `schedule`, then M times
    GROWTH, at most `max_levels` levels; the reported level is the lowest
    one, from the last scheduled level on, where the cap is reached or the
    band moved by less than `interior_tol` from a neighbouring level.  When
    none does, a ladder within the schedule ends at its last level
    ("max_levels"), solved directly, and one grown past it raises
    NewtonError.
    The search, which solves every level it visits to `tol` and skips the
    levels its top level proves to reach the cap, is set out in the module
    docstring.
    """
    first = len(schedule) - 1      # the stop tests count from here on
    ladder = [float(M) for M in schedule][:max_levels]
    while len(ladder) < max_levels and not problem.cap_reached(
            problem.warm_start(None, ladder[-1]), ladder[-1]):
        ladder.append(ladder[-1] * GROWTH)
    band = problem.band
    solved = {}    # level -> field
    own = {}       # level -> the factorization Newton kept there, held
                   # while the level may still be reported
    kept = None    # the factorization Newton kept at the level solved last

    def field(k, near):
        # level k, from the solved level `near`, or the supersolution
        nonlocal kept
        if k not in solved:
            x = None if near is None else solved[near]
            solved[k], _, kept = damped_newton(problem, problem.warm_start(
                x, ladder[k]), ladder[k], tol, solve=kept)
            own[k] = kept
        return solved[k]

    def stop(k, near, other=None):
        # level k, solved from `near`; its interior test compares it with
        # level `other`, solved from k unless the search holds it
        x = field(k, near)
        if k < first:
            return None
        if problem.cap_reached(x, ladder[k]):
            return "cap"
        if other is not None and other >= 0:
            y = field(other, k)
            hi, lo = (x, y) if other < k else (y, x)
            if np.max(np.abs(hi[band] - lo[band]) / hi[band]) < interior_tol:
                return "interior"
        return None

    k = len(ladder) - 1
    reason = stop(k, None, k - 1)
    if reason == "cap":
        # every level below holds a smaller field, so each level whose cap
        # the top's field reaches, up to Newton's tolerance on both, stops
        bound = solved[k] * ((1.0 + tol) / (1.0 - tol))
        jump = next((j for j in range(first, k)
                     if problem.cap_reached(bound, ladder[j])), k)
        if jump < k:
            top, k = k, jump
            reason = stop(k, top)
            if reason is not None:
                del own[top]
    if reason is not None:
        while k > first and (lower := stop(k - 1, k, k)) is not None:
            del own[k]
            k, reason = k - 1, lower
    while reason is None and k + 1 < max_levels:
        if k + 1 == len(ladder):
            ladder.append(ladder[-1] * GROWTH)
        del own[k]
        k += 1
        reason = stop(k, k - 1, k - 1)
    if reason is None and len(ladder) > len(schedule):
        raise NewtonError(f"{problem.name} truncation search found no stop "
                          f"in {max_levels} levels (M up to {ladder[-1]:g})")
    kept = own.pop(k)
    own.clear()
    return Escalation(solved[k], ladder[:k + 1], reason or "max_levels", kept)
