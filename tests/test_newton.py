import numpy as np
import pytest

from blowlab.errors import NewtonError
from blowlab import newton
from blowlab.newton import damped_newton, escalate
from blowlab.operators import (conformal_operator, conformal_quadratic_metric,
                               euclidean_operator)
from blowlab import profiles
from blowlab.profiles import GridSpec, solve_profile
from blowlab import solver
from blowlab.solver import (MAX_LEVELS, DomainSpec2D, SolveConfig,
                            _WedgeSystem, level_fields, solve)
from conftest import cap


@pytest.mark.parametrize("n", [3, 6])
def test_replaying_own_schedule_lands_on_the_same_field(n):
    # a forced schedule is solved at its last level directly; the search
    # reached that level from above, so the fields agree to the Newton
    # tolerance, not bit for bit
    dom = DomainSpec2D("meridian", aperture=np.pi / 3)
    cfg = SolveConfig(nt_per_octave=4, n_eta=32)
    op = euclidean_operator(n)
    base = solve(dom, op, n, cfg)
    replay = solve(dom, op, n, cfg, forced_schedule=base.m_history)
    assert replay.m_history == base.m_history
    assert replay.stop_reason == base.stop_reason
    window = base.interior_window()
    for a, b in ((replay.u, base.u), (replay.u_high, base.u_high)):
        assert np.max(np.abs(a - b)[window] / b[window]) <= 1e-9


KW = dict(tol=1e-12, interior_tol=1e-8)


class _Toy:
    """x = M on node 0, x^2 = 4 + coupling * M elsewhere."""

    name = "toy"
    reuse_factor = True
    fixed = np.array([True, False, False])
    band = np.array([False, True, True])

    def __init__(self, coupling=0.0, step_sign=-1.0, cap_at=np.inf):
        self.coupling = coupling
        self.step_sign = step_sign
        self.cap_at = cap_at

    def dirichlet(self, M):
        return np.where(self.fixed, M, 0.0)

    def warm_start(self, x, M):
        return np.full(3, 3.0) if x is None else x

    def residual(self, x, data):
        return np.where(self.fixed, x - data, x**2 - 4.0 - self.coupling * x[0])

    def factor(self, x):
        # the Jacobian is diag(1, 2 x1, 2 x2) off the coupling; step_sign
        # +1 turns the step uphill
        return lambda rhs: -self.step_sign * np.where(self.fixed, 0.0,
                                                      rhs / (2.0 * x))

    def cap_reached(self, x, M):
        return M >= self.cap_at


def test_stalled_newton_raises_with_trace():
    # the step points uphill, so no damping of it lowers the residual
    with pytest.raises(NewtonError, match="toy Newton stalled at M=5") as err:
        damped_newton(_Toy(step_sign=+1.0), np.full(3, 3.0), 5.0, tol=1e-12)
    assert err.value.trace == [pytest.approx(np.sqrt(2.0) * 5.0)]


def test_escalate_stops():
    # an interior that does not move stops at the schedule's last level
    found = escalate(_Toy(), [1.0, 2.0], **KW, max_levels=10)
    assert found.m_history == [1.0, 2.0] and found.stop_reason == "interior"
    assert found.x[0] == 2.0
    # a moving interior escalates by the growth factor up to the cap ...
    moving = _Toy(coupling=1.0, cap_at=8.0)
    found = escalate(moving, [1.0, 2.0], **KW, max_levels=10)
    assert found.m_history == [1.0, 2.0, 4.0, 8.0]
    assert found.stop_reason == "cap"
    assert np.allclose(found.x[1:], np.sqrt(12.0), rtol=1e-12)
    # ... and a search that grows the ladder past the schedule up to
    # max_levels without a stop reports no level
    with pytest.raises(NewtonError, match="toy truncation search found no "
                                          r"stop in 3 levels \(M up to 4\)"):
        escalate(_Toy(coupling=1.0), [1.0, 2.0], **KW, max_levels=3)
    # a schedule that max_levels holds or cuts short ends at its last level
    found = escalate(_Toy(coupling=1.0), [1.0, 2.0], **KW, max_levels=2)
    assert found.m_history == [1.0, 2.0] and found.stop_reason == "max_levels"
    found = escalate(_Toy(), [1.0, 2.0, 4.0], **KW, max_levels=2)
    assert found.m_history == [1.0, 2.0] and found.stop_reason == "max_levels"


class _Unbounded(_Toy):
    """The toy with a start that bounds nothing: x1^2 = 4 + coupling * M
    passes x = 3 as M grows, and the cap reads the field, x1 <= M - 3."""

    def cap_reached(self, x, M):
        return x[1] <= M - 3.0


def test_search_steps_up_where_the_start_is_no_bound():
    # the start reaches the cap at M = 8, the field only at M = 16: the
    # search starts at 8 and steps up to where a climb stops
    toy = _Unbounded(coupling=4.0)
    result = escalate(toy, [1.0], **KW, max_levels=10)
    levels, reason = _climb(toy, [1.0], **KW, max_levels=10)
    assert result.m_history == [M for M, _ in levels] == [1.0, 2.0, 4.0, 8.0,
                                                          16.0]
    assert result.stop_reason == reason == "cap"
    assert np.allclose(result.x, levels[-1][1], rtol=1e-12)


def test_level_takes_a_step_from_a_converged_start():
    # a level started from its own converged field still takes a step
    # before it ends
    toy = _Counting()
    x, _, _ = damped_newton(toy, np.full(3, 3.0), 5.0, tol=1e-12)
    toy.factored_at.clear()
    x2, predicted, _ = damped_newton(toy, x, 5.0, tol=1e-12)
    assert len(toy.factored_at) == 1
    assert predicted <= 1e-12
    assert np.allclose(x2, x, rtol=1e-11, atol=0.0)


class _Counting(_Toy):
    """The toy, recording the iterates its Jacobian is factorized at."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.factored_at = []

    def factor(self, x):
        self.factored_at.append(x.copy())
        return super().factor(x)


def test_kept_factor_that_stops_contracting_is_replaced():
    # from x = 3 the first step contracts the residual 7x, so its factor is
    # kept; the chord rate from J(3) is 1 - 4/6 = 1/3 > 1/4, so the next
    # kept step fails and the Jacobian is refactorized at the current iterate
    toy = _Counting()
    x, res, solve = damped_newton(toy, np.full(3, 3.0), 5.0, tol=1e-12)
    assert np.allclose(x[1:], 2.0, rtol=1e-12) and res <= 1e-12
    x1 = 3.0 - 5.0 / 6.0
    assert np.allclose(toy.factored_at[0][1:], 3.0)
    assert np.allclose(toy.factored_at[1][1:], x1, rtol=1e-15)
    # near the root the fresh factor contracts by far more than 4x and
    # serves to the end
    assert solve is not None and len(toy.factored_at) == 2
    # without reuse every step factorizes afresh and nothing is kept
    fresh = _Counting()
    fresh.reuse_factor = False
    x_fresh, _, kept = damped_newton(fresh, np.full(3, 3.0), 5.0, tol=1e-12)
    assert kept is None
    assert np.allclose(x_fresh, x, rtol=1e-12)


def test_kept_factor_carries_to_the_next_level():
    # coupled to M, the interior moves between levels; the factor kept at
    # the end of M = 1 converges M = 1.1 without a new one
    moving = _Counting(coupling=1.0)
    x, _, solve = damped_newton(moving, np.full(3, 3.0), 1.0, tol=1e-12)
    assert solve is not None
    moving.factored_at.clear()
    x2, _, _ = damped_newton(moving, x, 1.1, tol=1e-12, solve=solve)
    assert np.allclose(x2[1:], np.sqrt(5.1), rtol=1e-12)
    assert moving.factored_at == []
    # escalate hands the factor downward in the same way: it solves M = 1
    # from the supersolution start, and then M = 0.9, which the interior
    # test compares with, without a factorization of its own (the fixed
    # node holds the level's M)
    levels = _Counting(coupling=1.0)
    assert escalate(levels, [0.9, 1.0], **KW,
                    max_levels=2).m_history == [0.9, 1.0]
    assert levels.factored_at
    assert all(x[0] == 1.0 for x in levels.factored_at)


def test_stalled_newton_with_kept_factor_raises_with_trace():
    # a kept factor that fails is dropped; the fresh uphill step then stalls
    toy = _Toy(step_sign=+1.0)
    weak = _Toy().factor(np.full(3, 1e3))   # downhill, but far too short
    with pytest.raises(NewtonError, match="toy Newton stalled at M=5") as err:
        damped_newton(toy, np.full(3, 3.0), 5.0, tol=1e-12, solve=weak)
    assert err.value.trace == [pytest.approx(np.sqrt(2.0) * 5.0)]


@pytest.mark.parametrize("n", [3, 6])
def test_reused_factor_follows_the_fresh_newton_path(n, monkeypatch):
    dom = DomainSpec2D("meridian", aperture=np.pi / 3)
    cfg = SolveConfig(nt_per_octave=4, n_eta=32)
    op = euclidean_operator(n)
    chord = solve(dom, op, n, cfg)
    monkeypatch.setattr(_WedgeSystem, "reuse_factor", False)
    fresh = solve(dom, op, n, cfg)
    assert chord.m_history == fresh.m_history
    window = fresh.interior_window()
    for a, b in ((chord.u, fresh.u), (chord.u_high, fresh.u_high)):
        assert np.max(np.abs(a - b)[window] / b[window]) <= 1e-9


# the mesh of the cone-n6-pair benchmark
BENCH_DOMAIN = DomainSpec2D("meridian", aperture=np.pi / 3, r_min=2.0**-9)
BENCH_CONFIG = SolveConfig(schedule=(1e2,), nt_per_octave=4, n_eta=32,
                           bracket_tol=1.0)


def _escalate_low(system):
    """The low bracket's escalation, as `solve` runs it on `system`."""
    cfg = BENCH_CONFIG
    low = escalate(system, cfg.schedule, tol=cfg.newton_tol,
                   interior_tol=cfg.interior_tol, max_levels=MAX_LEVELS)
    system.bracket_factor = cfg.bracket[1]
    return low


def _low_bracket(n):
    system = _WedgeSystem(BENCH_DOMAIN, euclidean_operator(n), n, BENCH_CONFIG)
    low = _escalate_low(system)
    return system, low.x, low.m_history


@pytest.mark.parametrize("n", [3, 6])
def test_continued_high_bracket_matches_a_direct_solve(n):
    # solve() takes the high bracket by one continuation step from the low
    # field; solving the last level directly with the high cut data, from
    # the supersolution start (a schedule that ends there), lands on it too
    fld = solve(BENCH_DOMAIN, euclidean_operator(n), n, BENCH_CONFIG)
    system, _, m_hist = _low_bracket(n)
    assert m_hist == fld.m_history
    cfg = BENCH_CONFIG
    direct = escalate(system, m_hist, tol=cfg.newton_tol,
                      interior_tol=cfg.interior_tol, max_levels=len(m_hist))
    u_direct = system._to_u(direct.x)
    window = fld.interior_window()
    rel = np.abs(fld.u_high - u_direct)[window] / u_direct[window]
    assert np.max(rel) <= 1e-9


def test_search_hands_back_the_reported_levels_factor(monkeypatch):
    # the high bracket starts from the factorization Newton kept at the
    # reported level, not from the one kept at the last level the search
    # solved, below it
    returned = []
    newton_step = newton.damped_newton

    def recording(problem, x0, M, tol, solve=None):
        result = newton_step(problem, x0, M, tol, solve=solve)
        returned.append((M, result[2]))
        return result

    monkeypatch.setattr(newton, "damped_newton", recording)
    system = _WedgeSystem(BENCH_DOMAIN, euclidean_operator(6), 6, BENCH_CONFIG)
    low = _escalate_low(system)
    M = low.m_history[-1]
    assert returned[-1][0] < M      # the search solved levels below it last
    own = [kept for level, kept in returned if level == M]
    assert len(own) == 1 and own[0] is not None and low.solve is own[0]


def test_high_bracket_from_low_field_is_newton_converged(monkeypatch):
    # with the high cut data the low field's residual is small beside the
    # wall rows, yet the field is percents off near the cuts: Newton must
    # still step
    system, w_lo, m_hist = _low_bracket(6)
    calls = []
    splu = solver.splu

    def counting_splu(J, **kwargs):
        calls.append(J.shape)
        return splu(J, **kwargs)

    monkeypatch.setattr(solver, "splu", counting_splu)
    tol = BENCH_CONFIG.newton_tol
    w_hi, predicted, _ = damped_newton(system, w_lo, m_hist[-1], tol)
    assert len(calls) >= 1 and predicted <= tol
    # eight fresh Newton steps from the result barely move it
    data = system.dirichlet(m_hist[-1])
    x = w_hi.copy()
    for _ in range(8):
        x = x + system.factor(x)(-system.residual(x, data))
    free = ~system.fixed
    assert np.max(np.abs(x - w_hi)[free] / x[free]) <= tol


class _Floor(_Toy):
    """x1^2 = 4 beside a stiff wall row whose noise floor dominates |res|.

    Row 2 carries a fixed-size noise term that its Jacobian does not see,
    as rounding in the stiff rows next to the wall does: once row 1 is
    below it, |res| goes up and down at random while the correction still
    falls quadratically.  A line search on |res| alone stalls here at
    M = 5 from x1 = 3 (NewtonError after 5 factorizations).
    """

    reuse_factor = False

    def __init__(self):
        super().__init__()
        self.factored = 0

    def residual(self, x, data):
        return np.array([x[0] - data[0], x[1] ** 2 - 4.0,
                         1e8 * (x[2] ** 2 - 4.0) + 1e-3 * np.sin(1e7 * x[1])])

    def factor(self, x):
        self.factored += 1
        diag = np.array([1.0, 2.0 * x[1], 2e8 * x[2]])
        return lambda rhs: rhs / diag


def test_damping_at_the_residual_floor_judges_the_correction():
    # the simplified correction from the factor in hand accepts the full
    # steps the residual norm cannot judge: 5 factorizations to 1e-12
    toy = _Floor()
    x, predicted, _ = damped_newton(toy, np.array([5.0, 3.0, 2.0]), 5.0,
                                    tol=1e-12)
    assert predicted <= 1e-12
    assert abs(x[1] - 2.0) <= 1e-12
    assert toy.factored <= 5


def _operator(n, q):
    if q is None:
        return euclidean_operator(n)
    return conformal_operator(conformal_quadratic_metric(n, q))


def _climb(problem, schedule, *, tol, interior_tol, max_levels):
    """Reference for `escalate`: every ladder level solved bottom-up to tol.

    It stops at the first level, from the last scheduled one on, where the
    cap is reached or the band moved by less than `interior_tol` from the
    level below.  Returns ((M, x) per level, stop_reason).
    """
    levels, reason = [], "max_levels"
    x = None
    for k in range(max_levels):
        M = schedule[k] if k < len(schedule) else levels[-1][0] * newton.GROWTH
        x = damped_newton(problem, problem.warm_start(x, M), M, tol)[0]
        levels.append((M, x))
        if k + 1 < len(schedule):
            continue
        if problem.cap_reached(x, M):
            reason = "cap"
            break
        if k > 0:
            below, band = levels[-2][1], problem.band
            if np.max(np.abs(x[band] - below[band]) / x[band]) < interior_tol:
                reason = "interior"
                break
    return levels, reason


# the bench mesh at n = 3 and 6, Euclidean and conformal-quadratic q = 0.3
BENCH_CASES = [(3, None), (3, 0.3), (6, None), (6, 0.3)]
SNAPSHOT_CASES = [
    *((BENCH_DOMAIN, n, q, BENCH_CONFIG) for n, q in BENCH_CASES),
    (DomainSpec2D("cross-section", aperture=np.pi / 2, r_min=2.0**-9), 4,
     None, BENCH_CONFIG),
    # criterion 10's ball
    (DomainSpec2D("ball", aperture=np.pi, r_max=1.0), 3, None,
     SolveConfig(schedule=(1e2, 1e3, 1e4), bracket_tol=1.0, n_eta=200,
                 eta_grading=2.0)),
]


@pytest.mark.parametrize("domain,n,q,cfg",
                         [SNAPSHOT_CASES[k] for k in (0, 2, 5)],
                         ids=["3", "6", "ball-3"])
def test_level_snapshots_are_the_levels_converged_to_tol(domain, n, q, cfg):
    # the reference climb solves every level to newton_tol, so its levels
    # are what the snapshots must be; the last snapshot is the field itself
    op = _operator(n, q)
    fld = solve(domain, op, n, cfg)
    snaps = level_fields(fld, op, cfg)
    problem, *_, to_u = solver._truncated_problem(domain, op, n, cfg)
    levels, _ = _climb(problem, cfg.schedule, tol=cfg.newton_tol,
                       interior_tol=cfg.interior_tol, max_levels=MAX_LEVELS)
    assert [M for M, _ in snaps] == [M for M, _ in levels] == fld.m_history
    assert snaps[-1][1] is fld.u
    window = fld.interior_window()
    for (_, u), (_, x_ref) in zip(snaps, levels):
        u_ref = to_u(x_ref)
        assert np.max(np.abs(u - u_ref)[window] / u_ref[window]) <= 1e-9


# 1-D caps of aperture pi/3, as the profile stage solves them
CLIMB_PROFILES = [(cap(np.pi / 3), n) for n in (3, 4, 6)]


@pytest.mark.parametrize("case", [*SNAPSHOT_CASES, *CLIMB_PROFILES], ids=[
    "meridian-n3", "meridian-n3-q0.3", "meridian-n6", "meridian-n6-q0.3",
    "cross-section-n4", "ball-n3", "cap-n3", "cap-n4", "cap-n6"])
def test_search_reports_the_level_a_climb_stops_at(case, monkeypatch):
    # the search assumes the stop test, once met, holds at every higher
    # level; a climb through every level assumes nothing.  Every escalation
    # the solve runs, the 2-D cut-data profile's included, is checked.
    checked = []

    def against_climb(problem, schedule, **kw):
        result = escalate(problem, schedule, **kw)
        levels, reason = _climb(problem, schedule, **kw)
        assert result.m_history == [M for M, _ in levels]
        assert result.stop_reason == reason
        x_ref = levels[-1][1]
        checked.append(np.abs(result.x - x_ref) / x_ref)
        return result

    monkeypatch.setattr(solver, "escalate", against_climb)
    monkeypatch.setattr(profiles, "escalate", against_climb)
    if len(case) == 2:
        domain, n = case
        prof = solve_profile(domain, n, grid=GridSpec(1600, 2.0))
        window = prof.interior_mask()
    else:
        domain, n, q, cfg = case
        fld = solve(domain, _operator(n, q), n, cfg)
        window = fld.interior_window().ravel()
    # the reported field, on the window the verified numbers are read from
    assert np.max(checked[-1][window]) <= 1e-9


# meridian solves whose solution lies above the supersolution start (2/d)^m
# at some nodes (a q < 0 shrinks the conformal factor), so that the top
# level does not stop and the search steps up
STEP_UP_CASES = [(3, -0.5, 1.0), (4, -0.9, 0.5), (4, -0.9, 1.0),
                 (4, -0.9, 2.0), (4, -0.9, 3.0)]
STEP_UP_CONFIG = SolveConfig(schedule=(1e2,), nt_per_octave=8, n_eta=32,
                             bracket_tol=1.0)


@pytest.mark.parametrize("n, q, aperture", STEP_UP_CASES)
def test_search_steps_up_to_the_level_a_climb_stops_at(n, q, aperture,
                                                      monkeypatch):
    # the search reports the climb's level and stop reason, and its field
    # within 10 newton_tol on every node, after climbing above its top: the
    # first level whose supersolution start reaches the cap
    checked = []

    def against_climb(problem, schedule, **kw):
        result = escalate(problem, schedule, **kw)
        levels, reason = _climb(problem, schedule, **kw)
        top = next(M for M in (schedule[-1] * newton.GROWTH**k
                               for k in range(kw["max_levels"]))
                   if problem.cap_reached(problem.warm_start(None, M), M))
        x_ref = levels[-1][1]
        checked.append((result.m_history, [M for M, _ in levels],
                        result.stop_reason, reason, top,
                        np.max(np.abs(result.x - x_ref) / x_ref)))
        return result

    monkeypatch.setattr(solver, "escalate", against_climb)
    dom = DomainSpec2D("meridian", aperture=aperture, r_min=2.0**-6)
    solve(dom, _operator(n, q), n, STEP_UP_CONFIG)
    [(history, climbed, stop, climb_stop, top, change)] = checked
    assert history == climbed and stop == climb_stop
    assert history[-1] > top
    assert change <= 10.0 * STEP_UP_CONFIG.newton_tol


def _same_problem(ref, u, u_high, m_history):
    assert m_history[-1] == ref.m_history[-1]
    window = ref.interior_window()
    for a, b in ((u, ref.u), (u_high, ref.u_high)):
        assert np.max(np.abs(a - b)[window] / b[window]) <= 1e-9


@pytest.mark.parametrize("n,q", BENCH_CASES)
def test_field_does_not_depend_on_the_path(n, q, monkeypatch):
    op = _operator(n, q)
    ref = solve(BENCH_DOMAIN, op, n, BENCH_CONFIG)

    def pair(system):
        # the low bracket's escalation and the high bracket's continuation
        # step, as solve() takes them
        low = _escalate_low(system)
        w_hi, _, _ = damped_newton(system, low.x, low.m_history[-1],
                                   BENCH_CONFIG.newton_tol, solve=low.solve)
        return system._to_u(low.x), system._to_u(w_hi), low.m_history

    # solve()'s own path, through the pieces varied below
    u, u_high, m_hist = pair(_WedgeSystem(BENCH_DOMAIN, op, n, BENCH_CONFIG))
    assert u.tobytes() == ref.u.tobytes() and m_hist == ref.m_history
    assert u_high.tobytes() == ref.u_high.tobytes()

    # M growing by 4 in the 2-D escalation alone: the system, and with it
    # the cut-data profile, is built at the default growth
    system = _WedgeSystem(BENCH_DOMAIN, op, n, BENCH_CONFIG)
    with monkeypatch.context() as patch:
        patch.setattr(newton, "GROWTH", 4.0)
        u, u_high, m_hist = pair(system)
    assert len(m_hist) < len(ref.m_history)
    _same_problem(ref, u, u_high, m_hist)

    # a fresh Jacobian at every Newton step
    with monkeypatch.context() as patch:
        patch.setattr(_WedgeSystem, "reuse_factor", False)
        fresh = solve(BENCH_DOMAIN, op, n, BENCH_CONFIG)
    _same_problem(ref, fresh.u, fresh.u_high, fresh.m_history)


def _record_levels(monkeypatch):
    """The M of every level Newton solves from here on, in order."""
    levels = []
    newton_step = newton.damped_newton

    def recording(problem, x0, M, tol, solve=None):
        levels.append(M)
        return newton_step(problem, x0, M, tol, solve=solve)

    monkeypatch.setattr(newton, "damped_newton", recording)
    return levels


class _Settling(_Toy):
    """x1 = x2 = sqrt(4 + 1/M): the band change from M to 2M is about
    1/(16 M) relative, under 1e-3 from the pair (64, 128) on."""

    def residual(self, x, data):
        return np.where(self.fixed, x - data, x**2 - 4.0 - 1.0 / x[0])


def test_descent_tests_the_interior_against_the_level_above(monkeypatch):
    # no cap: the search starts at the top, 512, takes its interior test
    # against 256, and each level below against the one above it, which it
    # holds.  The first pair that settles is (64, 128), so the descent
    # reports its lower level, one below where a climb stops
    levels = _record_levels(monkeypatch)
    kw = dict(tol=1e-12, interior_tol=1e-3, max_levels=10)
    result = escalate(_Settling(), [1.0], **kw)
    assert levels == [512.0, 256.0, 128.0, 64.0, 32.0]
    assert result.m_history[-1] == 64.0 and result.stop_reason == "interior"
    climbed, reason = _climb(_Settling(), [1.0], **kw)
    assert climbed[-1][0] == 128.0 and reason == "interior"


class _Capped(_Toy):
    """The toy under a cap read from the field, as the profile's: M at
    least 3 x1.  The start 100 bounds x1 = sqrt(4 + coupling * M) until M
    reaches about 1e4."""

    def warm_start(self, x, M):
        return np.full(3, 100.0) if x is None else x

    def cap_reached(self, x, M):
        return M >= 3.0 * np.max(x[1:])


def test_search_jumps_to_the_levels_the_top_certifies(monkeypatch):
    # the start reaches the cap at M = 512, where x1 = sqrt(516) = 22.7, so
    # every level from 3 x1 = 68.1 up reaches it too: the search skips 256,
    # solves 128 from 512 and steps down to 8, the first level off the cap
    levels = _record_levels(monkeypatch)
    toy = _Capped(coupling=1.0)
    result = escalate(toy, [1.0], **KW, max_levels=20)
    assert levels == [512.0, 128.0, 64.0, 32.0, 16.0, 8.0]
    climbed, reason = _climb(toy, [1.0], **KW, max_levels=20)
    assert result.m_history == [M for M, _ in climbed] == [1.0, 2.0, 4.0,
                                                           8.0, 16.0]
    assert result.stop_reason == reason == "cap"
    assert np.allclose(result.x, climbed[-1][1], rtol=1e-12)


def test_search_steps_up_from_a_jump_that_does_not_stop(monkeypatch):
    # a field that falls with M, x1 = sqrt(4 - M / 200), breaks the bound
    # the jump rests on: the top, 512, certifies M = 4 by x1 = 1.2, but
    # there x1 = 2.0 and the cap needs M >= 6.0.  The search steps up from
    # 4 to where a climb stops
    levels = _record_levels(monkeypatch)
    toy = _Capped(coupling=-1.0 / 200.0)
    result = escalate(toy, [1.0], **KW, max_levels=20)
    assert levels == [512.0, 4.0, 8.0]
    climbed, reason = _climb(toy, [1.0], **KW, max_levels=20)
    assert result.m_history == [M for M, _ in climbed] == [1.0, 2.0, 4.0, 8.0]
    assert result.stop_reason == reason == "cap"
    assert np.allclose(result.x, climbed[-1][1], rtol=1e-12)


def test_overflow_is_a_newton_error_without_warnings():
    # at M = 1e308 the residual holds 1e308 - 4, whose square overflows the
    # norm; a factorization that is not finite gives a non-finite correction
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NewtonError, match="residual norm is not finite"):
            damped_newton(_Toy(coupling=1.0), np.full(3, 3.0), 1e308,
                          tol=1e-12)
        broken = _Toy()
        broken.factor = lambda x: lambda rhs: rhs * np.inf
        with pytest.raises(NewtonError, match="correction is not finite"):
            damped_newton(broken, np.full(3, 3.0), 5.0, tol=1e-12)


# the sweep-1d cap of aperture 1.1 at n = 6, on the bench's 1,600 nodes
SWEEP_CAP = (cap(1.1), 6)


@pytest.mark.parametrize("case, solved", [
    (CLIMB_PROFILES[0], [1600.0, 800.0, 400.0]),
    (CLIMB_PROFILES[1], [819200.0, 409600.0, 204800.0, 102400.0]),
    (CLIMB_PROFILES[2], [100.0 * 2.0**k for k in (31, 29, 28, 27, 26, 25)]),
    (SWEEP_CAP, [100.0 * 2.0**k for k in (31, 28, 27, 26, 25)])],
    ids=["cap-n3", "cap-n4", "cap-n6", "sweep-cap-n6"])
def test_profile_search_solves_the_levels_that_decide_its_stop(
        case, solved, monkeypatch):
    # the top level, the jump's target and each level down to the first
    # that does not stop: at n = 6 the cap-n6 top certifies all but the one
    # level below it, the sweep cap's all but two
    levels = _record_levels(monkeypatch)
    domain, n = case
    prof = solve_profile(domain, n, grid=GridSpec(1600, 2.0))
    assert levels == solved
    assert prof.m_history[-1] == solved[-2] and prof.stop_reason == "cap"


def test_bench_pair_factorizations(monkeypatch):
    # the Euclidean solve of the bench pair at n = 6: its cut-data profile
    # jumps from 51200 to 6400, and the 2-D search solves the top, the
    # reported level and the one below, whose interior test is against the
    # reported level; 9 LU, and 15 with the perturbed solve
    levels = _record_levels(monkeypatch)
    calls = []
    splu = solver.splu

    def counting_splu(J, **kwargs):
        calls.append(J.shape)
        return splu(J, **kwargs)

    monkeypatch.setattr(solver, "splu", counting_splu)
    base = solve(BENCH_DOMAIN, euclidean_operator(6), 6, BENCH_CONFIG)
    M = base.m_history[-1]
    assert levels == [51200.0, 6400.0, 3200.0, 1600.0, 800.0, 400.0,
                      2.0 * M, M, M / 2.0]
    assert len(calls) == 9
    solve(BENCH_DOMAIN, _operator(6, 0.3), 6, BENCH_CONFIG,
          forced_schedule=base.m_history)
    assert len(calls) == 15


def _linear_descent(problem, schedule, M_reported, tol):
    """Reference for the jump: the top of the ladder as `escalate` builds
    it, solved from the supersolution start, then every level below it from
    the one above, down to M_reported.  Returns that level's field."""
    M = float(schedule[-1])
    while not problem.cap_reached(problem.warm_start(None, M), M):
        M *= newton.GROWTH
    x, solve_kept = None, None
    while True:
        x, _, solve_kept = damped_newton(problem, problem.warm_start(x, M), M,
                                         tol, solve=solve_kept)
        if M <= M_reported:
            return x
        M /= newton.GROWTH


@pytest.mark.parametrize("case", [*CLIMB_PROFILES, SWEEP_CAP,
                                  SNAPSHOT_CASES[2]],
                         ids=["cap-n3", "cap-n4", "cap-n6", "sweep-cap-n6",
                              "meridian-n6"])
def test_search_field_matches_a_linear_descent(case, monkeypatch):
    # the jump solves the reported level from a field several levels above
    # it; a descent one level at a time lands on the same field within
    # 1e-9 on the window the verified numbers are read from.  Every
    # escalation is checked, the 2-D cut-data profile's included
    checked = []

    def against_descent(problem, schedule, **kw):
        result = escalate(problem, schedule, **kw)
        x_ref = _linear_descent(problem, schedule, result.m_history[-1],
                                kw["tol"])
        checked.append((problem, np.abs(result.x - x_ref) / x_ref))
        return result

    monkeypatch.setattr(solver, "escalate", against_descent)
    monkeypatch.setattr(profiles, "escalate", against_descent)
    if len(case) == 2:
        domain, n = case
        prof = solve_profile(domain, n, grid=GridSpec(1600, 2.0))
        windows = [prof.interior_mask()]
    else:
        domain, n, q, cfg = case
        fld = solve(domain, _operator(n, q), n, cfg)
        cut = checked[0][0]
        windows = [cut.band, fld.interior_window().ravel()]
    assert len(checked) == len(windows)
    for (_, rel), window in zip(checked, windows):
        assert np.max(rel[window]) <= 1e-9
