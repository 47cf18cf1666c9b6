from dataclasses import replace

import numpy as np
import pytest

from blowlab.errors import NewtonError
from blowlab import newton
from blowlab.newton import KAPPA, damped_newton, escalate
from blowlab.operators import (conformal_operator, conformal_quadratic_metric,
                               euclidean_operator)
from blowlab.profiles import GridSpec, solve_profile
from blowlab import solver
from blowlab.solver import (MAX_LEVELS, DomainSpec2D, SolveConfig,
                            _WedgeSystem, solve)
from conftest import half_sphere


@pytest.mark.parametrize("n", [3, 6])
def test_replaying_own_schedule_is_bit_identical(n):
    dom = DomainSpec2D("meridian", aperture=np.pi / 3)
    cfg = SolveConfig(nt_per_octave=4, n_eta=32)
    op = euclidean_operator(n)
    base = solve(dom, op, n, cfg)
    replay = solve(dom, op, n, cfg, forced_schedule=base.m_history)
    assert replay.m_history == base.m_history
    assert replay.u.tobytes() == base.u.tobytes()
    assert replay.u_high.tobytes() == base.u_high.tobytes()
    assert replay.newton_residual == base.newton_residual


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
    x, m_hist, _, reason = escalate(_Toy(), [1.0, 2.0], **KW, max_levels=10)
    assert m_hist == [1.0, 2.0] and reason == "interior"
    assert x[0] == 2.0
    # a moving interior escalates by the growth factor up to the cap ...
    moving = _Toy(coupling=1.0, cap_at=8.0)
    x, m_hist, _, reason = escalate(moving, [1.0, 2.0], **KW, max_levels=10)
    assert m_hist == [1.0, 2.0, 4.0, 8.0] and reason == "cap"
    assert np.allclose(x[1:], np.sqrt(12.0), rtol=1e-12)
    # ... or up to max_levels, which also cuts a schedule short
    _, m_hist, _, reason = escalate(_Toy(coupling=1.0), [1.0, 2.0], **KW,
                                    max_levels=3)
    assert m_hist == [1.0, 2.0, 4.0] and reason == "max_levels"
    _, m_hist, _, reason = escalate(_Toy(), [1.0, 2.0, 4.0], **KW,
                                    max_levels=2)
    assert m_hist == [1.0, 2.0] and reason == "max_levels"


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
    # escalate hands the factor over in the same way: no factorization is
    # made during the second level (the fixed node holds the level's M)
    levels = _Counting(coupling=1.0)
    _, m_hist, _, _ = escalate(levels, [1.0, 1.1], **KW, max_levels=2)
    assert m_hist == [1.0, 1.1]
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
    system.bracket_factor = cfg.bracket[0]
    low = escalate(system, cfg.schedule, tol=cfg.newton_tol,
                   interior_tol=cfg.interior_tol, max_levels=MAX_LEVELS)
    system.bracket_factor = cfg.bracket[1]
    return low


def _low_bracket(n):
    system = _WedgeSystem(BENCH_DOMAIN, euclidean_operator(n), n, BENCH_CONFIG)
    w_lo, m_hist, _, _ = _escalate_low(system)
    return system, w_lo, m_hist


@pytest.mark.parametrize("n", [3, 6])
def test_continued_high_bracket_matches_replay(n):
    # solve() takes the high bracket by one continuation step from the low
    # field; replaying every level with the high cut data lands on it too
    fld = solve(BENCH_DOMAIN, euclidean_operator(n), n, BENCH_CONFIG)
    system, _, m_hist = _low_bracket(n)
    assert m_hist == fld.m_history
    cfg = BENCH_CONFIG
    w_replay, _, _, _ = escalate(
        system, m_hist, tol=cfg.newton_tol,
        interior_tol=cfg.interior_tol, max_levels=len(m_hist))
    u_replay = system._to_u(w_replay)
    window = fld.interior_window()
    rel = np.abs(fld.u_high - u_replay)[window] / u_replay[window]
    assert np.max(rel) <= 1e-9


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


def test_interior_that_settles_in_one_level_stops_as_when_converged(
        monkeypatch):
    # the interior converges within the first level: the loose fields
    # cannot tell, so the doubt rule decides on converged ones and stops
    # at the same level as an escalation that converges every level
    for schedule, levels in (([1.0], [1.0, 2.0]), ([1.0, 3.0], [1.0, 3.0])):
        with monkeypatch.context() as patch:
            patch.setattr(newton, "KAPPA", 0.0)      # every level to tol
            ref = escalate(_Toy(), schedule, **KW, max_levels=10)
        loose = escalate(_Toy(), schedule, **KW, max_levels=10)
        assert loose.m_history == ref.m_history == levels
        assert loose.stop_reason == ref.stop_reason == "interior"
        assert np.allclose(loose.x, ref.x, rtol=1e-12)


class _Probe(_Toy):
    """The toy with a cap that reads the field: reached once x1 <= 2(1 + 1e-9)."""

    def cap_reached(self, x, M):
        return x[1] <= 2.0 * (1.0 + 1e-9)


def test_cap_in_doubt_is_decided_on_the_converged_field(monkeypatch):
    # the loose first level stands above the root by far more than the
    # cap's 1e-9 margin; converged, it lies within it
    with monkeypatch.context() as patch:
        patch.setattr(newton, "KAPPA", 0.0)          # every level to tol
        ref = escalate(_Probe(), [1.0], **KW, max_levels=10)
    loose = escalate(_Probe(), [1.0], **KW, max_levels=10)
    assert ref.m_history == loose.m_history == [1.0]
    assert ref.stop_reason == loose.stop_reason == "cap"


def test_levels_before_the_stop_are_solved_loosely(monkeypatch):
    # the first level goes to KAPPA, the reported one to tol from where it
    # stood, with the factor it kept
    tols = []

    def recording(problem, x0, M, tol, **kw):
        tols.append((M, tol))
        return damped_newton(problem, x0, M, tol, **kw)

    monkeypatch.setattr(newton, "damped_newton", recording)
    result = escalate(_Toy(coupling=1.0, cap_at=8.0), [1.0], **KW,
                      max_levels=10)
    assert result.m_history == [1.0, 2.0, 4.0, 8.0]
    assert tols[0] == (1.0, KAPPA)
    assert tols[-1] == (8.0, KW["tol"])
    assert result.residual <= KW["tol"]
    assert np.allclose(result.x[1:], np.sqrt(12.0), rtol=1e-12)
    assert result.solve is not None


@pytest.mark.parametrize("n", [3, 6])
def test_loose_levels_match_levels_converged_to_tol(n, monkeypatch):
    # the reference converges every level to newton_tol: with KAPPA = 0
    # every Newton solve, the high bracket's included, runs at newton_tol
    dom = DomainSpec2D("meridian", aperture=np.pi / 3)
    cfg = SolveConfig(nt_per_octave=4, n_eta=32)
    op = euclidean_operator(n)
    loose = solve(dom, op, n, cfg)
    tols = []

    def recording(problem, x0, M, tol, **kw):
        tols.append(tol)
        return damped_newton(problem, x0, M, tol, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(newton, "KAPPA", 0.0)
        patch.setattr(newton, "damped_newton", recording)
        patch.setattr(solver, "damped_newton", recording)
        ref = solve(dom, op, n, cfg)
    assert len(tols) > len(ref.m_history)
    assert set(tols) == {cfg.newton_tol}
    assert loose.m_history == ref.m_history
    assert loose.stop_reason == ref.stop_reason
    window = ref.interior_window()
    for a, b in ((loose.u, ref.u), (loose.u_high, ref.u_high)):
        assert np.max(np.abs(a - b)[window] / b[window]) <= 1e-9


def test_first_comparison_in_doubt_is_settled_short_of_tol(monkeypatch):
    # levels 0 and 1 both go to KAPPA, so at M = 200 the n = 3 interior
    # test is in doubt; tightening the two fields to KAPPA times their
    # change settles it, and only the reported level goes to tol
    domain = half_sphere()
    grid = GridSpec(1600, 2.0)
    tols = []

    def recording(problem, x0, M, tol, **kw):
        tols.append((M, tol))
        return damped_newton(problem, x0, M, tol, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(newton, "KAPPA", 0.0)      # every level to tol
        ref = solve_profile(domain, 3, grid=grid)
    monkeypatch.setattr(newton, "damped_newton", recording)
    prof = solve_profile(domain, 3, grid=grid)
    assert prof.m_history == ref.m_history
    assert prof.stop_reason == ref.stop_reason
    assert [M for M, _ in tols[:4]] == [1e2, 2e2, 1e2, 2e2]   # the doubt
    assert [M for M, tol in tols if tol == 1e-10] == [prof.m_history[-1]]
    assert np.max(np.abs(prof.g - ref.g) / ref.g) <= 1e-9


def _operator(n, q):
    if q is None:
        return euclidean_operator(n)
    return conformal_operator(conformal_quadratic_metric(n, q))


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


@pytest.mark.parametrize("domain,n,q,cfg", SNAPSHOT_CASES, ids=[
    "meridian-n3", "meridian-n3-q0.3", "meridian-n6", "meridian-n6-q0.3",
    "cross-section-n4", "ball-n3"])
def test_observing_the_levels_does_not_change_the_solve(domain, n, q, cfg):
    # keep_level_fields selects what is recorded, not how the levels are
    # solved: the result is the same float with and without the snapshots
    op = _operator(n, q)
    plain = solve(domain, op, n, cfg)
    observed = solve(domain, op, n, replace(cfg, keep_level_fields=True))
    assert plain.level_fields == []
    assert [M for M, _ in observed.level_fields] == observed.m_history
    assert observed.m_history == plain.m_history
    assert observed.u.tobytes() == plain.u.tobytes()
    if plain.u_high is not None:
        assert observed.u_high.tobytes() == plain.u_high.tobytes()
    for name in ("newton_residual", "stop_reason", "bracket_width"):
        assert getattr(observed, name) == getattr(plain, name)
    # the last snapshot is the reported level itself
    assert observed.level_fields[-1][1].tobytes() == plain.u.tobytes()


@pytest.mark.parametrize("n", [3, 6])
def test_level_snapshots_are_the_levels_converged_to_tol(n, monkeypatch):
    # the reference solves every level to newton_tol, so its snapshots are
    # the levels themselves
    op = euclidean_operator(n)
    cfg = replace(BENCH_CONFIG, keep_level_fields=True)
    observed = solve(BENCH_DOMAIN, op, n, cfg)
    with monkeypatch.context() as patch:
        patch.setattr(newton, "KAPPA", 0.0)
        ref = solve(BENCH_DOMAIN, op, n, cfg)
    assert len(observed.level_fields) == len(ref.level_fields)
    window = ref.interior_window()
    for (M, u), (M_ref, u_ref) in zip(observed.level_fields, ref.level_fields):
        assert M == M_ref
        assert np.max(np.abs(u - u_ref)[window] / u_ref[window]) <= 1e-9


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
