import numpy as np
import pytest

from blowlab.errors import NewtonError
from blowlab.newton import damped_newton, escalate
from blowlab.operators import euclidean_operator
from blowlab.solver import DomainSpec2D, SolveConfig, _WedgeSystem, solve


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


KW = dict(tol=1e-12, growth=2.0, interior_tol=1e-8)


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

    def scale(self, x):
        return 1.0

    def cap_reached(self, x, M):
        return M >= self.cap_at


def test_stalled_newton_raises_with_trace():
    # the step points uphill, so no damping of it lowers the residual
    with pytest.raises(NewtonError, match="toy Newton stalled at M=5") as err:
        damped_newton(_Toy(step_sign=+1.0), np.full(3, 3.0), 5.0, tol=1e-12)
    assert err.value.trace == [pytest.approx(np.sqrt(2.0) * 5.0)]


def test_escalate_stops():
    # an interior that does not move stops at the schedule's last level
    x, m_hist, _ = escalate(_Toy(), [1.0, 2.0], **KW, max_levels=10)
    assert m_hist == [1.0, 2.0]
    assert x[0] == 2.0
    # a moving interior escalates by the growth factor up to the cap ...
    moving = _Toy(coupling=1.0, cap_at=8.0)
    x, m_hist, _ = escalate(moving, [1.0, 2.0], **KW, max_levels=10)
    assert m_hist == [1.0, 2.0, 4.0, 8.0]
    assert np.allclose(x[1:], np.sqrt(12.0), rtol=1e-12)
    # ... or up to max_levels, which also cuts a schedule short
    _, m_hist, _ = escalate(_Toy(coupling=1.0), [1.0, 2.0], **KW, max_levels=3)
    assert m_hist == [1.0, 2.0, 4.0]
    _, m_hist, _ = escalate(_Toy(), [1.0, 2.0, 4.0], **KW, max_levels=2)
    assert m_hist == [1.0, 2.0]


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
    first_level = len(moving.factored_at)
    assert solve is not None
    moving.factored_at.clear()
    x2, _, _ = damped_newton(moving, x, 1.1, tol=1e-12, solve=solve)
    assert np.allclose(x2[1:], np.sqrt(5.1), rtol=1e-12)
    assert moving.factored_at == []
    # escalate hands the factor over in the same way
    levels = _Counting(coupling=1.0)
    _, m_hist, _ = escalate(levels, [1.0, 1.1], **KW, max_levels=2)
    assert m_hist == [1.0, 1.1]
    assert len(levels.factored_at) == first_level


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
