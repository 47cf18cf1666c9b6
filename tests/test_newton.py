import numpy as np
import pytest

from blowlab.errors import NewtonError
from blowlab.newton import damped_newton, escalate
from blowlab.operators import euclidean_operator
from blowlab.solver import DomainSpec2D, SolveConfig, solve


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

    def step(self, x, res):
        return self.step_sign * np.where(self.fixed, 0.0, res / (2.0 * x))

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
