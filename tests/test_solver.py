from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from blowlab.analysis import compare_to_cone
from blowlab.errors import ConfigError, DomainError
from blowlab.operators import (
    OperatorSpec,
    conformal_operator,
    conformal_quadratic_metric,
    euclidean_operator,
)
from blowlab import solver
from blowlab.newton import damped_newton
from blowlab.profiles import (
    _profile_terms,
    graded_nodes,
    guarded_cot,
    nonuniform_d1,
    nonuniform_d2,
    one_sided_d1,
    solve_profile,
)
from blowlab.solver import (
    DomainSpec2D,
    SolutionField,
    SolveConfig,
    _WedgeSystem,
    exact_ball,
    exact_halfspace,
    growth_check,
    level_fields,
    monotone_check,
    solve,
    sum_supersolution_defect,
)

BALL = DomainSpec2D("ball", aperture=np.pi, r_max=1.0)
BALL_CFG = SolveConfig(schedule=(1e2, 1e3, 1e4), bracket_tol=1.0,
                       n_eta=200, eta_grading=2.0)


@pytest.fixture(scope="module")
def ball_field():
    return solve(BALL, euclidean_operator(3), 3, BALL_CFG)


@pytest.fixture(scope="module")
def ball_levels(ball_field):
    return level_fields(ball_field, euclidean_operator(3), BALL_CFG)


@pytest.fixture(scope="module")
def halfspace_cone_field():
    dom = DomainSpec2D("meridian", aperture=np.pi / 2, r_min=2.0**-8, r_max=1.0)
    cfg = SolveConfig(schedule=(1e2,), nt_per_octave=16, n_eta=128,
                      eta_grading=2.0, bracket_tol=1.0)
    return solve(dom, euclidean_operator(3), 3, cfg)


def test_exact_halfspace_values():
    assert exact_halfspace(3, 0.25) == pytest.approx(2.0)
    assert exact_halfspace(4, 1.0) == pytest.approx(1.0)
    assert exact_halfspace(6, 0.5) == pytest.approx(4.0)
    with pytest.raises(DomainError):
        exact_halfspace(3, 0.0)


def test_exact_ball_values():
    assert exact_ball(3, 1.0, np.zeros(3)) == pytest.approx(np.sqrt(2.0))
    assert exact_ball(6, 1.0, np.zeros(6)) == pytest.approx(4.0)
    with pytest.raises(DomainError):
        exact_ball(3, 1.0, np.array([1.0, 0, 0]))


def test_ball_interior_matches_exact(ball_field):
    mask = ball_field.r <= 0.7
    r = ball_field.r[mask]
    u = ball_field.u[mask, 0]
    exact = (2.0 / (1.0 - r**2)) ** 0.5
    assert np.max(np.abs(u / exact - 1.0)) <= 1e-3


def test_halfspace_cone_matches_exact(halfspace_cone_field):
    # the {1/2, 2} cut data decays only like (r/r_cut)^(mu1) with mu1 = 3
    # on the half-sphere cone, so the window carries visible localization
    # error everywhere; the mode analysis caps it near r = sqrt(r_min)
    fld = halfspace_cone_field
    r = fld.radii()
    th = fld.theta
    exact = (r * np.cos(th)) ** -0.5
    err = np.abs(fld.u / exact - 1.0)
    full = (r >= 2.0**-6) & (r <= 0.25) & (th <= np.pi / 2 - 0.2)
    assert np.max(err[full]) <= 2.5e-2
    core = (r >= 2.0**-5) & (r <= 2.0**-3) & (th <= np.pi / 2 - 0.2)
    assert np.max(err[core]) <= 5e-3


def test_fast_cone_matches_reference_everywhere():
    # on a cone with a fast decay index (cap 0.7, mu1 ~ 6.9) the cut data
    # is invisible and the solve agrees with the cone solution through the
    # whole comparison window
    from blowlab.analysis import compare_to_cone

    dom = DomainSpec2D("meridian", aperture=0.7, r_min=2.0**-8, r_max=1.0)
    cfg = SolveConfig(schedule=(1e2,), nt_per_octave=16, n_eta=128,
                      eta_grading=2.0, bracket_tol=1.0)
    fld = solve(dom, euclidean_operator(3), 3, cfg)
    ratio = compare_to_cone(fld)
    assert np.max(ratio.values) <= 1e-3


def test_monotone_schedule(ball_levels):
    rep = monotone_check(ball_levels)
    assert rep["monotone"]
    inc = rep["increments"]
    assert all(b < 0.5 * a for a, b in zip(inc, inc[1:]))


def test_monotone_identical_levels(ball_levels):
    M, u = ball_levels[-1]
    rep = monotone_check([(M, u), (2 * M, u.copy())])
    assert rep["monotone"] and rep["increments"][0] == 0.0


def test_monotone_bad_order(ball_levels):
    with pytest.raises(ConfigError):
        monotone_check(list(reversed(ball_levels)))


@pytest.mark.parametrize("change", [{"n_eta": 300}, {"eta_grading": 1.5}])
def test_level_fields_reject_another_mesh(ball_field, change):
    # more nodes, or as many nodes placed elsewhere
    with pytest.raises(ConfigError, match="does not rebuild the field's "
                                          "2000 x 1 mesh"):
        level_fields(ball_field, euclidean_operator(3),
                     replace(BALL_CFG, **change))


def test_ball_solve_ends_at_a_forced_schedule(ball_field):
    # a replay of the ball's own levels, or of their first two, ends at the
    # schedule's last level; the search alone goes past the second
    assert ball_field.m_history == [1e2, 1e3, 1e4]
    op = euclidean_operator(3)
    for levels in (ball_field.m_history, ball_field.m_history[:2]):
        replay = solve(BALL, op, 3, BALL_CFG, forced_schedule=levels)
        assert replay.m_history == levels
        assert replay.truncation == levels[-1]


def test_sum_supersolution(ball_field):
    cfg = SolveConfig(schedule=(1e2,), bracket_tol=1.0, n_eta=200,
                      eta_grading=2.0)
    other = solve(BALL, euclidean_operator(3), 3, cfg)
    defect = sum_supersolution_defect(ball_field, other)
    assert np.max(defect) <= 1e-8


def test_growth_check_ball(ball_field):
    lo, hi = growth_check(ball_field)
    assert lo > 0
    assert hi <= 2.0**0.5 * 1.05


def test_growth_check_halfspace(halfspace_cone_field):
    # near-wall cells sit against the truncation layer, so the upper value
    # reaches toward the Lemma-type bound 2^((n-2)/2) without crossing it
    lo, hi = growth_check(halfspace_cone_field)
    assert 0.8 <= lo <= hi <= 2.0**0.5 * 1.05


def test_growth_check_keeps_the_rows_of_the_interior_window():
    # r_min = 2^-10 with 12 rows per octave puts a row at r = 1/4 that
    # exp(t) rounds to 0.25000000000000017; growth_check reads the rows
    # interior_window keeps, this one included
    dom = DomainSpec2D("meridian", aperture=np.pi / 3, r_min=2.0**-10)
    t = np.linspace(np.log(dom.r_min), 0.0, 10 * 12 + 1)
    eta = np.linspace(0.0, 1.0, 9)
    edge = int(np.argmin(np.abs(np.exp(t) - 0.25)))
    assert np.exp(t[edge]) > 0.25
    d = np.full((t.size, eta.size), 0.04)
    u = d**-0.5                 # d^((n-2)/2) u = 1 at n = 3
    u[edge] *= 2.0
    fld = SolutionField(domain=dom, n=3, operator_label="hand-built",
                        r=np.exp(t), eta=eta, u=u, d=d, truncation=1e2)
    assert np.any(fld.interior_window()[edge])
    assert growth_check(fld) == (1.0, 2.0)


def test_localization_bracket_shrinks_with_r_max():
    # pushing the artificial outer cut away shrinks the disagreement it
    # induces on a fixed interior region
    widths = {}
    for r_max in (0.5, 1.0):
        dom = DomainSpec2D("meridian", aperture=0.7, r_min=2.0**-8, r_max=r_max)
        cfg = SolveConfig(schedule=(1e2,), nt_per_octave=16, n_eta=128,
                          eta_grading=2.0, bracket_tol=1.0)
        fld = solve(dom, euclidean_operator(3), 3, cfg)
        widths[r_max] = fld.bracket_width_over(r_hi=0.125)
    assert widths[1.0] < widths[0.5]
    assert widths[1.0] < 1e-3


def test_metric_cone_self_convergence():
    # Richardson pair: golden interior values from two mesh densities
    n, q = 6, 0.3
    op = conformal_operator(conformal_quadratic_metric(n, q))
    dom = DomainSpec2D("meridian", aperture=np.pi / 3, r_min=2.0**-6, r_max=1.0)
    vals = []
    for nt, ne in ((12, 96), (24, 192)):
        cfg = SolveConfig(schedule=(1e2,), nt_per_octave=nt, n_eta=ne,
                          eta_grading=2.0, bracket_tol=1.0)
        fld = solve(dom, op, n, cfg)
        j = np.searchsorted(fld.r, 0.25)
        vals.append(fld.u[j, 0])
    assert abs(vals[0] / vals[1] - 1.0) < 5e-3


def test_negative_curvature_lower_bound():
    # u >= (-S_g/(n(n-1)))^((n-2)/4) wherever S_g < 0
    n, q = 3, 0.3
    met = conformal_quadratic_metric(n, q)
    op = conformal_operator(met)
    fld = solve(BALL, op, n, SolveConfig(schedule=(1e2, 1e3), bracket_tol=1.0,
                                         n_eta=200, eta_grading=2.0))
    from blowlab.operators import scalar_curvature

    r = fld.r[1:-1]
    pts = np.zeros((r.size, n))
    pts[:, -1] = r
    s_g = scalar_curvature(met, pts)
    assert np.all(s_g < 0)
    bound = (-s_g / (n * (n - 1.0))) ** (0.25 * (n - 2.0))
    assert np.all(fld.u[1:-1, 0] >= bound - 1e-12)


def test_cross_section_wedge():
    # right-angle wedge times R: matches its matched arc reference (the
    # quarter arc has a fast decay index, so the window stays clean)
    dom = DomainSpec2D("cross-section", aperture=np.pi / 2, r_min=2.0**-8,
                       r_max=1.0)
    cfg = SolveConfig(schedule=(1e2,), nt_per_octave=16, n_eta=160,
                      eta_grading=2.0, bracket_tol=1.0)
    fld = solve(dom, euclidean_operator(3), 3, cfg)
    ratio = compare_to_cone(fld)
    assert ratio.reference == "matched-profile"
    assert np.max(ratio.values) < 1e-2
    core = (ratio.radii >= 2.0**-4) & (ratio.radii <= 2.0**-3)
    assert np.max(ratio.values[core]) < 2e-3


def test_ball_order_of_accuracy():
    errs = []
    for count in (200, 400):
        cfg = SolveConfig(schedule=(1e2, 1e3, 1e4), bracket_tol=1.0,
                          n_eta=count, eta_grading=2.0)
        fld = solve(BALL, euclidean_operator(3), 3, cfg)
        mask = fld.r <= 0.7
        r = fld.r[mask]
        exact = (2.0 / (1.0 - r**2)) ** 0.5
        errs.append(np.max(np.abs(fld.u[mask, 0] / exact - 1.0)))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.5


def test_axisymmetry_guard():
    n = 3

    def skew_coefficients(pts):
        a, b, c = euclidean_operator(n).coefficients(pts)
        a[:, 0, 0] += 0.3 * pts[:, 1] ** 2  # depends on a transverse axis
        return a, b, c

    op = OperatorSpec(n=n, evaluate=skew_coefficients, label="skew")
    dom = DomainSpec2D("meridian", aperture=0.7, r_min=2.0**-4, r_max=1.0)
    with pytest.raises(ConfigError, match="axisymmetric"):
        solve(dom, op, n, SolveConfig(schedule=(1e2,), bracket_tol=1.0))


def test_radial_symmetry_guard():
    n = 3

    def skew_coefficients(pts):
        a, b, c = euclidean_operator(n).coefficients(pts)
        a[:, 0, 0] += 0.3 * pts[:, 1] ** 2  # the radial part depends on direction
        return a, b, c

    op = OperatorSpec(n=n, evaluate=skew_coefficients, label="skew")
    with pytest.raises(ConfigError,
                       match=r"not radially symmetric \(disagreement \d"):
        solve(BALL, op, n, SolveConfig(schedule=(1e2,), bracket_tol=1.0))


@pytest.mark.parametrize("aperture", [0.5, 1.0, 2.0, 3.0])
def test_axisymmetry_tolerance_scales_with_the_coefficients(aperture):
    # (1 - 0.9|x|^2)^4 delta is radial; its zero-order coefficient reaches
    # 3.2e3 on the sampled points, and the azimuths disagree by up to
    # 4.7e-9 there, 1.5e-12 relative: an absolute 1e-9 rejected all four
    op = conformal_operator(conformal_quadratic_metric(3, -0.9))
    dom = DomainSpec2D("meridian", aperture=aperture, r_min=2.0**-6)
    solver.check_axisymmetry(op, dom, 3)


def test_axisymmetry_check_rejects_a_small_relative_anisotropy():
    # the same radial metric with its zero-order coefficient moved by at
    # most 1e-6 relative, as the point leaves the x1-x3 plane
    n = 3
    base = conformal_operator(conformal_quadratic_metric(n, -0.9))

    def skew_coefficients(pts):
        a, b, c = base.evaluate(pts)
        sin2 = pts[:, 1] ** 2 / np.sum(pts**2, axis=1)
        return a, b, c * (1.0 + 1e-6 * sin2)

    op = OperatorSpec(n=n, evaluate=skew_coefficients, label="skew")
    dom = DomainSpec2D("meridian", aperture=1.0, r_min=2.0**-6)
    with pytest.raises(ConfigError, match="axisymmetric"):
        solver.check_axisymmetry(op, dom, n)


def test_axisymmetry_check_evaluates_all_azimuths_at_once():
    op = conformal_operator(conformal_quadratic_metric(6, 0.3))
    evaluate = op.evaluate
    batches = []

    def counting(pts):
        batches.append(len(pts))
        return evaluate(pts)

    op.evaluate = counting
    dom = DomainSpec2D("meridian", aperture=0.7, r_min=2.0**-4, r_max=1.0)
    solver.check_axisymmetry(op, dom, 6)      # axisymmetric: no error
    assert batches == [3 * 24]


def test_radial_coefficients_leave_direction_alone():
    op = conformal_operator(conformal_quadratic_metric(3, 0.3))
    rnodes = np.linspace(0.1, 0.9, 5)
    direction = np.array([0.0, 0.0, 2.0])
    got = solver._radial_coefficients(op, rnodes, 3, direction=direction)
    assert np.array_equal(direction, [0.0, 0.0, 2.0])
    unit = solver._radial_coefficients(op, rnodes, 3)
    for x, y in zip(got, unit):
        assert np.array_equal(x, y)


def test_domain_validation():
    with pytest.raises(ConfigError):
        DomainSpec2D("meridian", aperture=4.0, r_max=1.0)
    with pytest.raises(ConfigError):
        DomainSpec2D("meridian", aperture=1.0, r_min=0.5, r_max=0.25)
    with pytest.raises(ConfigError):
        DomainSpec2D("warp", aperture=1.0, r_max=1.0)
    with pytest.raises(ConfigError):
        SolveConfig(schedule=(1e3, 1e2))
    with pytest.raises(ConfigError):
        SolveConfig(bracket=(2.0, 0.5))


@pytest.mark.parametrize("curve", [-2.0, 5.0])
def test_meridian_boundary_angle_outside_zero_pi_rejected(curve):
    # theta_b(1) = 1 + curve is -1 or 6 though the aperture lies in (0, pi)
    dom = DomainSpec2D("meridian", aperture=1.0, curve=(curve,))
    with pytest.raises(ConfigError, match=r"theta_b\(.+\) = .+ leaves \(0, pi\)"):
        solve(dom, euclidean_operator(3), 3, SolveConfig(nt_per_octave=4,
                                                         n_eta=32))


# values SolveConfig must reject, and values on the valid side of each bound
INVALID_SETTINGS = {
    "n_eta": st.integers(max_value=4) | st.floats(),
    "nt_per_octave": st.integers(max_value=0) | st.floats(),
    "newton_tol": st.floats(max_value=0.0) | st.just(float("nan")),
    "interior_tol": st.floats(max_value=0.0) | st.just(float("nan")),
    "bracket": st.tuples(st.floats(max_value=0.0), st.floats(allow_nan=False)),
    "bracket_tol": st.floats(max_value=0.0) | st.just(float("nan")),
    "eta_grading": (st.floats(max_value=1.0, exclude_max=True)
                    | st.sampled_from([float("nan"), float("inf")])),
    # empty, a level not finite or not > 0, or not strictly increasing
    "schedule": (st.just(())
                 | st.tuples(st.floats(max_value=0.0)
                             | st.sampled_from([float("nan"), float("inf")]))
                 | st.floats(min_value=1.0, max_value=1e6).map(
                     lambda M: (M, M))),
}
VALID_SETTINGS = {
    "n_eta": st.integers(min_value=5, max_value=10**6),
    "nt_per_octave": st.integers(min_value=1, max_value=10**6),
    "newton_tol": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "interior_tol": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "bracket": st.tuples(st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
                         st.floats(min_value=1.0, max_value=1e6, exclude_min=True)),
    "bracket_tol": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "eta_grading": st.floats(min_value=1.0, allow_infinity=False),
    "schedule": st.lists(st.floats(min_value=0.0, exclude_min=True,
                                   allow_infinity=False),
                         min_size=1, max_size=4, unique=True).map(
                             lambda levels: tuple(sorted(levels))),
}


def _one_setting(table):
    return st.sampled_from(sorted(table)).flatmap(
        lambda name: st.tuples(st.just(name), table[name]))


@settings(database=None, derandomize=True, deadline=None)
@given(_one_setting(INVALID_SETTINGS))
def test_solve_config_rejects_invalid_settings(setting):
    name, value = setting
    with pytest.raises(ConfigError):
        SolveConfig(**{name: value})


@settings(database=None, derandomize=True, deadline=None)
@given(_one_setting(VALID_SETTINGS))
def test_solve_config_accepts_valid_settings(setting):
    name, value = setting
    assert getattr(SolveConfig(**{name: value}), name) == value


def test_majorant_from_certificate(ball_field):
    # nodewise comparison against the certified graded-sum barrier
    from blowlab.analysis import StructureClass, certify_supersolution

    cert = certify_supersolution(StructureClass(3, 0.0), "graded-sum", n=3)
    assert cert.passed
    A, B = cert.constants["A"], cert.constants["B"]
    r = ball_field.r
    mask = r <= cert.constants["r0"]
    u_star = (2.0 / (1.0 - r[mask] ** 2)) ** 0.5
    beta = cert.constants["beta"]
    w = u_star + A * u_star**beta + B * u_star * r[mask] ** 2
    assert np.all(ball_field.u[mask, 0] <= w * (1.0 + 1e-10))


def test_interior_window_keeps_rows_on_its_edges():
    # r_min = 2^-12 with 24 rows per octave puts a row at r = 1/8 that
    # exp(t) rounds to 0.12500000000000008
    dom = DomainSpec2D("meridian", aperture=np.pi / 3, r_min=2.0**-12)
    t = np.linspace(np.log(dom.r_min), 0.0, 12 * 24 + 1)
    eta = np.linspace(0.0, 1.0, 9)
    u = np.ones((t.size, eta.size))
    u_high = 1.001 * u
    edge = int(np.argmin(np.abs(np.exp(t) - 0.125)))
    assert np.exp(t[edge]) > 0.125
    u_high[edge] = 1.5
    fld = SolutionField(domain=dom, n=3, operator_label="hand-built",
                        r=np.exp(t), eta=eta, u=u, d=u, truncation=1e2,
                        u_high=u_high)
    assert np.any(fld.interior_window(r_hi=0.125)[edge])
    assert fld.bracket_width_over(r_hi=0.125) == pytest.approx(0.5)
    inner = int(np.argmin(np.abs(np.exp(t) - 4.0 * dom.r_min)))
    assert np.any(fld.interior_window()[inner])


def test_bench_mesh_n6_solve_factorizes_rarely(monkeypatch):
    # the n = 6 mesh of the cone-pair benchmark climbs through 27 levels
    # for the low bracket and continues to the high one at the last level;
    # a fresh LU at every Newton step and a replay of all 27 levels for the
    # high bracket took 220 factorizations
    calls = []
    fill = []
    splu = solver.splu

    def counting_splu(J, **kwargs):
        calls.append(J.shape)
        lu = splu(J, **kwargs)
        fill.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(solver, "splu", counting_splu)
    dom = DomainSpec2D("meridian", aperture=np.pi / 3, r_min=2.0**-9)
    cfg = SolveConfig(schedule=(1e2,), nt_per_octave=4, n_eta=32,
                      bracket_tol=1.0)
    fld = solve(dom, euclidean_operator(6), 6, cfg)
    assert len(fld.m_history) == 27
    assert 0 < len(calls) <= 40
    # the minimum-degree ordering of A^T + A: 26,593 (COLAMD: 38,597)
    assert fill[0] <= 30_000


def test_search_cost_on_the_wedge(monkeypatch):
    # the search solves the cap bound's level from the supersolution start
    # and two levels below it, handing the kept factorization down, and
    # the high bracket starts from the one kept at the reported level:
    # 10 factorizations and 63 triangular solves (11 and 59 from the one
    # kept two levels below; 28 and 90 when every level was climbed)
    factorizations = []
    solves = []
    splu = solver.splu

    def counting_splu(J, **kwargs):
        lu = splu(J, **kwargs)
        factorizations.append(J.shape)

        class Counted:
            def solve(self, rhs):
                solves.append(rhs.shape)
                return lu.solve(rhs)

        return Counted()

    monkeypatch.setattr(solver, "splu", counting_splu)
    dom = DomainSpec2D("meridian", aperture=np.pi / 3)
    fld = solve(dom, euclidean_operator(6), 6,
                SolveConfig(nt_per_octave=4, n_eta=32))
    assert len(fld.m_history) == 20 and fld.stop_reason == "cap"
    assert len(factorizations) <= 10
    assert len(solves) <= 63


def test_high_bracket_starts_from_the_low_brackets_factor(monkeypatch):
    # the Jacobian does not read the cut data, so the factorization the
    # low bracket kept serves the high bracket from its first step
    kept, offered = [], []
    escalate, damped_newton = solver.escalate, solver.damped_newton

    def recording_escalate(*args, **kwargs):
        result = escalate(*args, **kwargs)
        kept.append(result.solve)
        return result

    def recording_newton(*args, solve=None, **kwargs):
        offered.append(solve)
        return damped_newton(*args, solve=solve, **kwargs)

    monkeypatch.setattr(solver, "escalate", recording_escalate)
    monkeypatch.setattr(solver, "damped_newton", recording_newton)
    solve(DomainSpec2D("meridian", aperture=np.pi / 3), euclidean_operator(6),
          6, SolveConfig(nt_per_octave=4, n_eta=32))
    assert kept[0] is not None
    assert offered == kept


def test_symmetric_wedge_gets_symmetric_cut_data():
    # the cross-section profile blows up at both ends; the spline is
    # guarded at both, so the eta = 0 and eta = 1 corners both take the
    # profile's truncation value
    dom = DomainSpec2D("cross-section", aperture=np.pi / 2)
    system = _WedgeSystem(dom, euclidean_operator(3), 3,
                          SolveConfig(nt_per_octave=4, n_eta=32))
    data = system.dirichlet(1e4).reshape(system.nt, system.ne)
    for row in (data[0], data[-1]):
        assert np.max(np.abs(row - row[::-1]) / row) <= 1e-13
    assert data[0, 0] == data[0, -1]


def _dirichlet_by_loops(system, M):
    """Node-by-node Dirichlet data, the reference for the vectorized one."""
    nt, ne = system.nt, system.ne
    idx = np.arange(nt * ne).reshape(nt, ne)
    vals = np.zeros(nt * ne)
    wall_w = M * system.r**system.m
    kind = system.kind
    for j in range(nt):
        for k in (0, ne - 1):
            if kind[j, k] == 2:
                vals[idx[j, k]] = wall_w[j]
    dom = system.domain
    profile = solve_profile(dom.section(), system.n,
                            nodes=system.eta * dom.aperture)
    for j in (0, nt - 1):
        theta_cut = system.eta * dom.theta_b(system.r[j])
        lo_guard = profile.theta[1 if dom.reduction == "cross-section" else 0]
        hi_guard = profile.theta[-2]
        gvals = np.empty(system.eta.size)
        inside = (theta_cut >= lo_guard) & (theta_cut <= hi_guard)
        gvals[inside] = profile._spline(theta_cut[inside])
        gvals[~inside] = profile.g[~inside]
        for k in range(ne):
            if kind[j, k] == 1:
                data = system.bracket_factor * gvals[k]
                vals[idx[j, k]] = min(data, wall_w[j])
    return vals


@pytest.mark.parametrize("domain", [
    DomainSpec2D("meridian", aperture=np.pi / 3, curve=(0.2,)),
    DomainSpec2D("cross-section", aperture=np.pi / 2),
])
def test_dirichlet_data_matches_node_loop(domain):
    cfg = SolveConfig(nt_per_octave=4, n_eta=32)
    system = _WedgeSystem(domain, euclidean_operator(3), 3, cfg)
    for factor in cfg.bracket:
        system.bracket_factor = factor
        # M = 1 clips cut data at the wall value, M = 1e4 does not
        for M in (1.0, 1e4):
            want = _dirichlet_by_loops(system, M)
            got = system.dirichlet(M)
            assert got.tobytes() == want.tobytes()


def _linear_by_loops(system):
    """Node-by-node stencil assembly, the reference for the offset-keyed one.

    Returns the row-scaled operator and its row scale.
    """
    nt, ne = system.nt, system.ne
    kind = system.kind
    At_tt, At_te, At_ee, Bt_t, Bt_e, Ct = system._coefficients()
    ht = system.t[1] - system.t[0]
    sub1, diag1, sup1 = nonuniform_d1(system.eta)
    sub2, diag2, sup2 = nonuniform_d2(system.eta)

    idx = np.arange(nt * ne).reshape(nt, ne)
    rows, cols, vals = [], [], []

    def add(rix, cix, v):
        rows.append(rix)
        cols.append(cix)
        vals.append(v)

    interior = np.argwhere(kind == 0)
    for j, k in interior:
        i0 = idx[j, k]
        # second derivative in t (uniform)
        ctt = At_tt[j, k] / ht**2
        add(i0, idx[j - 1, k], ctt)
        add(i0, idx[j + 1, k], ctt)
        cdiag = -2.0 * ctt
        # first derivative in t
        c1t = Bt_t[j, k] / (2.0 * ht)
        add(i0, idx[j + 1, k], c1t)
        add(i0, idx[j - 1, k], -c1t)
        # eta derivatives (nonuniform row k-1 of the stencil tables)
        s2, d2, p2 = sub2[k - 1], diag2[k - 1], sup2[k - 1]
        s1, d1, p1 = sub1[k - 1], diag1[k - 1], sup1[k - 1]
        cee = At_ee[j, k]
        ce = Bt_e[j, k]
        add(i0, idx[j, k - 1], cee * s2 + ce * s1)
        add(i0, idx[j, k + 1], cee * p2 + ce * p1)
        cdiag += cee * d2 + ce * d1
        # mixed derivative, centered
        cte = At_te[j, k] / (2.0 * ht * (system.eta[k + 1] - system.eta[k - 1]))
        add(i0, idx[j + 1, k + 1], cte)
        add(i0, idx[j - 1, k - 1], cte)
        add(i0, idx[j + 1, k - 1], -cte)
        add(i0, idx[j - 1, k + 1], -cte)
        cdiag += Ct[j, k]
        add(i0, i0, cdiag)

    pole = np.argwhere(kind == 3)
    for j, k in pole:
        i0 = idx[j, k]
        w0, w1, w2 = one_sided_d1(system.eta[0], system.eta[1], system.eta[2])
        add(i0, idx[j, 0], w0)
        add(i0, idx[j, 1], w1)
        add(i0, idx[j, 2], w2)

    fixed = np.argwhere((kind == 1) | (kind == 2))
    for j, k in fixed:
        add(idx[j, k], idx[j, k], 1.0)

    L = sp.csr_matrix(
        (np.asarray(vals, dtype=float), (np.asarray(rows), np.asarray(cols))),
        shape=(nt * ne, nt * ne),
    )
    L.sum_duplicates()

    scale = 1.0 / (1.0 + np.abs(L).max(axis=1).toarray().ravel())
    return sp.diags(scale) @ L, scale


def _kinds_by_assignment(nt, ne, reduction):
    """Node kinds as the cut, wall and pole rows were first assigned."""
    kind = np.zeros((nt, ne), dtype=np.int8)
    kind[0, :] = 1
    kind[-1, :] = 1
    kind[:, -1] = 2
    if reduction == "meridian":
        kind[1:-1, 0] = 3
    else:
        kind[:, 0] = 2
        kind[0, :] = 1
        kind[-1, :] = 1
    kind[0, -1] = 1
    kind[-1, -1] = 1
    return kind


def _stencil_cases(test):
    """The 12 stencil cases: n = 3, 6; straight, curved, cross-section;
    Euclidean and conformal-quadratic q = 0.3."""
    # applied innermost first, as stacked decorators would be
    for mark in (
        pytest.mark.parametrize("conformal", [False, True],
                                ids=["euclidean", "conformal-q03"]),
        pytest.mark.parametrize("domain", [
            DomainSpec2D("meridian", aperture=np.pi / 3),
            DomainSpec2D("meridian", aperture=np.pi / 3, curve=(0.2,)),
            DomainSpec2D("cross-section", aperture=np.pi / 2),
        ], ids=["straight", "curved", "cross-section"]),
        pytest.mark.parametrize("n", [3, 6]),
    ):
        test = mark(test)
    return test


def _stencil_system(n, domain, conformal):
    op = (conformal_operator(conformal_quadratic_metric(n, 0.3)) if conformal
          else euclidean_operator(n))
    return _WedgeSystem(domain, op, n, SolveConfig(nt_per_octave=4, n_eta=32))


@_stencil_cases
def test_linear_stencil_matches_node_loop(n, domain, conformal):
    system = _stencil_system(n, domain, conformal)
    assert np.array_equal(system.kind,
                          _kinds_by_assignment(system.nt, system.ne,
                                               domain.reduction))
    want, want_scale = _linear_by_loops(system)
    got = system.L.copy()
    for mat in (want, got):
        mat.sum_duplicates()
    for attr in ("indptr", "indices", "data"):
        assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()
    assert system.row_scale.tobytes() == want_scale.tobytes()


def _jacobian_by_diags(system, w):
    """L - diag(d) through a sparse difference, the reference for the
    in-place diagonal update."""
    dvals = np.where(
        system.interior_mask,
        system.row_scale * system.coef * system.p * np.abs(w) ** (system.p - 1.0),
        0.0,
    )
    return (system.L - sp.diags(dvals)).tocsc()


@_stencil_cases
def test_jacobian_matches_sparse_difference(n, domain, conformal):
    system = _stencil_system(n, domain, conformal)
    warm = system.warm_start(None, 1e2)
    converged, _, _ = damped_newton(system, warm, 1e2, 1e-10)
    data = system.dirichlet(1e2)
    for w in (warm, converged):
        want = _jacobian_by_diags(system, w)
        got = system.jacobian(w)
        assert got.format == "csc"
        for attr in ("indptr", "indices", "data"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()
        # the residual's premultiplied scale keeps its products in order
        wi = np.where(system.interior_mask, w, 0.0)
        f = system.L @ w - (system.row_scale * system.interior_mask
                            * system.coef * np.abs(wi) ** system.p)
        fixed = system.fixed
        f[fixed] = system.row_scale[fixed] * (w[fixed] - data[fixed])
        assert system.residual(w, data).tobytes() == f.tobytes()
    # the cached stencil is left as it was
    assert system.L_csc.data.tobytes() == system.L.tocsc().data.tobytes()


def test_meridian_solve_runs_one_profile_solve(monkeypatch):
    # the solve needs the vertex profile for its cut data only; the profile
    # matched to the final truncation is solved by compare_to_cone
    schedules = []

    def counting(*args, **kwargs):
        schedules.append(kwargs.get("schedule"))
        return solve_profile(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_profile", counting)
    dom = DomainSpec2D("meridian", aperture=0.7, r_min=2.0**-4)
    cfg = SolveConfig(schedule=(1e2,), nt_per_octave=4, n_eta=32,
                      bracket_tol=1.0)
    solve(dom, euclidean_operator(3), 3, cfg)
    assert schedules == [None]


def _alphas_two_branch(op, r, theta, psi, reduction, n):
    """The meridian and cross-section pushforwards as two separate bodies,
    the reference for the one-frame `_alphas`."""
    r = np.asarray(r, dtype=float).ravel()
    theta = np.asarray(theta, dtype=float).ravel()
    st, ct = np.sin(theta), np.cos(theta)
    if reduction == "meridian":
        e_sigma = np.zeros((r.size, n))
        e_sigma[:, 0] = np.cos(psi)
        e_sigma[:, 1] = np.sin(psi)
        e_z = np.zeros((r.size, n))
        e_z[:, -1] = 1.0
        pts = r[:, None] * (st[:, None] * e_sigma + ct[:, None] * e_z)
        a, b, c = op.coefficients(pts)
        am = a - np.eye(n)
        a11 = np.einsum("pi,pij,pj->p", e_sigma, am, e_sigma)
        ann = np.einsum("pi,pij,pj->p", e_z, am, e_z)
        a1n = np.einsum("pi,pij,pj->p", e_sigma, a, e_z)
        trans = np.einsum("pii->p", am) - a11 - ann
        bs = np.einsum("pi,pi->p", b, e_sigma)
        bz = np.einsum("pi,pi->p", b, e_z)
        with np.errstate(divide="ignore", invalid="ignore"):
            cot = np.where(np.abs(st) > 1e-300, ct / st, 0.0)
        alpha_tt = a11 * st**2 + ann * ct**2 + 2.0 * a1n * st * ct
        alpha_tth = 2.0 * (a11 - ann) * st * ct + 2.0 * a1n * (ct**2 - st**2)
        alpha_thth = a11 * ct**2 + ann * st**2 - 2.0 * a1n * st * ct
        alpha_t = ((a11 - ann) * (ct**2 - st**2) - 4.0 * a1n * st * ct
                   + trans + r * (bs * st + bz * ct))
        alpha_th = (-2.0 * (a11 - ann) * st * ct + 2.0 * a1n * (st**2 - ct**2)
                    + trans * cot + r * (bs * ct - bz * st))
        return alpha_tt, alpha_tth, alpha_thth, alpha_t, alpha_th, c
    # planar cross-section: x' = r (cos phi, sin phi), invariant transverse
    cph, sph = ct, st
    pts = np.zeros((r.size, n))
    pts[:, 0] = r * cph
    pts[:, 1] = r * sph
    a, b, c = op.coefficients(pts)
    a11 = a[:, 0, 0] - 1.0
    a22 = a[:, 1, 1] - 1.0
    a12 = a[:, 0, 1]
    b1 = b[:, 0]
    b2 = b[:, 1]
    alpha_tt = a22 * sph**2 + a11 * cph**2 + 2.0 * a12 * sph * cph
    alpha_tth = 2.0 * (a22 - a11) * sph * cph + 2.0 * a12 * (cph**2 - sph**2)
    alpha_thth = a22 * cph**2 + a11 * sph**2 - 2.0 * a12 * sph * cph
    alpha_t = ((a22 - a11) * (cph**2 - sph**2) - 4.0 * a12 * sph * cph
               + r * (b2 * sph + b1 * cph))
    alpha_th = (-2.0 * (a22 - a11) * sph * cph + 2.0 * a12 * (sph**2 - cph**2)
                + r * (b2 * cph - b1 * sph))
    return alpha_tt, alpha_tth, alpha_thth, alpha_t, alpha_th, c


@pytest.mark.parametrize("conformal", [False, True],
                         ids=["euclidean", "conformal-q03"])
@pytest.mark.parametrize("reduction, psi", [
    ("meridian", 0.0), ("meridian", 0.7), ("cross-section", 0.0),
])
@pytest.mark.parametrize("n", [3, 6])
def test_one_frame_alphas_match_two_branches(n, reduction, psi, conformal):
    op = (conformal_operator(conformal_quadratic_metric(n, 0.3)) if conformal
          else euclidean_operator(n))
    rng = np.random.default_rng(11)
    r = np.exp(rng.uniform(np.log(2.0**-8), 0.0, 300))
    # theta = 0 exercises the meridian's cot guard at the pole
    theta = np.concatenate([[0.0], rng.uniform(0.0, np.pi / 2, 299)])
    got = solver._alphas(op, r, theta, psi, reduction, n)
    want = _alphas_two_branch(op, r, theta, psi, reduction, n)
    for x, y in zip(got, want):
        # bit-identical, except that the cross-section's zero transverse
        # terms (+ 0.0) may turn an exact -0.0 into +0.0
        assert np.array_equal(x, y)
        assert np.all((x.view(np.uint64) == y.view(np.uint64)) | (y == 0.0))


@pytest.mark.parametrize("grading", [1.0, 1.5, 2.0, 3])
def test_node_maps_match_inline_formulas(grading):
    # reference: each node set's own inline power law
    count = 41
    s = np.linspace(0.0, 1.0, count)
    cfg = SolveConfig(schedule=(1e2,), nt_per_octave=2, n_eta=count,
                      eta_grading=grading, bracket_tol=1.0)
    op = euclidean_operator(3)
    eta = 1.0 - (1.0 - s) ** grading
    eta[0], eta[-1] = 0.0, 1.0
    system = _WedgeSystem(DomainSpec2D("meridian", aperture=np.pi / 3), op,
                          3, cfg)
    assert system.eta.tobytes() == eta.tobytes()
    eta = s**grading / (s**grading + (1.0 - s) ** grading)
    eta[0], eta[-1] = 0.0, 1.0
    system = _WedgeSystem(DomainSpec2D("cross-section", aperture=np.pi / 2),
                          op, 3, cfg)
    assert system.eta.tobytes() == eta.tobytes()

    R = 0.75
    ball = DomainSpec2D("ball", aperture=np.pi, r_max=R)
    fld = solve(ball, op, 3, cfg)
    s = np.linspace(0.0, 1.0, 2000)
    r = R * (1.0 - (1.0 - s) ** grading)
    r[0], r[-1] = 0.0, R
    assert fld.r.tobytes() == r.tobytes()
    # graded_nodes on a cap: clustered at the blow-up end only
    dom = DomainSpec2D("meridian", aperture=1.0).section()
    theta = 0.0 + (1.0 - 0.0) * (1.0 - (1.0 - s) ** float(grading))
    theta[0], theta[-1] = 0.0, 1.0
    assert graded_nodes(dom, 2000, grading).tobytes() == theta.tobytes()


def _theta_b_by_loops(domain, r):
    """theta_b and its first two derivatives, one loop each."""
    out0 = np.full_like(r, domain.aperture, dtype=float)
    out1 = np.zeros_like(r, dtype=float)
    out2 = np.zeros_like(r, dtype=float)
    for k, ck in enumerate(domain.curve):
        out0 = out0 + ck * r ** (k + 1)
        out1 = out1 + (k + 1) * ck * r**k
        if k >= 1:
            out2 = out2 + (k + 1) * k * ck * r ** (k - 1)
    return out0, out1, out2


@pytest.mark.parametrize("curve", [(), (0.2,), (0.2, -0.3, 0.05)])
def test_theta_b_orders_match_loops(curve):
    dom = DomainSpec2D("meridian", aperture=np.pi / 3, curve=curve)
    r = np.geomspace(2.0**-8, 1.0, 50)[:, None]
    for order, want in enumerate(_theta_b_by_loops(dom, r)):
        assert dom.theta_b(r, order).tobytes() == want.tobytes()


def _wall_distance_by_table(domain, r, theta):
    """Distance to the curved meridian wall from the (nodes, samples) table
    of squared distances that the running minimum replaced."""
    rs = np.geomspace(max(domain.r_min * 0.5, 1e-6), domain.r_max, 400)
    bt = domain.theta_b(rs)
    px, pz = r * np.sin(theta), r * np.cos(theta)
    d2 = ((px[..., None] - rs * np.sin(bt)) ** 2
          + (pz[..., None] - rs * np.cos(bt)) ** 2)
    return np.sqrt(np.min(d2, axis=-1))


@pytest.mark.parametrize("curve", [(0.2,), (0.2, -0.3, 0.05)])
def test_curved_wall_distance_matches_the_table(curve):
    # each squared distance is formed as in the table, and a minimum is
    # exact, so the field is the same to the bit
    dom = DomainSpec2D("meridian", aperture=np.pi / 3, curve=curve)
    system = _WedgeSystem(dom, euclidean_operator(3), 3,
                          SolveConfig(nt_per_octave=4, n_eta=32))
    want = _wall_distance_by_table(dom, system.rr, system.theta)
    assert system.d.tobytes() == want.tobytes()


def test_curved_wall_distance_forms_no_table(monkeypatch):
    # the default mesh (257 x 192 nodes): the table of 400 samples per node
    # peaked at 302 MB; the running minimum holds a few node arrays
    import tracemalloc

    peaks, inner = [], solver._wall_distance_field

    def measured(*args):
        tracemalloc.start()
        try:
            out = inner(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(solver, "_wall_distance_field", measured)
    dom = DomainSpec2D("meridian", aperture=np.pi / 3, curve=(0.2,))
    system = _WedgeSystem(dom, euclidean_operator(3), 3, SolveConfig())
    assert system.d.shape == (257, 192)
    assert len(peaks) == 1 and peaks[0] < 16 * 2**20


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("reduction, aperture", [
    ("meridian", np.pi / 3), ("meridian", 2.0),
    ("cross-section", np.pi / 2), ("cross-section", 4.0)])
def test_straight_wedge_takes_its_walls_from_the_section(reduction, aperture,
                                                         n):
    # the section's ends give the eta grading, the pole or wall column at
    # eta = 0 and one probe per blow-up end; its wall distance and profile
    # drift give the same floats as the wedge formulas written per reduction
    dom = DomainSpec2D(reduction, aperture=aperture, r_min=2.0**-6)
    system = _WedgeSystem(dom, euclidean_operator(n), n,
                          SolveConfig(nt_per_octave=4, n_eta=32))
    theta, meridian = system.theta, reduction == "meridian"
    gap = aperture - theta if meridian else np.minimum(theta, aperture - theta)
    d = system.rr * np.sin(np.minimum(gap, 0.5 * np.pi))
    assert system.d.tobytes() == d.tobytes()
    drift = ((n - 2.0) * guarded_cot(theta) if meridian
             else np.zeros_like(theta))
    assert (_profile_terms(system.section, n, theta)[0].tobytes()
            == drift.tobytes())
    s = np.linspace(0.0, 1.0, 32)
    eta = (s**2 / (s**2 + (1.0 - s) ** 2) if not meridian
           else 1.0 - (1.0 - s) ** 2)
    assert np.allclose(system.eta, eta, rtol=0, atol=1e-15)
    assert (system.kind[1:-1, 0] == (solver.POLE if meridian
                                     else solver.WALL)).all()
    assert system.probe_cols == ([-5] if meridian else [4, -5])
