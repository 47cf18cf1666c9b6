import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowlab.errors import ConfigError, DomainError
from blowlab.operators import (
    OperatorSpec,
    conformal_operator,
    conformal_quadratic_metric,
    euclidean_operator,
)
from blowlab import solver
from blowlab.solver import (
    DomainSpec2D,
    SolutionField,
    SolveConfig,
    _WedgeSystem,
    exact_ball,
    exact_halfspace,
    growth_check,
    monotone_check,
    solve,
    sum_supersolution_defect,
)

BALL = DomainSpec2D("ball", aperture=np.pi, r_max=1.0, label="unit-ball")
BALL_CFG = SolveConfig(schedule=(1e2, 1e3, 1e4), bracket_tol=1.0,
                       keep_level_fields=True, n_eta=200, eta_grading=2.0)


@pytest.fixture(scope="module")
def ball_field():
    return solve(BALL, euclidean_operator(3), 3, BALL_CFG)


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
    r = ball_field.t
    u = ball_field.u[:, 0]
    exact = (2.0 / (1.0 - r**2)) ** 0.5
    mask = r <= 0.7
    assert np.max(np.abs(u[mask] / exact[mask] - 1.0)) <= 1e-3


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


def test_monotone_schedule(ball_field):
    rep = monotone_check(ball_field.level_fields)
    assert rep["monotone"]
    inc = rep["increments"]
    assert all(b < 0.5 * a for a, b in zip(inc, inc[1:]))


def test_monotone_identical_levels(ball_field):
    M, u = ball_field.level_fields[-1]
    rep = monotone_check([(M, u), (2 * M, u.copy())])
    assert rep["monotone"] and rep["increments"][0] == 0.0


def test_monotone_bad_order(ball_field):
    with pytest.raises(ConfigError):
        monotone_check(list(reversed(ball_field.level_fields)))


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

    r = fld.t[1:-1]
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
    ref = np.exp(fld.t)[:, None] ** -0.5 * fld.reference[None, :]
    win = fld.interior_window()
    ratio = np.abs(fld.u / ref - 1.0)
    assert np.max(ratio[win]) < 1e-2
    r = fld.radii()
    core = win & (r >= 2.0**-4) & (r <= 2.0**-3)
    assert np.max(ratio[core]) < 2e-3


def test_ball_order_of_accuracy():
    errs = []
    for count in (200, 400):
        cfg = SolveConfig(schedule=(1e2, 1e3, 1e4), bracket_tol=1.0,
                          n_eta=count, eta_grading=2.0)
        fld = solve(BALL, euclidean_operator(3), 3, cfg)
        r = fld.t
        exact = (2.0 / (1.0 - r**2)) ** 0.5
        mask = r <= 0.7
        errs.append(np.max(np.abs(fld.u[mask, 0] / exact[mask] - 1.0)))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.5


def test_axisymmetry_guard():
    n = 3

    def skew_a(pts):
        out = euclidean_operator(n).a(pts)
        out[:, 0, 0] += 0.3 * pts[:, 1] ** 2  # depends on a transverse axis
        return out

    op = OperatorSpec(n=n, a=skew_a, b=lambda p: np.zeros((p.shape[0], n)),
                      c=lambda p: np.zeros(p.shape[0]), label="skew")
    dom = DomainSpec2D("meridian", aperture=0.7, r_min=2.0**-4, r_max=1.0)
    with pytest.raises(ConfigError, match="axisymmetric"):
        solve(dom, op, n, SolveConfig(schedule=(1e2,), bracket_tol=1.0))


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


# values SolveConfig must reject, and values on the valid side of each bound
INVALID_SETTINGS = {
    "m_growth": st.floats(max_value=1.0) | st.just(float("nan")),
    "n_eta": st.integers(max_value=4),
    "nt_per_octave": st.integers(max_value=0),
    "newton_tol": st.floats(max_value=0.0) | st.just(float("nan")),
    "interior_tol": st.floats(max_value=0.0) | st.just(float("nan")),
    "max_levels": st.integers(max_value=0),
    "bracket": st.tuples(st.floats(max_value=0.0), st.floats(allow_nan=False)),
}
VALID_SETTINGS = {
    "m_growth": st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
    "n_eta": st.integers(min_value=5, max_value=10**6),
    "nt_per_octave": st.integers(min_value=1, max_value=10**6),
    "newton_tol": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "interior_tol": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "max_levels": st.integers(min_value=1, max_value=10**6),
    "bracket": st.tuples(st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
                         st.floats(min_value=1.0, max_value=1e6, exclude_min=True)),
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
    r = ball_field.t
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
    fld = SolutionField(domain=dom, n=3, operator_label="hand-built", t=t,
                        eta=eta, u=u, d=u, truncation=1e2,
                        newton_residual=0.0, u_high=u_high)
    assert np.any(fld.interior_window(r_hi=0.125)[edge])
    assert fld.bracket_width_over(r_hi=0.125) == pytest.approx(0.5)
    inner = int(np.argmin(np.abs(np.exp(t) - 4.0 * dom.r_min)))
    assert np.any(fld.interior_window()[inner])


def test_bench_mesh_n6_solve_factorizes_rarely(monkeypatch):
    # the n = 6 mesh of the cone-pair benchmark climbs through 27 levels per
    # bracket; a fresh LU at every Newton step took 220 factorizations
    calls = []
    splu = solver.splu

    def counting_splu(J):
        calls.append(J.shape)
        return splu(J)

    monkeypatch.setattr(solver, "splu", counting_splu)
    dom = DomainSpec2D("meridian", aperture=np.pi / 3, r_min=2.0**-9)
    cfg = SolveConfig(schedule=(1e2,), nt_per_octave=4, n_eta=32,
                      bracket_tol=1.0)
    fld = solve(dom, euclidean_operator(6), 6, cfg)
    assert len(fld.m_history) == 27
    assert 0 < len(calls) <= 70


def _dirichlet_by_loops(system, M):
    """Node-by-node Dirichlet data, the reference for the vectorized one."""
    nt, ne = system.nt, system.ne
    idx = np.arange(nt * ne).reshape(nt, ne)
    vals = np.zeros(nt * ne)
    wall_w = M * np.exp(system.m * system.t)
    kind = system.kind
    for j in range(nt):
        for k in (0, ne - 1):
            if kind[j, k] == 2:
                vals[idx[j, k]] = wall_w[j]
    spline = system.reference_profile._spline
    for j in (0, nt - 1):
        theta_cut = system.eta * system.domain.theta_b(system.r[j])
        guard = system.reference_profile.theta[-2]
        gvals = np.empty(system.eta.size)
        inside = theta_cut <= guard
        gvals[inside] = spline(theta_cut[inside])
        gvals[~inside] = system.reference[~inside]
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
