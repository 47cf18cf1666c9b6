import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blowlab.errors import (BoundFailureError, ConfigError, DomainError,
                            NewtonError)
from blowlab.profiles import (
    BLOWUP,
    CIRCLE_ARC,
    POLAR_SPHERE,
    REGULAR_POLE,
    BandedProblem,
    GridSpec,
    SphericalDomain1D,
    check_rho_bounds,
    cone_solution,
    derivative_arrays,
    graded_nodes,
    power_law_nodes,
    profile_from_csv,
    profile_to_csv,
    solve_profile,
    _NotAKnotSpline,
)
from blowlab.spectral import first_eigenpair
from conftest import FINE, MEDIUM, band, cap, cap_complement, half_sphere

# Richardson extrapolation of g(0) on the pi/3 cap (node counts 800/1600/3200,
# grading 2.0); extrapolation spread 2.4e-7
CAP_PI3_N3_G0 = 1.2629685418


def exact_half_sphere(n, theta):
    return np.cos(theta) ** (-0.5 * (n - 2.0))


@pytest.mark.parametrize("n", [3, 6])
def test_half_sphere_closed_form(n, half_sphere_profiles):
    prof = half_sphere_profiles[n]
    mask = prof.theta <= np.pi / 2 - 0.1
    err = np.abs(prof.g[mask] / exact_half_sphere(n, prof.theta[mask]) - 1.0)
    assert np.max(err) <= 1e-3


def test_half_sphere_pole_value(half_sphere_profiles):
    # forced by u = x_n^(-1/2) restricted to the axis
    assert abs(half_sphere_profiles[3].g[0] - 1.0) < 5e-6


def test_half_plane_wedge_arc():
    # the opening-pi wedge is a half space; its arc factor is sin^(-1/2)
    arc = SphericalDomain1D("circle-arc", 0.0, np.pi)
    prof = solve_profile(arc, 3, grid=FINE)
    mask = (prof.theta > 0.1) & (prof.theta < np.pi - 0.1)
    err = np.abs(prof.g[mask] * np.sin(prof.theta[mask]) ** 0.5 - 1.0)
    assert np.max(err) <= 1e-3


def test_cap_pi3_golden_value(cap_pi3_n3_profile):
    assert abs(cap_pi3_n3_profile.g[0] - CAP_PI3_N3_G0) < 5e-6


def test_scaled_residual_norm(half_sphere_profiles):
    for prof in half_sphere_profiles.values():
        assert prof.scaled_residual_norm() <= 1e-6


def test_monotone_truncation():
    dom = cap(np.pi / 3)
    gs = []
    for M in (1e2, 1e3):
        prof = solve_profile(dom, 3, schedule=[M], grid=MEDIUM, max_levels=1)
        gs.append(prof.g)
    assert np.all(gs[0] <= gs[1] + 1e-10)


def test_domain_monotonicity():
    small = solve_profile(cap(np.pi / 3), 3, grid=MEDIUM)
    large = solve_profile(cap(np.pi / 2), 3, grid=MEDIUM)
    from scipy.interpolate import CubicSpline

    interp = CubicSpline(large.theta[:-1], large.g[:-1])
    inner = small.theta < np.pi / 3 - 0.05
    assert np.all(small.g[inner] >= interp(small.theta[inner]) - 1e-10)


def test_cone_solution_halfspace_axis(half_sphere_profiles):
    val = cone_solution(half_sphere_profiles[3], 4.0, 0.0)
    assert abs(val - 0.5) < 1e-5


@pytest.mark.parametrize("n", [3, 6])
def test_cone_solution_homogeneity(n, half_sphere_profiles):
    prof = half_sphere_profiles[n]
    v1 = cone_solution(prof, 0.3, 0.7)
    v2 = cone_solution(prof, 1.2, 0.7)
    assert abs(v2 / v1 - 2.0 ** (-(n - 2.0))) < 1e-12


def test_cone_solution_interpolation_consistency(cap_pi3_n3_profile):
    prof = cap_pi3_n3_profile
    # spline at nodes reproduces node values; between nodes it stays within
    # interpolation error of a fine-grid node evaluation
    j = np.searchsorted(prof.theta, np.pi / 6)
    at_node = cone_solution(prof, 1.0, prof.theta[j])
    assert abs(at_node - prof.g[j]) < 1e-12
    fine = solve_profile(prof.domain, 3, grid=GridSpec(6400, 2.0))
    v_coarse = cone_solution(prof, 1.0, np.pi / 6)
    v_fine = cone_solution(fine, 1.0, np.pi / 6)
    assert abs(v_coarse / v_fine - 1.0) < 1e-6


def test_cone_solution_guard_near_wall(cap_pi3_n3_profile):
    theta_bad = cap_pi3_n3_profile.theta[-1] - 1e-9
    with pytest.raises(DomainError):
        cone_solution(cap_pi3_n3_profile, 1.0, theta_bad)
    with pytest.raises(DomainError):
        cone_solution(cap_pi3_n3_profile, -1.0, 0.5)


def test_rho_bounds_half_sphere(half_sphere_profiles):
    # rho = cos(theta) = sin(d): the ratio approaches 1 at the wall
    c1, c2 = check_rho_bounds(half_sphere_profiles[3])
    assert c1 >= np.sin(0.2) / 0.2 - 1e-3
    assert c1 <= c2
    d = half_sphere_profiles[3].wall_distance()
    mask = (d > 0.01) & (d < 0.05)
    ratio = half_sphere_profiles[3].rho[mask] / d[mask]
    assert np.max(np.abs(ratio - 1.0)) < 5e-3


def test_rho_bounds_wedge_two_resolutions():
    dom = SphericalDomain1D("circle-arc", 0.0, np.pi / 2)
    vals = []
    for count in (1600, 3200):
        prof = solve_profile(dom, 3, grid=GridSpec(count, 2.0))
        vals.append(check_rho_bounds(prof))
    assert abs(vals[0][0] - vals[1][0]) < 1e-2
    for c1, c2 in vals:
        assert 0 < c1 <= c2 < 1e6


@pytest.mark.parametrize("schedule", [[], [float("nan")], [float("inf")],
                                      [0.0], [-100.0], [1e2, float("nan")]])
def test_solve_profile_rejects_bad_schedules(schedule):
    # empty, a level not finite or not > 0: rejected before any solve
    with pytest.raises(ConfigError, match="truncation schedule"):
        solve_profile(cap(1.0), 3, schedule=schedule, grid=MEDIUM)


def test_schedule_below_the_profile_is_a_newton_failure():
    # wall data of 1e-300 lie far below the n = 4 cap's profile: no level of
    # the ladder reaches the cap or settles, so the search raises instead of
    # reporting a field that no level resolves
    with pytest.raises(NewtonError, match="profile truncation search found "
                                          "no stop in 80 levels"):
        solve_profile(cap(1.0), 4, schedule=(1e-300,),
                      grid=GridSpec(200, 2.0))


def test_search_cost_on_a_profile(monkeypatch):
    # the n = 6 half-sphere of configs/cases.cfg stops at the cap after 39
    # ladder levels; the search visits few of them: 39 factorizations, one
    # per Newton step (107 banded solves when every level was climbed)
    calls = []
    factor = BandedProblem.factor

    def counting(self, g):
        calls.append(1)
        return factor(self, g)

    monkeypatch.setattr(BandedProblem, "factor", counting)
    prof = solve_profile(half_sphere(), 6, grid=GridSpec(3200, 2.5))
    assert len(prof.m_history) == 39 and prof.stop_reason == "cap"
    assert len(calls) <= 40


def _profile_problem(domain, n, theta):
    """The truncated problem `solve_profile` solves on `theta`."""
    drift = (n - 2.0) * (np.cos(theta[1:-1]) / np.sin(theta[1:-1]))
    return BandedProblem(theta, 1.0, drift, -0.25 * (n - 2.0) ** 2,
                         domain.bc_lo, domain.bc_hi, n,
                         domain.wall_distance(theta),
                         domain.theta_hi - domain.theta_lo, "profile")


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("domain", [cap(1.0), cap_complement(0.4),
                                    band(0.5, 1.4)], ids=lambda d: d.label)
def test_tridiagonal_solve_matches_the_dense_pentadiagonal_jacobian(domain, n):
    # a regular pole at the low end, at the high end and at neither: the
    # pole row's reach two nodes in is eliminated before the tridiagonal
    # LU, so the solve must still be that of the full Jacobian, here built
    # column by column by complex-step differentiation of the residual
    theta = graded_nodes(domain, 400, 2.0)
    problem = _profile_problem(domain, n, theta)
    M = 1e4
    data = problem.dirichlet(M)
    g = problem.warm_start(None, M)
    jac = np.empty((g.size, g.size))
    for j in range(g.size):
        dg = np.zeros(g.size, dtype=complex)
        dg[j] = 1e-30j
        jac[:, j] = problem.residual(g + dg, data).imag / 1e-30
    outside = np.triu(jac, 3) + np.tril(jac, -3)
    assert not np.any(outside)
    reach = np.triu(jac, 2) + np.tril(jac, -2)
    assert np.count_nonzero(reach) == (domain.bc_lo == REGULAR_POLE) + (
        domain.bc_hi == REGULAR_POLE)
    # the first Newton step of the level
    rhs = -problem.residual(g, data)
    step = problem.factor(g)(rhs)
    dense = np.linalg.solve(jac, rhs)
    assert np.max(np.abs(step - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_singular_or_nonfinite_jacobian_raises_newton_error():
    theta = graded_nodes(cap(1.0), 400, 2.0)
    problem = _profile_problem(cap(1.0), 3, theta)
    g = problem.warm_start(None, 1e4)
    with pytest.raises(NewtonError, match="not finite"):
        problem.factor(np.where(np.arange(g.size) == 7, np.inf, g))
    # a zero Dirichlet row: the LU meets a zero pivot
    problem.b[-1] = 0.0
    with pytest.raises(NewtonError, match="singular"):
        problem.factor(g)


# (truncation M, stop reason, lambda_1, g on nodes PINNED_NODES) of the
# MEDIUM-grid profiles, solved with SciPy's pentadiagonal `solve_banded`,
# a factorization of the same Jacobian independent of the tridiagonal LU
PINNED_NODES = (0, 1, 400, 800, 1200, 1598, 1599)
PINNED = {
    (cap(1.0), 3): (800.0, "cap", 23.72549252019962, [
        1.2950781662864108, 1.2950793608466076, 1.4653791026657854,
        2.05976265299918, 4.0296285719340545, 709.4196375800631, 800.0]),
    (cap(1.0), 6): (6710886400.0, "cap", 94.00627704890213, [
        3.1053796894752486, 3.105390677949135, 4.9959290300258425,
        18.795011735179003, 266.7280494115706, 6290855727.992891,
        6710886400.0]),
    (cap_complement(0.4), 3): (800.0, "cap", 1.8116838968489901, [
        800.0, 601.2912113916292, 2.3248620315011763, 1.1102513613924532,
        0.7474966201476619, 0.6450129254521314, 0.6450122057014261]),
    (cap_complement(0.4), 6): (838860800.0, "cap", 3.5897853161004596, [
        838860800.0, 787927313.3856579, 25.79678148876791,
        1.0109615034926014, 0.16212355998860928, 0.08096707491349676,
        0.08096664809107314]),
    (band(0.5, 1.4), 3): (800.0, "cap", 63.884413957421216, [
        800.0, 717.4132877490804, 3.2800954545672183, 1.7478128233772667,
        3.352854838485238, 717.4134285802049, 800.0]),
    (band(0.5, 1.4), 6): (6710886400.0, "cap", 126.19209366786528, [
        6710886400.0, 6331413980.313925, 108.95327895996668,
        6.776733139251957, 126.45597489723667, 6331421575.714247,
        6710886400.0]),
}


@pytest.mark.parametrize("case", list(PINNED),
                         ids=lambda c: f"{c[0].label}-n{c[1]}")
def test_profile_and_eigenvalue_are_pinned(case):
    # how the Jacobian is factored moves nothing beyond rounding: the
    # same level, and values within 1e-10 relative
    M, reason, lambda1, g = PINNED[case]
    prof = solve_profile(*case, grid=MEDIUM)
    assert (prof.truncation, prof.stop_reason) == (M, reason)
    assert prof.g[list(PINNED_NODES)] == pytest.approx(g, rel=1e-10, abs=0)
    assert first_eigenpair(prof).lambda1 == pytest.approx(lambda1, rel=1e-10,
                                                          abs=0)


def test_bad_configurations():
    with pytest.raises(ConfigError):
        SphericalDomain1D("polar-sphere", 0.5, 0.2)
    with pytest.raises(ConfigError):
        SphericalDomain1D("polar-sphere", 0.1, 1.0, bc_lo="regular-pole")
    with pytest.raises(ConfigError):
        SphericalDomain1D("circle-arc", 0.0, 1.0, bc_lo="regular-pole")
    with pytest.raises(ConfigError):
        SphericalDomain1D("klein-bottle", 0.0, 1.0)
    with pytest.raises(ConfigError):
        solve_profile(cap(1.0), 3, schedule=[1e3, 1e2], grid=MEDIUM)
    with pytest.raises(ConfigError):
        solve_profile(cap(1.0), 2, grid=MEDIUM)
    with pytest.raises(ConfigError):
        GridSpec(count=100)


@pytest.mark.parametrize("count, grading", [
    (199, 2.0), (800.0, 2.0), (200.5, 2.0), ("800", 2.0), (None, 2.0),
    (800, 0.5), (800, float("nan")), (800, float("inf")), (800, -float("inf")),
])
def test_grid_spec_rejects_invalid_settings(count, grading):
    with pytest.raises(ConfigError):
        GridSpec(count=count, grading=grading)


@pytest.mark.parametrize("count, grading", [
    (200, 1.0), (np.int64(800), 2.5), (10**6, 1e6),
])
def test_grid_spec_accepts_valid_settings(count, grading):
    grid = GridSpec(count=count, grading=grading)
    assert (grid.count, grid.grading) == (count, grading)


NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])
ENDPOINT = st.floats(min_value=-10.0, max_value=10.0)
UNKNOWN_TAG = st.text(max_size=12).filter(
    lambda tag: tag not in (POLAR_SPHERE, CIRCLE_ARC, BLOWUP, REGULAR_POLE))


@st.composite
def _invalid_interval(draw):
    """(geometry, theta_lo, theta_hi, bc_lo, bc_hi) that must be rejected."""
    geometry = draw(st.sampled_from([POLAR_SPHERE, CIRCLE_ARC]))
    lo, hi = sorted(draw(st.tuples(ENDPOINT, ENDPOINT)))
    bc_lo = bc_hi = BLOWUP
    flaw = draw(st.sampled_from(
        ["inverted", "equal", "lo", "hi", "geometry", "bc_lo", "bc_hi"]))
    if flaw == "inverted":
        assume(lo < hi)
        lo, hi = hi, lo
    elif flaw == "equal":
        hi = lo
    elif flaw == "lo":
        lo = draw(NON_FINITE)
    elif flaw == "hi":
        hi = draw(NON_FINITE)
    elif flaw == "geometry":
        geometry = draw(UNKNOWN_TAG)
    elif flaw == "bc_lo":
        bc_lo = draw(UNKNOWN_TAG)
    else:
        bc_hi = draw(UNKNOWN_TAG)
    return geometry, lo, hi, bc_lo, bc_hi


@st.composite
def _valid_interval(draw):
    geometry = draw(st.sampled_from([POLAR_SPHERE, CIRCLE_ARC]))
    if geometry == POLAR_SPHERE:
        lo, hi = sorted(draw(st.tuples(st.floats(0.0, np.pi),
                                       st.floats(0.0, np.pi))))
        assume(lo < hi)
        bcs = [(BLOWUP, BLOWUP)]
        if lo == 0.0:
            bcs.append((REGULAR_POLE, BLOWUP))
        if hi == np.pi:
            bcs.append((BLOWUP, REGULAR_POLE))
        bc_lo, bc_hi = draw(st.sampled_from(bcs))
    else:
        lo = draw(ENDPOINT)
        hi = lo + draw(st.floats(min_value=1e-3, max_value=6.0))
        bc_lo = bc_hi = BLOWUP
    return geometry, lo, hi, bc_lo, bc_hi


@settings(database=None, derandomize=True, deadline=None)
@given(_invalid_interval())
def test_spherical_domain_rejects_invalid_intervals(args):
    with pytest.raises(ConfigError):
        SphericalDomain1D(*args)


@settings(database=None, derandomize=True, deadline=None)
@given(_valid_interval())
def test_spherical_domain_accepts_valid_intervals(args):
    dom = SphericalDomain1D(*args)
    assert (dom.geometry, dom.theta_lo, dom.theta_hi, dom.bc_lo, dom.bc_hi) == args


def test_graded_nodes_cluster_toward_blowup():
    dom = cap(1.0)
    theta = graded_nodes(dom, 400, 2.0)
    gaps = np.diff(theta)
    assert gaps[-1] < gaps[0] / 50
    dom2 = band(0.5, 2.0)
    theta2 = graded_nodes(dom2, 400, 2.0)
    gaps2 = np.diff(theta2)
    assert gaps2[0] < gaps2[200] / 50 and gaps2[-1] < gaps2[200] / 50


def test_serialization_roundtrip(tmp_path, cap_pi3_n3_profile):
    path = tmp_path / "profile.csv"
    profile_to_csv(cap_pi3_n3_profile, path)
    back = profile_from_csv(path)
    assert back.n == cap_pi3_n3_profile.n
    assert np.allclose(back.g, cap_pi3_n3_profile.g, rtol=0, atol=0)
    assert back.domain.geometry == "polar-sphere"


def test_derivative_arrays_exact_on_graded_grid():
    # exact for quadratics on interior nodes and for linear functions at
    # the one-sided ends, on a grid clustered toward both ends
    x = power_law_nodes(0.0, 1.0, 41, 2.0, True, True)
    d1, d2 = derivative_arrays(x, 3.0 + 2.0 * x - 5.0 * x**2)
    assert np.allclose(d1[1:-1], 2.0 - 10.0 * x[1:-1], rtol=0, atol=1e-9)
    assert np.allclose(d2[1:-1], -10.0, rtol=0, atol=1e-6)
    d1, d2 = derivative_arrays(x, 1.5 - 4.0 * x)
    assert np.allclose(d1[[0, -1]], -4.0, rtol=0, atol=1e-9)
    assert np.allclose(d2[[0, -1]], 0.0, rtol=0, atol=1e-6)
    assert d2[0] == d2[1] and d2[-1] == d2[-2]


def test_derivative_arrays_along_a_moved_axis():
    # axis 1 of a 3-D field, moved to the front; every column is the 1-D
    # result bit for bit
    x = power_law_nodes(0.0, 1.0, 41, 2.0, True, False)
    y = np.linspace(1.0, 2.0, 5)[:, None, None]
    z = np.linspace(-1.0, 1.0, 7)[None, None, :]
    xx = x[None, :, None]
    field3 = y * (1.0 + xx - 2.0 * xx**2) + z
    d1, d2 = derivative_arrays(x, np.moveaxis(field3, 1, 0))
    d1, d2 = np.moveaxis(d1, 0, 1), np.moveaxis(d2, 0, 1)
    exact1 = np.broadcast_to(y * (1.0 - 4.0 * xx), field3.shape)
    exact2 = np.broadcast_to(-4.0 * y, field3.shape)
    assert np.allclose(d1[:, 1:-1], exact1[:, 1:-1], rtol=0, atol=1e-8)
    assert np.allclose(d2[:, 1:-1], exact2[:, 1:-1], rtol=0, atol=1e-5)
    for i in range(5):
        for k in range(7):
            col1, col2 = derivative_arrays(x, field3[i, :, k])
            assert np.array_equal(col1, d1[i, :, k])
            assert np.array_equal(col2, d2[i, :, k])


def test_rho_bound_failure_detection():
    prof = solve_profile(cap(1.0), 3, grid=MEDIUM)
    prof.rho = prof.rho * 1e9  # corrupt the weight
    with pytest.raises(BoundFailureError):
        check_rho_bounds(prof)


SPLINE_PROFILES = {
    "cap-pi3-n3": (cap(np.pi / 3), 3),
    "cap-pi3-n4": (cap(np.pi / 3), 4),
    "cap-pi3-n6": (cap(np.pi / 3), 6),
    "arc-pi2-n3": (SphericalDomain1D("circle-arc", 0.0, np.pi / 2), 3),
}


@pytest.mark.parametrize("label", sorted(SPLINE_PROFILES))
def test_spline_is_scipy_cubic_spline_float_for_float(label):
    # the profile spline is SciPy's not-a-knot CubicSpline, bit for bit, on
    # the nodes it is fitted on, between them and just outside both ends
    from scipy.interpolate import CubicSpline

    domain, n = SPLINE_PROFILES[label]
    prof = solve_profile(domain, n, grid=GridSpec(400, 2.0))
    mask = prof.interior_mask()
    x = prof.theta[mask]
    ref = CubicSpline(x, prof.g[mask])
    outside = 1e-3 * (x[-1] - x[0])
    points = np.concatenate([
        x,
        0.5 * (x[:-1] + x[1:]),
        np.random.default_rng(3).uniform(x[0], x[-1], 2000),
        [np.nextafter(x[0], -np.inf), x[0] - outside,
         np.nextafter(x[-1], np.inf), x[-1] + outside],
    ])
    assert np.array_equal(prof._spline(points), ref(points))
    for v in (x[0], x[len(x) // 2], x[-1], 0.5 * (x[0] + x[1]),
              x[0] - outside, x[-1] + outside):
        value = prof._spline(float(v))
        assert np.ndim(value) == 0
        assert value == ref(float(v))


def test_spline_needs_four_increasing_nodes():
    from scipy.interpolate import CubicSpline

    x, y = [0.0, 0.5, 1.5, 2.0], [1.0, 2.0, 0.5, 3.0]
    v = np.linspace(-0.5, 2.5, 61)
    assert np.array_equal(_NotAKnotSpline(x, y)(v), CubicSpline(x, y)(v))
    with pytest.raises(DomainError):
        _NotAKnotSpline([0.0, 1.0, 2.0], [1.0, 2.0, 0.5])
    for x in ([0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0]):
        with pytest.raises(DomainError):
            _NotAKnotSpline(x, [1.0, 2.0, 0.5, 3.0])
