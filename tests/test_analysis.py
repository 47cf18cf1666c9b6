import numpy as np
import pytest

from blowlab.analysis import (
    BarrierCertificate,
    RatioField,
    _search,
    _trial,
    StructureClass,
    certify_supersolution,
    compare_to_cone,
    fit_rate,
    verify_theorem,
)
from blowlab.errors import ConfigError, DomainError
from blowlab.operators import euclidean_operator
from blowlab.profiles import solve_profile
from blowlab.solver import DomainSpec2D, SolveConfig, solve
from blowlab.spectral import first_eigenpair


@pytest.fixture(scope="module")
def ball_field():
    dom = DomainSpec2D("ball", aperture=np.pi, r_max=1.0)
    cfg = SolveConfig(schedule=(1e2, 1e3, 1e4), bracket_tol=1.0, n_eta=200,
                      eta_grading=2.0)
    return solve(dom, euclidean_operator(3), 3, cfg)


@pytest.mark.parametrize("c_l", [0.0, 0.5, 2.0])
def test_double_ball_certificate(c_l):
    cert = certify_supersolution(StructureClass(3, c_l), "double-ball", n=3)
    assert cert.passed and cert.margin > 0
    assert cert.constants["R_star"] > 0


def test_double_ball_certificate_revalidates_denser():
    cert = certify_supersolution(StructureClass(3, 2.0), "double-ball", n=3)
    dense = certify_supersolution(StructureClass(3, 2.0), "double-ball", n=3,
                                  radii=[cert.constants["R_star"]],
                                  samples=1024)
    assert dense.passed
    assert dense.margin >= 0.5 * cert.margin


@pytest.mark.parametrize("n", [3, 6])
def test_graded_sum_certificate(n):
    cert = certify_supersolution(StructureClass(n, 1.0), "graded-sum", n=n)
    assert cert.passed
    assert cert.constants["beta"] == (0.0 if n < 6 else (n - 6.0) / (n - 2.0))


def test_cone_case1_certificate(half_sphere_eigen):
    eig = half_sphere_eigen[3]
    cert = certify_supersolution(euclidean_operator(3), "cone-quadratic",
                                 eigen=eig)
    assert cert.passed and cert.margin > 0
    # re-validate at double sample density without losing more than half
    dense = certify_supersolution(
        euclidean_operator(3), "cone-quadratic", eigen=eig, samples=96,
        a0_grid=[cert.constants["A0"]],
        k_grid=[cert.constants["A1"] / cert.constants["A0"]],
        r_grid=[cert.constants["r0"]],
    )
    assert dense.passed
    assert dense.margin >= 0.5 * cert.margin


def test_failed_search_returns_certificate(half_sphere_eigen):
    # an absurd structure constant defeats the barrier; the search reports
    # its best margin instead of raising
    eig = half_sphere_eigen[3]
    cert = certify_supersolution(StructureClass(3, 1e9), "cone-quadratic",
                                 eigen=eig,
                                 a0_grid=[1.0], k_grid=[1.0], r_grid=[0.1])
    assert not cert.passed
    assert cert.margin <= 0


def _rows_trials(specs, asked):
    """trials() over fixed nodewise margins, one block per row.

    Each spec is (margin, w_bad_rows): the trial's margin array, and the
    rows where its barrier w is not positive.  `asked` records each
    (trial, rows) a margin is asked for, and each trial as it is yielded.
    """
    def trials():
        for k, (values, w_bad) in enumerate(specs):
            def margin(rows, k=k, values=values, w_bad=w_bad):
                asked.append((k, rows))
                if any(i in w_bad for i in range(len(values))[rows]):
                    return None
                return values[rows]
            asked.append(k)
            yield f"trial-{k}", "B_1", {"k": k}, margin

    blocks = [slice(i, i + 1) for i in range(len(specs[0][0]))]
    return trials, blocks


def _margins(*rows):
    return np.array(rows, dtype=float)


WHOLE = slice(None)


def test_search_returns_first_pass_else_best_margin():
    def spec(margin):
        return _margins([margin, 1.0], [2.0, 3.0]), ()

    asked = []
    passing = [spec(-3.0), spec(2.0), spec(5.0)]
    # the first passing trial in search order, not the best one, and the
    # search stops there
    cert = _search(*_rows_trials(passing, asked))
    assert cert.constants == {"k": 1} and cert.passed
    assert [a for a in asked if isinstance(a, int)] == [0, 1]
    # none passes: the best margin, the first of equal ones
    failing = [spec(-3.0), spec(-1.0), spec(-1.0), spec(-2.0)]
    best = _search(*_rows_trials(failing, []))
    assert best.constants == {"k": 1} and best.margin == -1.0
    assert not best.passed
    assert _search(lambda: iter(())) is None


def test_search_without_a_pass_returns_the_exhaustive_best():
    # trial 0 fails in row 0 but is best over the whole grid; trial 1 is
    # positive in row 0 and fails worse in row 2
    specs = [(_margins([-1.0, 5.0], [2.0, 2.0], [3.0, 3.0]), ()),
             (_margins([4.0, 4.0], [4.0, 4.0], [-9.0, 1.0]), ()),
             (_margins([-2.0, 1.0], [-0.5, 1.0], [1.0, 1.0]), ())]
    asked = []
    cert = _search(*_rows_trials(specs, asked))
    assert cert == BarrierCertificate("trial-0", "B_1", -1.0, 6, False,
                                      {"k": 0})
    # the row-wise pass, then every full margin
    assert asked == [0, (0, slice(0, 1)),
                     1, (1, slice(0, 1)), (1, slice(1, 2)), (1, slice(2, 3)),
                     2, (2, slice(0, 1)),
                     0, (0, WHOLE), 1, (1, WHOLE), 2, (2, WHOLE)]


def test_search_rejects_a_trial_at_its_first_nonpositive_row():
    # trial 0 is non-positive only at one node of its last row, trial 1
    # only at an exact zero in its first row; trial 2 passes
    specs = [(_margins([1.0, 2.0], [3.0, 4.0], [5.0, -1e-300]), ()),
             (_margins([0.0, 2.0], [3.0, 4.0], [5.0, 6.0]), ()),
             (_margins([1.0, 2.0], [3.0, 4.0], [5.0, 0.5]), ())]
    asked = []
    cert = _search(*_rows_trials(specs, asked))
    assert cert == BarrierCertificate("trial-2", "B_1", 0.5, 6, True, {"k": 2})
    # no full margin for a rejected trial, and a zero row ends its trial
    assert asked == [0, (0, slice(0, 1)), (0, slice(1, 2)), (0, slice(2, 3)),
                     1, (1, slice(0, 1)),
                     2, (2, slice(0, 1)), (2, slice(1, 2)), (2, slice(2, 3)),
                     (2, WHOLE)]


def test_search_skips_a_trial_whose_barrier_fails_in_a_later_row():
    # trial 0 has the best margin everywhere, but its w is not positive in
    # row 2: it is never a certificate, in the row-wise pass or the full one
    w_bad = (_margins([9.0, 9.0], [9.0, 9.0], [9.0, 9.0]), {2})
    asked = []
    cert = _search(*_rows_trials([w_bad, (_margins([1.0], [2.0], [3.0]), ())],
                                 asked))
    assert cert.constants == {"k": 1} and cert.passed
    assert (0, WHOLE) not in asked
    failing = (_margins([-1.0, 1.0], [1.0, 1.0], [1.0, 1.0]), ())
    cert = _search(*_rows_trials([w_bad, failing], []))
    assert cert == BarrierCertificate("trial-1", "B_1", -1.0, 6, False,
                                      {"k": 1})
    assert _search(*_rows_trials([w_bad], [])) is None


def test_search_never_passes_a_nan_margin():
    nan_rows = [(_margins([1.0, 1.0], [np.nan, 1.0]), ()),
                (_margins([np.nan, 1.0], [1.0, 1.0]), ())]
    for specs in (nan_rows, nan_rows[::-1]):
        asked = []
        cert = _search(*_rows_trials(specs, asked))
        assert not cert.passed and np.isnan(cert.margin)
        # no trial got a full margin before the exhaustive pass
        assert asked.index((0, WHOLE)) > asked.index((1, slice(0, 1)))
    # a NaN block ends its trial, and the next trial can still pass
    asked = []
    cert = _search(*_rows_trials(
        [nan_rows[0], (_margins([1.0, 1.0], [2.0, 2.0]), ())], asked))
    assert cert.constants == {"k": 1} and cert.passed
    assert (0, WHOLE) not in asked


def _exhaustive_search(trials, blocks=None):
    """The search as one full margin per trial, in search order."""
    best = None
    for label, region, constants, margin in trials():
        full = margin(slice(None))
        if full is None:
            continue
        cert = _trial(label, region, full, constants)
        if cert.passed:
            return cert
        if best is None or cert.margin > best.margin:
            best = cert
    return best


def _same_as_exhaustive(monkeypatch, *args, **kw):
    from blowlab import analysis

    cert = certify_supersolution(*args, **kw)
    with monkeypatch.context() as m:
        m.setattr(analysis, "_search", _exhaustive_search)
        full = certify_supersolution(*args, **kw)
    assert cert == full
    return cert


@pytest.mark.parametrize("c_l", [0.25, 1.0, 2.0])
def test_double_ball_search_is_the_exhaustive_one(monkeypatch, c_l):
    _same_as_exhaustive(monkeypatch, StructureClass(3, c_l), "double-ball",
                        n=3)


@pytest.mark.parametrize("n", [3, 6])
def test_graded_sum_search_is_the_exhaustive_one(monkeypatch, n):
    _same_as_exhaustive(monkeypatch, StructureClass(n, 1.0), "graded-sum",
                        n=n)


@pytest.mark.parametrize("c_l", [0.0, 2.0])
@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("case", ["quadratic", "log", "slow"])
def test_cone_search_is_the_exhaustive_one(half_sphere_eigen, monkeypatch,
                                           case, n, c_l):
    cert = _same_as_exhaustive(monkeypatch, StructureClass(n, c_l),
                               f"cone-{case}", eigen=half_sphere_eigen[n])
    assert cert.passed


@pytest.mark.parametrize("c_l", [0.0, 2.0])
def test_t_composed_search_is_the_exhaustive_one(half_sphere_eigen,
                                                 monkeypatch, c_l):
    from blowlab.geometry import build_T, sphere_surface

    tmap = build_T([sphere_surface(3, 1.0)])
    cert = _same_as_exhaustive(monkeypatch, StructureClass(3, c_l),
                               "t-composed", eigen=half_sphere_eigen[3],
                               tmap=tmap)
    assert cert.passed


def test_failed_cone_search_is_the_exhaustive_one(half_sphere_eigen,
                                                  monkeypatch):
    cert = _same_as_exhaustive(
        monkeypatch, StructureClass(3, 1e9), "cone-quadratic",
        eigen=half_sphere_eigen[3], a0_grid=[1.0, 4.0], k_grid=[1.0, 2.0],
        r_grid=[0.1, 0.05])
    assert not cert.passed


def test_t_composed_certificate(half_sphere_eigen):
    from blowlab.geometry import build_T, sphere_surface

    tmap = build_T([sphere_surface(3, 1.0)])
    cert = certify_supersolution(euclidean_operator(3), "t-composed",
                                 eigen=half_sphere_eigen[3], tmap=tmap)
    assert cert.passed
    assert cert.constants["C_T"] > 0


def test_unknown_candidate(half_sphere_eigen):
    with pytest.raises(ConfigError):
        certify_supersolution(euclidean_operator(3), "magic", n=3)
    # a "cone-" prefix with an unknown decay case
    with pytest.raises(ConfigError, match="cone-foo"):
        certify_supersolution(euclidean_operator(3), "cone-foo",
                              eigen=half_sphere_eigen[3])


def test_ball_ratio_matches_analytic(ball_field):
    # |d^(1/2) u - 1| with u = u_R: analytic value 1 - (d(2-d))^(1/2)/2^(1/2)...
    # computed directly from the closed form
    ratio = compare_to_cone(ball_field)
    assert ratio.reference == "halfspace-distance"
    d = ratio.radii
    exact_u = (2.0 / (1.0 - (1.0 - d) ** 2)) ** 0.5
    expected = np.abs(d**0.5 * exact_u - 1.0)
    err = np.abs(ratio.values - expected)
    assert np.max(err[d > 1e-3]) < 2e-3


def test_fit_rate_power_law():
    r = np.geomspace(2.0**-7, 2.0**-1, 4000)
    fit = fit_rate(RatioField(3.0 * r**2, r, "x"), 2.0**-7, 2.0**-2)
    assert abs(fit.alpha_hat - 2.0) < 1e-3
    assert fit.model == "power"
    assert fit.r_squared > 0.9999


def test_fit_rate_log_model_preferred():
    r = np.geomspace(2.0**-7, 2.0**-1, 4000)
    vals = 0.5 * r**2 * np.abs(np.log(r))
    fit = fit_rate(RatioField(vals, r, "x"), 2.0**-7, 2.0**-2,
                   compare_log_model=True)
    assert fit.model == "power-log"
    assert fit.log_model_residual < fit.residual


def test_fit_rate_window_errors():
    r = np.geomspace(2.0**-3, 2.0**-1, 50)
    with pytest.raises(ConfigError):
        fit_rate(RatioField(r**2, r, "x"), 2.0**-3, 2.0**-2)
    r2 = np.geomspace(2.0**-7, 2.0**-5, 50)  # upper annuli empty
    with pytest.raises(DomainError):
        fit_rate(RatioField(r2**2, r2, "x"), 2.0**-7, 2.0**-2)


@pytest.mark.parametrize("r_lo, r_hi", [
    (0.0, 0.25), (-0.01, 0.25), (np.nan, 0.25), (0.01, np.nan),
    (0.01, np.inf), (0.25, 0.25), (0.3, 0.25),
])
def test_fit_rate_rejects_a_window_outside_zero_inf(r_lo, r_hi):
    # r_lo = 0 used to double the edge 0 forever and grow the edge list
    # until memory ran out
    r = np.geomspace(2.0**-7, 2.0**-1, 400)
    with pytest.raises(ConfigError, match="0 < fit_lo < fit_hi < inf"):
        fit_rate(RatioField(r**2, r, "x"), r_lo, r_hi)


def test_fit_window_stability(ball_field):
    ratio = compare_to_cone(ball_field)
    full = fit_rate(ratio, 2.0**-9, 2.0**-2)
    dropped = fit_rate(ratio, 2.0**-9, 2.0**-3)
    assert abs(full.alpha_hat - dropped.alpha_hat) <= 0.05


def test_fit_rotation_invariance(ball_field):
    # axis relabeling leaves the radial fixture identical; the pipeline
    # must reproduce alpha_hat exactly
    dom = DomainSpec2D("ball", aperture=np.pi, r_max=1.0)
    cfg = SolveConfig(schedule=(1e2, 1e3, 1e4), bracket_tol=1.0, n_eta=200,
                      eta_grading=2.0)
    fld2 = solve(dom, euclidean_operator(3), 3, cfg)
    f1 = fit_rate(compare_to_cone(ball_field), 2.0**-9, 2.0**-2)
    f2 = fit_rate(compare_to_cone(fld2), 2.0**-9, 2.0**-2)
    assert abs(f1.alpha_hat - f2.alpha_hat) < 1e-6


def test_verify_rows(half_sphere_eigen, ball_field):
    ratio = compare_to_cone(ball_field)
    fit = fit_rate(ratio, 2.0**-9, 2.0**-2)
    row = verify_theorem("ball-n3", 3, fit.alpha_hat, predicted=1.0,
                         slack=0.1, sharp_at=1.3)
    assert row.passed and row.sharp_check
    # regime-driven prediction follows the trichotomy
    row2 = verify_theorem("half-sphere", 3, fit.alpha_hat,
                          eigen=half_sphere_eigen[3], slack=0.2)
    assert row2.predicted == 2.0
    assert not row2.passed  # measured ~1 against predicted 2
    assert row2.sharp_check is None  # no sharp_at, so no sharpness check


def test_verify_requires_inputs(ball_field):
    fit = fit_rate(compare_to_cone(ball_field), 2.0**-9, 2.0**-2)
    with pytest.raises(ConfigError):
        verify_theorem("x", 3, fit)


@pytest.mark.parametrize("candidate, tmap_radius", [
    ("cone-quadratic", None), ("t-composed", 1.0),
])
def test_cone_search_measures_derivative_constant_once(
        half_sphere_eigen, monkeypatch, candidate, tmap_radius):
    from blowlab import analysis
    from blowlab.geometry import build_T, sphere_surface

    measure = analysis._profile_derivative_constant
    calls = []

    def counting(profile):
        calls.append(profile)
        return measure(profile)

    monkeypatch.setattr(analysis, "_profile_derivative_constant", counting)
    kw = {} if tmap_radius is None else {
        "tmap": build_T([sphere_surface(3, tmap_radius)])}
    cert = certify_supersolution(StructureClass(3, 2.0), candidate,
                                 eigen=half_sphere_eigen[3], **kw)
    assert cert.passed
    assert len(calls) == 1


def _ingredients_on_a_meshgrid(eigen, r, case):
    """The cone barrier ingredients with every term formed on full (r, theta)
    arrays of a meshgrid: the reference of the broadcast ones."""
    prof = eigen.profile
    n = prof.n
    m = 0.5 * (n - 2.0)
    mask = prof.interior_mask()
    theta = prof.theta[mask][1:]
    g, rho, phi = (x[mask][1:] for x in (prof.g, prof.rho, eigen.phi))
    lam, mu = eigen.lambda1, eigen.mu1
    V = 0.25 * n * (n + 2.0) / rho**2
    alpha = 0.5 * (6.0 - n)
    R, _ = np.meshgrid(r, theta, indexing="ij")
    G, PHI, VV = (np.broadcast_to(x, R.shape) for x in (g, phi, V))
    u_v = R ** (-m) * G
    lap_uv = 0.25 * n * (n - 2.0) * u_v ** ((n + 2.0) / (n - 2.0))
    term0, lap0 = u_v * R**2, lap_uv * R**2 + 4.0 * u_v
    term1 = R**alpha
    lap1 = alpha * (alpha + n - 2.0) * R ** (alpha - 2.0)
    if case == "quadratic":
        term2 = R**alpha * PHI
        lap2 = R ** (alpha - 2.0) * (alpha * (alpha + n - 2.0) - lam + VV) * PHI
    elif case == "log":
        term2 = -(R**alpha) * np.log(R) * PHI
        lap2 = -(np.log(R) * R ** (alpha - 2.0)
                 * (alpha * (alpha + n - 2.0) - lam + VV) * PHI
                 + (2.0 * alpha + n - 2.0) * R ** (alpha - 2.0) * PHI)
    else:
        a2 = mu - m
        term2 = (R**a2 - R**alpha) * PHI
        lap2 = (VV * R ** (a2 - 2.0)
                - R ** (alpha - 2.0) * (alpha * (alpha + n - 2.0) - lam + VV)) * PHI
    return u_v, lap_uv, term0, lap0, term1, lap1, term2, lap2, rho


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("case", ["quadratic", "log", "slow"])
def test_cone_ingredients_broadcast_to_the_meshgrid_floats(half_sphere_eigen,
                                                           case, n):
    from blowlab.analysis import _cone_barrier_ingredients

    r = np.geomspace(0.25 * 2.0**-6, 0.25, 48)
    got = _cone_barrier_ingredients(half_sphere_eigen[n], r, case)
    want = _ingredients_on_a_meshgrid(half_sphere_eigen[n], r, case)
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert np.broadcast_to(x, y.shape).tobytes() == y.tobytes()


def _c_t_by_points(tmap):
    """C_T of the t-composed barrier, one draw and one norm per point."""
    from blowlab.geometry import apply_T

    rng = np.random.default_rng(17)
    points = []
    for _ in range(24):
        v = rng.standard_normal(tmap.n)
        v /= np.linalg.norm(v)
        points += [s * 0.5 * tmap.r_T * v for s in (0.1, 0.3, 0.6)]
    points = np.array(points)
    worst = 0.0
    for x, xb in zip(points, apply_T(tmap, points)):
        worst = max(worst, np.linalg.norm(xb - x) / np.linalg.norm(x) ** 2)
    return worst


@pytest.mark.parametrize("radius", [1.0, 0.5])
def test_c_t_is_the_per_point_one(monkeypatch, radius):
    from blowlab import analysis
    from blowlab.geometry import build_T, sphere_surface

    tmap = build_T([sphere_surface(3, radius)])
    seen = []
    monkeypatch.setattr(analysis, "_certify_cone_corrected",
                        lambda *args, c_t, **kw: seen.append(c_t))
    analysis._certify_t_composed(euclidean_operator(3), None, tmap)
    assert seen == [_c_t_by_points(tmap)] and type(seen[0]) is float


# the widest n = 3 cap of the sweep-1d benchmark's domains, seeds 1 and 7
SWEEP_CAPS = (1.279447609929085, 1.2868284590157075)


@pytest.mark.parametrize("aperture", [np.pi / 2, *SWEEP_CAPS])
def test_cone_certificates_of_the_sweep_domains(monkeypatch, aperture):
    # the sweep-1d searches on the n = 3 half-sphere and the widest cap
    # give the margins and constants of the meshgrid ingredients, and the
    # t-composed one the per-point C_T
    from blowlab import analysis
    from blowlab.geometry import build_T, sphere_surface
    from conftest import MEDIUM, cap

    eig = first_eigenpair(solve_profile(cap(aperture), 3, grid=MEDIUM))
    op, tmap = euclidean_operator(3), build_T([sphere_surface(3, 1.0)])

    def certificates():
        return [certify_supersolution(op, "cone-quadratic", eigen=eig),
                certify_supersolution(op, "t-composed", eigen=eig, tmap=tmap)]

    got = certificates()
    with monkeypatch.context() as m:
        m.setattr(analysis, "_cone_barrier_ingredients",
                  _ingredients_on_a_meshgrid)
        want = certificates()
    assert got == want
    assert got[1].constants["C_T"] == _c_t_by_points(tmap)
