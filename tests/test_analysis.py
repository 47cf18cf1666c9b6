import numpy as np
import pytest

from blowlab.analysis import (
    BarrierCertificate,
    RatioField,
    _search,
    StructureClass,
    certify_supersolution,
    compare_to_cone,
    fit_rate,
    verify_theorem,
)
from blowlab.errors import ConfigError, DomainError
from blowlab.operators import euclidean_operator
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


def test_search_returns_first_pass_else_best_margin():
    def cert(margin):
        return BarrierCertificate("trial", "B_1", margin, 8, margin > 0.0)

    seen = []

    def trials(certs):
        for c in certs:
            seen.append(c)
            yield c

    failing = [cert(-3.0), cert(-1.0), cert(-1.0), cert(-2.0)]
    passing = [cert(-3.0), cert(2.0), cert(5.0)]
    # the first passing trial in search order, not the best one, and the
    # search stops there
    assert _search(trials(passing)) is passing[1]
    assert seen == passing[:2]
    # none passes: the best margin, the first of equal ones
    best = _search(trials(failing))
    assert best is failing[1] and not best.passed
    assert _search(iter(())) is None


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
    fit = fit_rate(RatioField(3.0 * r**2, r, "syn", "x"), 2.0**-7, 2.0**-2)
    assert abs(fit.alpha_hat - 2.0) < 1e-3
    assert fit.model == "power"
    assert fit.r_squared > 0.9999


def test_fit_rate_log_model_preferred():
    r = np.geomspace(2.0**-7, 2.0**-1, 4000)
    vals = 0.5 * r**2 * np.abs(np.log(r))
    fit = fit_rate(RatioField(vals, r, "syn", "x"), 2.0**-7, 2.0**-2,
                   compare_log_model=True)
    assert fit.model == "power-log"
    assert fit.log_model_residual < fit.residual


def test_fit_rate_window_errors():
    r = np.geomspace(2.0**-3, 2.0**-1, 50)
    with pytest.raises(ConfigError):
        fit_rate(RatioField(r**2, r, "syn", "x"), 2.0**-3, 2.0**-2)
    r2 = np.geomspace(2.0**-7, 2.0**-5, 50)  # upper annuli empty
    with pytest.raises(DomainError):
        fit_rate(RatioField(r2**2, r2, "syn", "x"), 2.0**-7, 2.0**-2)


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
    row = verify_theorem("ball-n3", 3, fit, predicted=1.0, slack=0.1,
                         sharp_at=1.3)
    assert row.passed and row.sharp_check
    # regime-driven prediction follows the trichotomy
    row2 = verify_theorem("half-sphere", 3, fit, eigen=half_sphere_eigen[3],
                          slack=0.2)
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
