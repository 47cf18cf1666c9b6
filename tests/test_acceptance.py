"""Acceptance gate: one test per criterion, at the stated tolerance.

Each criterion prints a single PASS/FAIL line with its measured numbers
(run with `pytest tests/test_acceptance.py -v -s` to see them inline).

Two criteria are stated as the decay law the exact solution obeys, not
as a fixed threshold that the exact solution never reaches:

* Criterion 5 (lambda1 vanishes on cap complements at n = 4). A
  shrinking excluded cap tends to a ray, of dimension 1 = (n-2)/2: the
  critical case of Loewner-Nirenberg removability, where lambda1 goes to
  0 only like 1/ln(1/r). The test checks the strict decrease over
  r in {0.4, 0.2, 0.1, 0.05} and that lambda1 * ln(1/r) varies by at
  most a factor 1.2 (measured 1.076; lambda1 agrees to 5 digits between
  1600 and 3200 nodes). The law predicts lambda1(0.05)/lambda1(0.4) =
  ln 2.5 / ln 20 = 0.306; measured 0.3105, so a factor-4 drop is first
  reached near r = 0.025. The same check must fail on the n = 3 sweep
  (spread 1.716), where lambda1 stays above 3/4 and does not vanish.
* Criterion 12 (cut data stays local). The {1/2, 2}x bracket width
  decays like C (r/r_max)^mu1 from the outer cut and C (r_min/r)^mu1
  from the inner cut, so on the window [4 r_min, r_max/4] it bottoms out
  near C 4^-mu1 at both edges. The n = 6 fixture (mu1 = 9.42) stays
  below 1e-3; the n = 3 fixture (mu1 = 4.66, C ~ 2.5) has width 3.98e-3
  at r = 4 r_min, and 3.95e-3 with twice the radial and 1.5x the angular
  nodes. For n = 3 the test fits both decay slopes and checks them
  against +-mu1 within 2% (measured +-4.655 against 4.6645), and checks
  that halving r_max multiplies the width on [16 r_min, 1/8], which the
  outer cut sets, by 2^mu1 within 5% (measured 24.96 against 25.36).
"""

import numpy as np
import pytest

from blowlab.analysis import (
    StructureClass,
    certify_supersolution,
    compare_to_cone,
    fit_rate,
)
from blowlab.geometry import (
    apply_T,
    build_T,
    jacobian_T,
    paraboloid_surface,
    sphere_surface,
)
from blowlab.operators import (
    conformal_operator,
    conformal_quadratic_metric,
    euclidean_operator,
    scalar_curvature,
)
from blowlab.profiles import GridSpec, solve_profile
from blowlab.solver import (DomainSpec2D, SolveConfig, level_fields,
                            monotone_check, solve)
from blowlab.spectral import first_eigenpair, half_sphere_lambda1
from conftest import band, cap, cap_complement, half_sphere

FINEST = GridSpec(count=3200, grading=2.5)
EIGEN_GRID = GridSpec(count=1600, grading=2.0)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    return ok


@pytest.fixture(scope="module")
def cone_cases():
    """Theorem fixtures of the regime-reproduction criterion (shared with
    the localization criterion)."""
    out = {}
    for n, q, r_min in ((6, 0.3, 2.0**-9), (3, 0.3, 2.0**-12)):
        dom = DomainSpec2D("meridian", aperture=np.pi / 3, r_min=r_min,
                           r_max=1.0)
        cfg = SolveConfig(schedule=(1e2,), nt_per_octave=20, n_eta=160,
                          eta_grading=2.0, bracket_tol=1.0)
        base = solve(dom, euclidean_operator(n), n, cfg)
        op = conformal_operator(conformal_quadratic_metric(n, q))
        fld = solve(dom, op, n, cfg, forced_schedule=base.m_history)
        fit = fit_rate(compare_to_cone(fld, baseline=base), 2.0**-7, 2.0**-2)
        out[n] = {"field": fld, "baseline": base, "fit": fit, "domain": dom,
                  "config": cfg}
    return out


def test_criterion_01_profile_closed_form():
    worst = {}
    for n in (3, 6):
        prof = solve_profile(half_sphere(n), n, grid=FINEST)
        mask = prof.theta <= np.pi / 2 - 0.1
        exact = np.cos(prof.theta[mask]) ** (-0.5 * (n - 2.0))
        worst[n] = np.max(np.abs(prof.g[mask] / exact - 1.0))
    ok = all(w <= 1e-3 for w in worst.values())
    assert report(1, ok, f"half-sphere profile vs cos^(-(n-2)/2): "
                         f"max rel err n=3: {worst[3]:.2e}, n=6: {worst[6]:.2e} "
                         f"(tol 1e-3)")


def test_criterion_02_eigenvalue_closed_form():
    errs = {}
    for n in (3, 4, 6):
        eig = first_eigenpair(solve_profile(half_sphere(n), n, grid=FINEST))
        errs[n] = (abs(eig.lambda1 / half_sphere_lambda1(n) - 1.0),
                   abs(eig.mu1 - n))
    ok = all(e[0] <= 1e-3 and e[1] <= 1e-3 for e in errs.values())
    detail = ", ".join(f"n={n}: dl={e[0]:.1e} dmu={e[1]:.1e}"
                       for n, e in errs.items())
    assert report(2, ok, f"half-sphere lambda1=(n+2)(3n-2)/4 and mu1=n: "
                         f"{detail} (tol 1e-3)")


def test_criterion_03_lower_bound_fixtures():
    margins = {}
    for dom in (cap(0.5), cap(1.0), cap(2.0), cap(2.8), band(0.7, 2.2),
                cap_complement(0.4)):
        eig = first_eigenpair(solve_profile(dom, 3, grid=EIGEN_GRID))
        margins[dom.label] = eig.lambda1 - 0.75
    ok = all(m > 0 for m in margins.values())
    worst = min(margins.items(), key=lambda kv: kv[1])
    assert report(3, ok, f"lambda1 > 3/4 on {len(margins)} fixtures; "
                         f"smallest margin {worst[1]:.4f} at {worst[0]}")


def test_criterion_04_nested_cap_monotonicity():
    lams = [first_eigenpair(solve_profile(cap(t0), 3, grid=EIGEN_GRID)).lambda1
            for t0 in (0.6, 0.9, 1.2, 1.5)]
    gaps = [a - b for a, b in zip(lams, lams[1:])]
    ok = all(g > 1e-6 for g in gaps)
    assert report(4, ok, f"nested caps lambda1 strictly decreasing, gaps "
                         f"{['%.3f' % g for g in gaps]} (> 1e-6)")


LOG_LAW_SPREAD = 1.2


def log_law_spread(lams):
    """max/min of lambda1(Sigma_r) * ln(1/r) over a sweep {r: lambda1}.

    Near 1 when lambda1 vanishes like 1/ln(1/r), the critical-capacity
    law of a shrinking excluded cap at n = 4.
    """
    scaled = [lam * np.log(1.0 / r) for r, lam in lams.items()]
    return max(scaled) / min(scaled)


def test_criterion_05_cap_complement_vanishing():
    radii = (0.4, 0.2, 0.1, 0.05)
    lams = {n: {r: first_eigenpair(solve_profile(cap_complement(r), n,
                                                 grid=EIGEN_GRID)).lambda1
                for r in radii}
            for n in (4, 3)}
    four = [lams[4][r] for r in radii]
    decreasing = all(a > b for a, b in zip(four, four[1:]))
    spread = log_law_spread(lams[4])
    control = log_law_spread(lams[3])
    log_law = spread <= LOG_LAW_SPREAD
    control_fails = control > LOG_LAW_SPREAD
    ratio = lams[4][0.05] / lams[4][0.4]
    ok = decreasing and log_law and control_fails
    report(5, ok,
           f"cap complements n=4: decreasing={decreasing}; "
           f"lambda1*ln(1/r) spread {spread:.3f} (<= {LOG_LAW_SPREAD}); "
           f"lambda(0.05)/lambda(0.4) = {ratio:.4f} vs law "
           f"{np.log(2.5) / np.log(20.0):.4f} (factor-4 target 0.25); "
           f"n=3 control spread {control:.3f} (> {LOG_LAW_SPREAD}, "
           f"lambda1 > 3/4 does not vanish)")
    assert decreasing
    assert log_law, (
        "lambda1(Sigma_r) at n = 4 should vanish like 1/ln(1/r): "
        f"lambda1*ln(1/r) spread {spread:.3f} > {LOG_LAW_SPREAD}"
    )
    assert control_fails, (
        "the 1/ln(1/r) check must reject the n = 3 sweep, where lambda1 "
        f"stays above 3/4; spread {control:.3f} <= {LOG_LAW_SPREAD}"
    )


def test_criterion_06_indicial_bounds():
    fixtures = [(3, cap(0.5)), (3, cap(1.0)), (3, cap(2.0)), (3, cap(2.8)),
                (3, band(0.7, 2.2)), (3, cap_complement(0.4)),
                (4, cap_complement(0.4)), (4, cap_complement(0.05)),
                (6, cap(np.pi / 3))]
    bound_ok = True
    for n, dom in fixtures:
        eig = first_eigenpair(solve_profile(dom, n, grid=EIGEN_GRID))
        bound_ok &= eig.mu1 > max(0.5 * (n - 2.0), 1.0)
    convex_ok = True
    worst_mu = np.inf
    for n in (3, 4, 5):
        for t0 in (np.pi / 3, np.pi / 2):
            eig = first_eigenpair(solve_profile(cap(t0), n, grid=EIGEN_GRID))
            convex_ok &= eig.mu1 > 2.0
            worst_mu = min(worst_mu, eig.mu1)
    ok = bound_ok and convex_ok
    assert report(6, ok, f"mu1 > max((n-2)/2, 1) on every fixture ({bound_ok}); "
                         f"convex caps mu1 > 2, min {worst_mu:.3f} ({convex_ok})")


def test_criterion_07_ball_exact_solution():
    dom = DomainSpec2D("ball", aperture=np.pi, r_max=1.0)
    cfg = SolveConfig(schedule=(1e2, 1e3, 1e4), bracket_tol=1.0, n_eta=200,
                      eta_grading=2.0)
    fld = solve(dom, euclidean_operator(3), 3, cfg)
    mask = fld.r <= 0.7
    r = fld.r[mask]
    exact = (2.0 / (1.0 - r**2)) ** 0.5
    interior_err = np.max(np.abs(fld.u[mask, 0] / exact - 1.0))
    fit = fit_rate(compare_to_cone(fld), 2.0**-9, 2.0**-2)
    ok = (interior_err <= 1e-3 and abs(fit.alpha_hat - 1.0) <= 0.1
          and fit.alpha_hat <= 1.3)
    assert report(7, ok, f"ball: interior err {interior_err:.2e} (tol 1e-3); "
                         f"|d^(1/2)u-1| exponent {fit.alpha_hat:.4f} "
                         f"(1 +- 0.1, sharp <= 1.3)")


def test_criterion_08_regime_reproduction(cone_cases):
    a6 = cone_cases[6]["fit"].alpha_hat
    a3 = cone_cases[3]["fit"].alpha_hat
    ok = a6 >= 1.8 and a3 >= 1.7
    assert report(8, ok, f"cap-cone pi/3, conformal-quadratic q=0.3: "
                         f"n=6 alpha_hat={a6:.4f} (>= 1.8), "
                         f"n=3 alpha_hat={a3:.4f} (>= 1.7)")


def test_criterion_09_barrier_certificates():
    ok_parts = []
    details = []
    for c_l in (0.0, 0.5, 2.0):
        cert = certify_supersolution(StructureClass(3, c_l), "double-ball", n=3)
        ok_parts.append(cert.passed)
        details.append(f"2u_R C_L={c_l:g}: R*={cert.constants['R_star']:.3g}")
    for n in (3, 6):
        cert = certify_supersolution(StructureClass(n, 1.0), "graded-sum", n=n)
        ok_parts.append(cert.passed)
        details.append(f"graded n={n}: margin {cert.margin:.2e}")
    eig = first_eigenpair(solve_profile(half_sphere(3), 3, grid=EIGEN_GRID))
    cert = certify_supersolution(euclidean_operator(3), "cone-quadratic",
                                 eigen=eig)
    ok_parts.append(cert.passed)
    details.append(f"cone case-1: margin {cert.margin:.2e}")
    ok = all(ok_parts)
    assert report(9, ok, "; ".join(details))


def test_criterion_10_monotone_scheme_and_curvature_bound():
    dom = DomainSpec2D("ball", aperture=np.pi, r_max=1.0)
    cfg = SolveConfig(schedule=(1e2, 1e3, 1e4), bracket_tol=1.0, n_eta=200,
                      eta_grading=2.0)
    op = euclidean_operator(3)
    fld = solve(dom, op, 3, cfg)
    rep = monotone_check(level_fields(fld, op, cfg))
    inc = rep["increments"]
    geometric = all(b < 0.5 * a for a, b in zip(inc, inc[1:]))

    n, q = 3, 0.3
    met = conformal_quadratic_metric(n, q)
    mfld = solve(dom, conformal_operator(met), n,
                 SolveConfig(schedule=(1e2, 1e3), bracket_tol=1.0, n_eta=200,
                             eta_grading=2.0))
    r = mfld.r[1:-1]
    pts = np.zeros((r.size, n))
    pts[:, -1] = r
    s_g = scalar_curvature(met, pts)
    bound = (-s_g / (n * (n - 1.0))) ** (0.25 * (n - 2.0))
    curvature_ok = bool(np.all(s_g < 0)
                        and np.all(mfld.u[1:-1, 0] >= bound - 1e-12))
    ok = rep["monotone"] and geometric and curvature_ok
    assert report(10, ok, f"monotone: {rep['monotone']}, increments "
                          f"{['%.2e' % x for x in inc]} geometric={geometric}; "
                          f"u >= (-S_g/(n(n-1)))^((n-2)/4): {curvature_ok}")


def test_criterion_11_t_map_properties():
    devs = {}
    slopes = {}
    for label, surf in (("sphere", sphere_surface(3, 1.0)),
                        ("paraboloid", paraboloid_surface(3))):
        tmap = build_T([surf])
        devs[label] = np.max(np.abs(jacobian_T(tmap, np.zeros(3)) - np.eye(3)))
        ray = np.array([0.5, 0.2, 0.8])
        ray /= np.linalg.norm(ray)
        ts = np.geomspace(0.004, tmap.r_T / 2, 10)
        dv = [np.linalg.norm(apply_T(tmap, t * ray) - t * ray) for t in ts]
        slopes[label] = np.polyfit(np.log(ts), np.log(dv), 1)[0]
    ok = all(d <= 1e-6 for d in devs.values()) and all(
        s >= 1.9 for s in slopes.values())
    assert report(11, ok, f"JT(0)-I: {max(devs.values()):.1e} (<= 1e-6); "
                          f"|Tx-x| slopes sphere {slopes['sphere']:.3f}, "
                          f"paraboloid {slopes['paraboloid']:.3f} (>= 1.9)")


RATE_TOL = 0.02
DOUBLING_TOL = 0.05


def row_widths(fld):
    """Radii and per-row bracket widths max_eta (u_high - u)/u over the
    interior window."""
    window = fld.interior_window()
    rows = np.any(window, axis=1)
    rel = np.where(window, (fld.u_high - fld.u) / fld.u, -np.inf)
    return fld.r[rows], rel[rows].max(axis=1)


def log_slope(r, w, lo, hi):
    """Least-squares slope of log w against log r on lo <= r <= hi."""
    sel = (r >= lo * (1.0 - 1e-9)) & (r <= hi * (1.0 + 1e-9))
    return np.polyfit(np.log(r[sel]), np.log(w[sel]), 1)[0]


def test_criterion_12_localization(cone_cases):
    widths = {n: case["field"].bracket_width for n, case in cone_cases.items()}
    below = {n: w < 1e-3 for n, w in widths.items()}

    # doubling r_max must shrink the disagreement on a FIXED region: the
    # cone problem is dilation invariant, so regions scaling with r_max
    # would hide the effect
    dom_half = DomainSpec2D("meridian", aperture=np.pi / 3, r_min=2.0**-12,
                            r_max=0.5)
    cfg = cone_cases[3]["config"]
    half = solve(dom_half, euclidean_operator(3), 3, cfg)
    w_small = half.bracket_width_over(r_hi=0.125)
    w_big = cone_cases[3]["baseline"].bracket_width_over(r_hi=0.125)
    shrinks = w_big < w_small

    # at n = 3 the width decays like (r/r_max)^mu1 from the outer cut and
    # (r_min/r)^mu1 from the inner cut; check both rates against mu1
    dom3 = cone_cases[3]["domain"]
    mu1 = first_eigenpair(
        solve_profile(cap(np.pi / 3), 3, grid=EIGEN_GRID)).mu1

    # both maxima on r <= 1/8 sit at the shared inner edge 4 r_min, so
    # `shrinks` holds only by rounding; away from it, on [16 r_min, 1/8],
    # the outer cut sets the width, and halving r_max multiplies it by 2^mu1
    def outer_width(fld):
        r, w = row_widths(fld)
        lo, hi = 16.0 * fld.domain.r_min, 0.125
        sel = (r >= lo * (1.0 - 1e-9)) & (r <= hi * (1.0 + 1e-9))
        return w[sel].max()

    doubling = outer_width(half) / outer_width(cone_cases[3]["baseline"])
    doubling_ok = abs(doubling / 2.0**mu1 - 1.0) <= DOUBLING_TOL
    r, w = row_widths(cone_cases[3]["field"])
    outer = log_slope(r, w, dom3.r_max / 32.0, dom3.r_max / 4.0)
    inner = log_slope(r, w, 4.0 * dom3.r_min, 32.0 * dom3.r_min)
    rates = (abs(outer / mu1 - 1.0) <= RATE_TOL
             and abs(-inner / mu1 - 1.0) <= RATE_TOL)
    positive = widths[3] > 0
    r_peak = r[np.argmax(w)] / dom3.r_min
    ok = below[6] and positive and rates and shrinks and doubling_ok
    report(12, ok,
           f"bracket widths: n=6 {widths[6]:.2e} (tol 1e-3), n=3 "
           f"{widths[3]:.2e} (vs 1e-3; floor ~2.5*4^-mu1 = "
           f"{2.5 * 4.0**-mu1:.1e} at both window edges, max at "
           f"r = {r_peak:.3g} r_min); n=3 decay slopes {outer:+.3f} on "
           f"[r_max/32, r_max/4] and {inner:+.3f} on [4 r_min, 32 r_min] vs "
           f"+-mu1 = {mu1:.4f} (tol {RATE_TOL:.0%}): {rates}; doubling r_max "
           f"shrinks ({w_small:.2e} -> {w_big:.2e} on r <= 1/8, margin "
           f"{w_small - w_big:.1e}): {shrinks}; "
           f"width ratio r_max 1/2 : 1 on [16 r_min, 1/8] {doubling:.2f} vs "
           f"2^mu1 = {2.0**mu1:.2f} (tol {DOUBLING_TOL:.0%}): {doubling_ok}")
    assert shrinks
    assert doubling_ok, (
        "halving r_max should multiply the outer-cut bracket width on "
        f"[16 r_min, 1/8] by 2^mu1 = {2.0**mu1:.2f}; measured {doubling:.2f}"
    )
    assert below[6]
    assert positive
    assert rates, (
        "the {1/2,2}x bracket disagreement at n = 3 should decay like "
        "(r/r_max)^mu1 and (r_min/r)^mu1, with floor ~2.5*4^-mu1 = 4e-3 at "
        "both window edges (max at r = 4 r_min); measured slopes "
        f"{outer:+.3f}, {inner:+.3f} against mu1 = {mu1:.4f}"
    )
