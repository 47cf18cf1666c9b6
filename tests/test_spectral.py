import numpy as np
import pytest

from blowlab import spectral
from blowlab.errors import BlowlabError, ConfigError, DomainError
from blowlab.profiles import (BlowupProfile, GridSpec, SphericalDomain1D,
                              solve_profile)
from blowlab.spectral import (
    _assemble,
    _sphere_area,
    _weight,
    first_eigenpair,
    half_sphere_lambda1,
    rayleigh,
    regime_exponent,
)
from conftest import FINE, MEDIUM, band, cap, cap_complement


def test_half_sphere_closed_form_oracle():
    # independent route: plug phi = cos^a into the operator on a dense grid
    # and check the eigen identity before trusting the formula
    n = 3
    a = 0.5 * (n + 2.0)
    theta = np.linspace(1e-4, np.pi / 2 - 1e-4, 10_000)
    phi = np.cos(theta) ** a
    dphi = -a * np.cos(theta) ** (a - 1) * np.sin(theta)
    d2phi = a * (a - 1) * np.cos(theta) ** (a - 2) * np.sin(theta) ** 2 - a * np.cos(
        theta) ** a
    lap = d2phi + (n - 2.0) * (np.cos(theta) / np.sin(theta)) * dphi
    pot = 0.25 * n * (n + 2.0) / np.cos(theta) ** 2
    lam_field = (-lap + pot * phi) / phi
    assert np.max(np.abs(lam_field - half_sphere_lambda1(n))) < 1e-6
    assert half_sphere_lambda1(3) == pytest.approx(8.75)
    assert half_sphere_lambda1(4) == pytest.approx(15.0)
    assert half_sphere_lambda1(6) == pytest.approx(32.0)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_half_sphere_eigenvalue(n, half_sphere_eigen):
    eig = half_sphere_eigen[n]
    exact = half_sphere_lambda1(n)
    assert abs(eig.lambda1 / exact - 1.0) < 1e-3
    assert abs(eig.mu1 - n) < 1e-3
    assert eig.regime == "alpha-2"


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_half_sphere_lower_bound(n):
    # lambda1 on the half sphere exceeds n(n+2)/4 since rho = cos <= 1
    prof = solve_profile(
        SphericalDomain1D("polar-sphere", 0.0, np.pi / 2,
                          bc_lo="regular-pole", bc_hi="blowup"),
        n, grid=MEDIUM)
    eig = first_eigenpair(prof)
    assert eig.lambda1 > 0.25 * n * (n + 2.0)


@pytest.mark.parametrize("n", [4, 6])
def test_half_sphere_eigenfunction_closed_form(n, half_sphere_eigen):
    # phi = c cos^((n+2)/2) at every free node, with c fitted by least
    # squares; the pole, where the mass weights vanish like theta^(n-2), is
    # the node to watch.  Measured at 3200 nodes: 4.3e-7 (n = 4) and 5.1e-7
    # (n = 6)
    eig = half_sphere_eigen[n]
    theta, phi = eig.profile.theta[:-1], eig.phi[:-1]
    exact = np.cos(theta) ** (0.5 * (n + 2.0))
    c = (phi @ exact) / (exact @ exact)
    assert np.max(np.abs(phi - c * exact)) <= 1e-6 * c


@pytest.mark.parametrize("n", [4, 6])
def test_eigenfunction_stable_under_rounding_of_g(n, half_sphere_eigen):
    # a relative 1e-13 change of g moves phi by at most 1e-10 of max phi
    # (measured 4.7e-13 at n = 4 and 2.3e-12 at n = 6)
    eig = half_sphere_eigen[n]
    prof = eig.profile
    rng = np.random.default_rng(2024)
    for _ in range(3):
        g = prof.g * (1.0 + 1e-13 * rng.standard_normal(prof.g.shape))
        moved = first_eigenpair(BlowupProfile(
            prof.domain, n, prof.theta, g, prof.truncation))
        assert np.max(np.abs(moved.phi - eig.phi)) <= 1e-10 * np.max(eig.phi)


def test_eigenfunction_positive_normalized(half_sphere_eigen):
    eig = half_sphere_eigen[3]
    assert np.all(eig.phi[1:-1] > 0)
    # eigenfunction shape phi ~ cos^{(n+2)/2}, checked clear of the wall
    # cells where the truncated weight distorts the discrete ground state
    theta = eig.profile.theta
    sel = (theta > 0) & (theta <= np.pi / 2 - 0.05)
    shape = eig.phi[sel] / np.cos(theta[sel]) ** 2.5
    assert np.max(shape) / np.min(shape) - 1.0 < 1e-2


def test_rayleigh_consistency(half_sphere_eigen):
    eig = half_sphere_eigen[3]
    rq = rayleigh(eig.profile, eig.phi)
    assert abs(rq / eig.lambda1 - 1.0) < 1e-8


def test_rayleigh_variational(half_sphere_eigen):
    eig = half_sphere_eigen[3]
    prof = eig.profile
    bump = np.sin(np.pi * prof.theta / prof.theta[-1]) ** 2
    perturbed = eig.phi + 0.05 * bump * np.max(eig.phi)
    perturbed[-1] = 0.0
    assert rayleigh(prof, perturbed) >= eig.lambda1 - 1e-12


def test_rayleigh_errors(half_sphere_eigen):
    prof = half_sphere_eigen[3].profile
    with pytest.raises(ConfigError):
        rayleigh(prof, np.ones(7))
    bad = np.ones_like(prof.theta)
    with pytest.raises(DomainError):
        rayleigh(prof, bad)  # does not vanish at the wall


def test_cutoff_family_trend_n4():
    # the cutoff family phi_s bounds lambda1 from above; its Dirichlet
    # energy scales like s^(n-3) = s while the potential part deflates as
    # the excluded cap shrinks (only logarithmically at n = 4, so the raw
    # quotient cannot show the s-trend at desk scale -- see the README
    # note on the n = 4 logarithmic law under acceptance criterion 5)
    n = 4
    svals = (0.1, 0.2, 0.4)

    def cutoff(prof, s):
        phi = np.clip((prof.theta - 2.0 * s) / s + 1.0, 0.0, 1.0)
        phi[0] = 0.0
        return phi

    def gradient_quotient(prof, phi):
        theta = prof.theta
        w_mid = np.sin(0.5 * (theta[1:] + theta[:-1])) ** (n - 2)
        h = np.diff(theta)
        num = np.sum(w_mid * (np.diff(phi) / h) ** 2 * h)
        w_node = np.sin(theta) ** (n - 2)
        den = np.trapezoid(w_node * phi**2, theta)
        return num / den

    prof = solve_profile(cap_complement(0.02), n, grid=GridSpec(3200, 2.0))
    eig = first_eigenpair(prof)
    quotients = [rayleigh(prof, cutoff(prof, s)) for s in svals]
    assert all(eig.lambda1 <= q for q in quotients)
    grads = [gradient_quotient(prof, cutoff(prof, s)) for s in svals]
    assert grads[0] < grads[1] < grads[2]
    slope = np.polyfit(np.log(svals), np.log(grads), 1)[0]
    assert slope > 0.8
    # the limsup mechanism: for fixed s the quotient decreases with r
    prof_big = solve_profile(cap_complement(0.1), n, grid=MEDIUM)
    for s in svals:
        assert rayleigh(prof, cutoff(prof, s)) < rayleigh(
            prof_big, cutoff(prof_big, s))


def test_nested_cap_monotonicity():
    lams = []
    for theta0 in (0.6, 0.9, 1.2, 1.5):
        eig = first_eigenpair(solve_profile(cap(theta0), 3, grid=MEDIUM))
        lams.append(eig.lambda1)
    gaps = -np.diff(lams)
    assert np.all(gaps > 1e-6)


def test_n3_lower_bound_fixtures():
    fixtures = [cap(0.5), cap(1.0), cap(2.0), cap(2.8),
                band(0.7, 2.2), cap_complement(0.4)]
    for dom in fixtures:
        eig = first_eigenpair(solve_profile(dom, 3, grid=MEDIUM))
        assert eig.lambda1 > 0.75, dom.label
        assert eig.mu1 > max(0.5, 1.0)


def test_cap_complement_vanishing_trend_n4():
    lams = {}
    for r in (0.4, 0.2, 0.1, 0.05):
        eig = first_eigenpair(solve_profile(cap_complement(r), 4, grid=MEDIUM))
        lams[r] = eig.lambda1
        assert eig.mu1 > max(1.0, 1.0)
    assert lams[0.4] > lams[0.2] > lams[0.1] > lams[0.05]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_convex_cap_regime(n):
    for theta0 in (np.pi / 3, np.pi / 2):
        eig = first_eigenpair(solve_profile(cap(theta0), n, grid=MEDIUM))
        assert eig.mu1 > 2.0
        assert regime_exponent(eig).exponent == 2.0


def test_eigenfunction_decay_bound(half_sphere_eigen):
    eig = half_sphere_eigen[3]
    prof = eig.profile
    assert eig.nu_hat > 0
    assert abs(eig.nu_hat - 2.5) < 1e-2
    # discrete derivative bound rho|dphi| + rho^2|d2phi| <= C rho^nu nodewise
    from blowlab.profiles import derivative_arrays

    dphi, d2phi = derivative_arrays(prof.theta, eig.phi)
    mask = (prof.rho >= 1e-3) & (prof.rho <= 1e-1)
    lhs = prof.rho[mask] * np.abs(dphi[mask]) + prof.rho[mask] ** 2 * np.abs(
        d2phi[mask])
    c_fit = np.max(lhs / prof.rho[mask] ** eig.nu_hat)
    assert np.isfinite(c_fit) and c_fit > 0
    assert np.all(lhs <= c_fit * prof.rho[mask] ** eig.nu_hat + 1e-15)


def test_regime_dispatch(half_sphere_eigen):
    eig = half_sphere_eigen[3]
    form = regime_exponent(eig)
    assert form.exponent == 2.0 and form.description == "C|x|^2"
    # synthetic branches
    import copy

    log_case = copy.copy(eig)
    log_case.mu1 = 2.0 + 1e-9
    log_case.regime = "log"
    form = regime_exponent(log_case)
    assert form.exponent == 2.0 and form.description == "C(-|x|^2 ln|x|)"
    slow = copy.copy(eig)
    slow.mu1 = 1.4
    slow.regime = "alpha-mu"
    form = regime_exponent(slow)
    assert abs(form.exponent - 1.4) < 1e-12 and form.description == "C|x|^1.4"


def test_circle_arc_rejected(half_sphere_eigen):
    arc = SphericalDomain1D("circle-arc", 0.0, np.pi / 2)
    prof = solve_profile(arc, 3, grid=MEDIUM)
    with pytest.raises(ConfigError):
        first_eigenpair(prof)


def _gauss_cell(f, a, b, npts=4):
    """Fixed-order Gauss-Legendre integral of f over [a, b]."""
    x, wq = np.polynomial.legendre.leggauss(npts)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    pts = mid[..., None] + half[..., None] * x
    vals = f(pts)
    return half * np.sum(vals * wq, axis=-1)


def _assemble_by_loops(profile):
    """Free-node loop assembly, the reference for the padded-array one."""
    n = profile.n
    theta = profile.theta
    rho = profile.rho.copy()
    N = theta.size
    w = _weight(profile)
    coef = 0.25 * n * (n + 2.0)

    if profile.domain.bc_lo == "blowup":
        slope = (rho[2] - rho[1]) / (theta[2] - theta[1])
        rho[0] = max(rho[1] - slope * (theta[1] - theta[0]), 0.0)
    if profile.domain.bc_hi == "blowup":
        slope = (rho[-3] - rho[-2]) / (theta[-3] - theta[-2])
        rho[-1] = max(rho[-2] + slope * (theta[-1] - theta[-2]), 0.0)

    h = np.diff(theta)
    mid = theta[:-1] + 0.5 * h
    flux = w(mid) / h

    def pot_half(a, b, ra, rb, ta, tb):
        def integrand(t):
            lam = (t - ta[..., None]) / (tb - ta)[..., None]
            rr = ra[..., None] * (1 - lam) + rb[..., None] * lam
            rr = np.maximum(rr, 1e-300)
            return w(t) * coef / rr**2

        return _gauss_cell(integrand, a, b)

    mass_half_lo = _gauss_cell(w, theta[:-1], mid)
    mass_half_hi = _gauss_cell(w, mid, theta[1:])
    pot_half_lo = pot_half(theta[:-1], mid, rho[:-1], rho[1:], theta[:-1], theta[1:])
    pot_half_hi = pot_half(mid, theta[1:], rho[:-1], rho[1:], theta[:-1], theta[1:])

    mass = np.zeros(N)
    mass[:-1] += mass_half_lo
    mass[1:] += mass_half_hi
    pot = np.zeros(N)
    pot[:-1] += pot_half_lo
    pot[1:] += pot_half_hi

    dirichlet = np.zeros(N, dtype=bool)
    if profile.domain.bc_lo == "blowup":
        dirichlet[0] = True
    if profile.domain.bc_hi == "blowup":
        dirichlet[-1] = True
    free = np.where(~dirichlet)[0]

    nf = free.size
    diag = np.zeros(nf)
    sub = np.zeros(nf)
    sup = np.zeros(nf)
    for k, j in enumerate(free):
        d = pot[j]
        if j > 0:
            d += flux[j - 1]
            if not dirichlet[j - 1]:
                sub[k] = -flux[j - 1]
        if j < N - 1:
            d += flux[j]
            if not dirichlet[j + 1]:
                sup[k] = -flux[j]
        diag[k] = d
    return free, sub, diag, sup, mass[free]


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("domain", [cap(np.pi / 3), cap_complement(0.3),
                                    band(0.5, 2.0)],
                         ids=["cap", "cap-complement", "band"])
def test_assembly_matches_node_loop(n, domain):
    prof = solve_profile(domain, n, grid=GridSpec(400, 2.0))
    free, off, diag, mass = _assemble(prof)
    free_ref, sub, diag_ref, sup, mass_ref = _assemble_by_loops(prof)
    # one off-diagonal for both sides: the form is symmetric bit for bit
    for got, want in ((free, free_ref), (off, sup[:-1]), (off, sub[1:]),
                      (diag, diag_ref), (mass, mass_ref)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_wall_extension_is_mirror_symmetric():
    # on a band symmetric about the equator the two blow-up walls mirror
    # each other, so the linear extensions of rho into the wall cells, and
    # the assembled diagonals at the ends, must agree
    prof = solve_profile(band(0.5, np.pi - 0.5), 3, grid=GridSpec(800, 2.0))
    _, _, diag, _ = _assemble(prof)
    assert abs(diag[0] / diag[-1] - 1.0) < 1e-10


def _eigenpair_by_bisection(profile):
    """(lambda1, phi1) from LAPACK bisection and inverse iteration (`stebz`,
    `stein`) to an absolute tolerance of twice the smallest normal number,
    scaled as `first_eigenpair` scales phi1."""
    from scipy.linalg import eigh_tridiagonal

    free, off, diag, mass = _assemble(profile)
    s = 1.0 / np.sqrt(mass)
    (lam,), v = eigh_tridiagonal(diag * s**2, off * s[:-1] * s[1:],
                                 select="i", select_range=(0, 0),
                                 tol=2.0 * np.finfo(float).tiny)
    x = s * v[:, 0]
    x *= np.sign(np.sum(x))
    phi = np.zeros(profile.theta.size)
    phi[free] = x / np.sqrt(_sphere_area(profile.n - 2) * (x @ (mass * x)))
    return lam, phi


@pytest.mark.parametrize("n", [3, 4, 6])
def test_eigenpair_matches_bisection(n, half_sphere_eigen):
    # bisection keeps high relative accuracy on graded tridiagonals (Barlow
    # & Demmel, SIAM J. Numer. Anal. 27, 1990).  Measured on 3200 nodes:
    # lambda1 within 3.0e-12, 5.0e-12 and 1.1e-12, phi1 within 3.8e-12,
    # 1.1e-12 and 2.1e-12 of max phi1 (n = 3, 4, 6)
    eig = half_sphere_eigen[n]
    lam, phi = _eigenpair_by_bisection(eig.profile)
    assert abs(eig.lambda1 / lam - 1.0) <= 1e-11
    assert np.max(np.abs(eig.phi - phi)) <= 1e-9 * np.max(phi)
    # three inverse iterations at shift 0, then a few Rayleigh steps
    assert spectral.INVERSE_STEPS < eig.iterations <= spectral.INVERSE_STEPS + 4


def test_nonpositive_lambda1_is_an_error(half_sphere_eigen, monkeypatch):
    # a potential of the wrong sign makes T indefinite, and its Cholesky-type
    # factorization fails before any iteration
    prof = half_sphere_eigen[3].profile
    form = spectral._form

    def mis_signed(profile):
        free, flux, pot, mass = form(profile)
        return free, flux, -pot, mass

    monkeypatch.setattr(spectral, "_form", mis_signed)
    with pytest.raises(BlowlabError, match="lambda1 <= 0"):
        first_eigenpair(prof)
