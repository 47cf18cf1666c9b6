"""First eigenpair of the singular spherical operator -Lap + n(n+2)/(4 rho^2).

The weight rho of a converged blow-up profile vanishes linearly at the
blow-up boundary, so the potential behaves like 1/d^2 there: integrable
against the eigenfunction but stiff for naive quadrature.  The operator
is assembled as a finite-volume form on the profile's own graded nodes,

    Aphi = lambda M phi,   A = flux(w) + potential,  M = lumped mass,

with measure weight w = sin^(n-2)(theta) on polar-sphere geometry, zero
values at blow-up endpoints and the natural (zero-flux) closure at a
regular pole.  Within the wall cell the potential integral uses the
linear extension rho ~ c d instead of the truncated boundary value.

The derived index mu1 = sqrt(((n-2)/2)^2 + lambda1) drives the decay
regime of cone-solution perturbations: quadratic for mu1 > 2, quadratic
with a logarithm at mu1 = 2, and |x|^mu1 below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import BlowlabError, ConfigError, DomainError
from .profiles import POLAR_SPHERE, BLOWUP, BlowupProfile

__all__ = [
    "EigenResult",
    "RateForm",
    "first_eigenpair",
    "rayleigh",
    "regime_exponent",
    "half_sphere_lambda1",
]

MU_EQUAL_TWO_TOL = 1e-6


def half_sphere_lambda1(n):
    """Closed form on the half-sphere: phi = cos^((n+2)/2) is the ground state.

    Plugging phi = cos^a(theta) with a = (n+2)/2 into the operator makes the
    singular cos^(a-2) terms cancel exactly when a(a-1) = n(n+2)/4, leaving
    the eigenvalue a(a+n-2) = (n+2)(3n-2)/4.
    """
    return 0.25 * (n + 2.0) * (3.0 * n - 2.0)


@dataclass
class RateForm:
    """Predicted decay bound of |u/u_V - 1| near the vertex."""

    kind: str          # "power" or "power-log"
    exponent: float
    description: str

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "power-log":
            return r**2 * np.abs(np.log(r))
        return r**self.exponent


@dataclass
class EigenResult:
    profile: BlowupProfile
    lambda1: float
    phi: np.ndarray            # on the profile nodes, zero at blow-up ends
    mu1: float
    regime: str                # alpha-2 | log | alpha-mu
    nu_hat: float
    iterations: int

    @property
    def n(self):
        return self.profile.n


def _weight(profile):
    if profile.domain.geometry == POLAR_SPHERE:
        return lambda th: np.sin(th) ** (profile.n - 2)
    return lambda th: np.ones_like(np.asarray(th, dtype=float))


def _sphere_area(k):
    """Surface measure of S^k."""
    from math import gamma, pi

    return 2.0 * pi ** ((k + 1) / 2.0) / gamma((k + 1) / 2.0)


def _gauss_cell(f, a, b, npts=4):
    """Fixed-order Gauss-Legendre integral of f over [a, b]."""
    x, wq = np.polynomial.legendre.leggauss(npts)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    pts = mid[..., None] + half[..., None] * x
    vals = f(pts)
    return half * np.sum(vals * wq, axis=-1)


def _assemble(profile):
    """FV matrices (A tridiagonal, M diagonal) on the free (non-Dirichlet) nodes.

    Returns (free_idx, sub, diag, sup, mass).
    """
    if profile.domain.geometry != POLAR_SPHERE:
        raise ConfigError(
            "eigenproblem is assembled on polar-sphere geometry only; "
            "wedge cross-sections have non-axisymmetric spherical domains"
        )
    n = profile.n
    theta = profile.theta
    rho = profile.rho.copy()
    N = theta.size
    w = _weight(profile)
    coef = 0.25 * n * (n + 2.0)

    # linear wall extension of rho: overwrite the truncated boundary value
    if profile.domain.bc_lo == BLOWUP:
        slope = (rho[2] - rho[1]) / (theta[2] - theta[1])
        rho[0] = max(rho[1] - slope * (theta[1] - theta[0]), 0.0)
    if profile.domain.bc_hi == BLOWUP:
        slope = (rho[-3] - rho[-2]) / (theta[-3] - theta[-2])
        rho[-1] = max(rho[-2] - slope * (theta[-1] - theta[-2]), 0.0)

    h = np.diff(theta)
    mid = theta[:-1] + 0.5 * h
    flux = w(mid) / h  # interface conductances

    # per-half-cell mass and potential integrals (rho linear on each cell)
    def pot_half(a, b, ra, rb, ta, tb):
        def integrand(t):
            lam = (t - ta[..., None]) / (tb - ta)[..., None]
            rr = ra[..., None] * (1 - lam) + rb[..., None] * lam
            rr = np.maximum(rr, 1e-300)
            return w(t) * coef / rr**2

        return _gauss_cell(integrand, a, b)

    mass_half_lo = _gauss_cell(w, theta[:-1], mid)        # [theta_j, mid_j]
    mass_half_hi = _gauss_cell(w, mid, theta[1:])         # [mid_j, theta_j+1]
    pot_half_lo = pot_half(theta[:-1], mid, rho[:-1], rho[1:], theta[:-1], theta[1:])
    pot_half_hi = pot_half(mid, theta[1:], rho[:-1], rho[1:], theta[:-1], theta[1:])

    mass = np.zeros(N)
    mass[:-1] += mass_half_lo
    mass[1:] += mass_half_hi
    pot = np.zeros(N)
    pot[:-1] += pot_half_lo
    pot[1:] += pot_half_hi

    dirichlet = np.zeros(N, dtype=bool)
    if profile.domain.bc_lo == BLOWUP:
        dirichlet[0] = True
    if profile.domain.bc_hi == BLOWUP:
        dirichlet[-1] = True
    free = np.where(~dirichlet)[0]

    # conductance to the left and right neighbour, zero past either end; a
    # missing or Dirichlet neighbour gets no off-diagonal entry
    left = np.r_[0.0, flux]
    right = np.r_[flux, 0.0]
    diag = (pot + left + right)[free]
    sub = np.where(np.r_[False, ~dirichlet[:-1]], -left, 0.0)[free]
    sup = np.where(np.r_[~dirichlet[1:], False], -right, 0.0)[free]
    return free, sub, diag, sup, mass[free]


def _quadratic_form(sub, diag, sup, mass, x):
    ax = diag * x
    ax[:-1] += sup[:-1] * x[1:]
    ax[1:] += sub[1:] * x[:-1]
    return float(x @ ax), float(x @ (mass * x))


def first_eigenpair(profile, tol=1e-10, max_iter=200):
    """Smallest eigenpair by shifted inverse iteration on the banded form."""
    n = profile.n
    free, sub, diag, sup, mass = _assemble(profile)

    x = np.sqrt(mass)
    x /= np.sqrt(x @ (mass * x))
    num, den = _quadratic_form(sub, diag, sup, mass, x)
    lam = num / den
    shift = 0.0
    trace = [lam]
    nf = free.size
    for it in range(max_iter):
        ab = np.zeros((3, nf))
        ab[0, 1:] = sup[:-1]
        ab[1, :] = diag - shift * mass
        ab[2, :-1] = sub[1:]
        try:
            y = solve_banded((1, 1), ab, mass * x)
        except np.linalg.LinAlgError:
            shift *= 1.0 - 1e-8
            continue
        y /= np.sqrt(max(y @ (mass * y), 1e-300))
        num, den = _quadratic_form(sub, diag, sup, mass, y)
        lam_new = num / den
        delta = abs(lam_new - lam)
        x, lam = y, lam_new
        trace.append(lam)
        if delta < tol * max(1.0, abs(lam)):
            break
        if it >= 2:
            shift = lam  # Rayleigh acceleration once the iterate settles
    else:
        raise BlowlabError(
            f"inverse iteration stagnated; Rayleigh trace tail {trace[-5:]}"
        )
    if lam <= 0:
        raise BlowlabError(
            f"computed lambda1 = {lam:g} <= 0: potential assembly mis-signed"
        )

    if np.sum(x) < 0:
        x = -x
    if np.any(x <= 0):
        # ground state must be interior-positive; tiny negatives are noise
        if np.min(x) < -1e-8 * np.max(x):
            raise BlowlabError("first eigenfunction changed sign in the interior")
        x = np.maximum(x, 0.0)

    phi = np.zeros(profile.theta.size)
    phi[free] = x
    # scale so the full L^2(Sigma) norm (transverse sphere factored in) is 1
    area = _sphere_area(n - 2) if profile.domain.geometry == POLAR_SPHERE else 1.0
    _, den = _quadratic_form(sub, diag, sup, mass, x)
    phi /= np.sqrt(area * den)

    mu1 = float(np.sqrt((0.5 * (n - 2.0)) ** 2 + lam))
    if abs(mu1 - 2.0) <= MU_EQUAL_TWO_TOL:
        regime = "log"
    elif mu1 > 2.0:
        regime = "alpha-2"
    else:
        regime = "alpha-mu"
    nu_hat = _fit_decay_exponent(profile, phi)
    return EigenResult(
        profile=profile,
        lambda1=float(lam),
        phi=phi,
        mu1=mu1,
        regime=regime,
        nu_hat=nu_hat,
        iterations=len(trace),
    )


def _fit_decay_exponent(profile, phi, window=(1e-3, 1e-1)):
    """Least-squares slope of log phi against log rho in the wall window."""
    rho = profile.rho
    mask = (rho >= window[0]) & (rho <= window[1]) & (phi > 0)
    if np.count_nonzero(mask) < 4:
        return float("nan")
    coeffs = np.polyfit(np.log(rho[mask]), np.log(phi[mask]), 1)
    return float(coeffs[0])


def rayleigh(profile, phi):
    """Discrete Rayleigh quotient of a test function on the profile grid.

    The same graded-grid quadrature as the eigensolver assembly, so the
    eigenfunction reproduces lambda1 to rounding.  The test function must
    vanish at blow-up endpoints.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != profile.theta.shape:
        raise ConfigError("test function must live on the profile nodes")
    for idx, bc in ((0, profile.domain.bc_lo), (-1, profile.domain.bc_hi)):
        if bc == BLOWUP and abs(phi[idx]) > 0:
            raise DomainError("test function must vanish at blow-up endpoints")
    free, sub, diag, sup, mass = _assemble(profile)
    x = phi[free]
    num, den = _quadratic_form(sub, diag, sup, mass, x)
    if den <= 0:
        raise DomainError("zero-norm test function")
    return num / den


def regime_exponent(result):
    """Predicted bound form for the cone-approximation error."""
    mu1 = result.mu1
    if result.regime == "log":
        return RateForm("power-log", 2.0, "C(-|x|^2 ln|x|)")
    if result.regime == "alpha-2":
        return RateForm("power", 2.0, "C|x|^2")
    return RateForm("power", mu1, f"C|x|^{mu1:.6g}")
