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
The mass and potential of each half cell come from one set of Gauss
points, and A is symmetric: one off-diagonal serves both sides.

The smallest eigenpair is solved directly, in the mass-scaled variable
v = M^(1/2) phi: T = M^(-1/2) A M^(-1/2) is symmetric tridiagonal, and
LAPACK bisection with inverse iteration (`stebz`, `stein`) returns its
lowest eigenpair.  Bisection keeps high relative accuracy on graded
tridiagonals like this one (Barlow & Demmel, SIAM J. Numer. Anal. 27,
1990), so phi stays well determined at a regular pole, where the masses
vanish like theta^(n-2).

The derived index mu1 = sqrt(((n-2)/2)^2 + lambda1) drives the decay
regime of cone-solution perturbations: quadratic for mu1 > 2, quadratic
with a logarithm at mu1 = 2, and |x|^mu1 below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowlabError, ConfigError, DomainError
from .profiles import POLAR_SPHERE, BlowupProfile

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
    iterations: int            # eigensolver calls: one direct solve

    @property
    def n(self):
        return self.profile.n


def _weight(profile):
    """Measure weight sin^(n-2) of the polar sphere, the only assembled geometry."""
    return lambda th: np.sin(th) ** (profile.n - 2)


def _sphere_area(k):
    """Surface measure of S^k."""
    from math import gamma, pi

    return 2.0 * pi ** ((k + 1) / 2.0) / gamma((k + 1) / 2.0)


def _assemble(profile):
    """FV matrices (A tridiagonal, M diagonal) on the free (non-Dirichlet) nodes.

    Returns (free_idx, off, diag, mass): A has `diag` on its diagonal and
    the symmetric `off` on both off-diagonals.
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
    interior = profile.interior_mask()

    # linear wall extension of rho: overwrite the truncated boundary value
    if not interior[0]:
        slope = (rho[2] - rho[1]) / (theta[2] - theta[1])
        rho[0] = max(rho[1] - slope * (theta[1] - theta[0]), 0.0)
    if not interior[-1]:
        slope = (rho[-3] - rho[-2]) / (theta[-3] - theta[-2])
        rho[-1] = max(rho[-2] + slope * (theta[-1] - theta[-2]), 0.0)

    h = np.diff(theta)
    mid = theta[:-1] + 0.5 * h
    flux = w(mid) / h  # interface conductances

    # mass and potential of the half cells [theta_j, mid_j] and
    # [mid_j, theta_j+1], rho linear on each cell, from one set of
    # 4-point Gauss-Legendre points
    gx, gw = np.polynomial.legendre.leggauss(4)
    a = np.stack([theta[:-1], mid])
    b = np.stack([mid, theta[1:]])
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    t = centre[..., None] + half[..., None] * gx
    lam = (t - theta[:-1, None]) / h[:, None]
    rr = np.maximum(rho[:-1, None] * (1 - lam) + rho[1:, None] * lam, 1e-300)
    wt = w(t)
    mass_half = half * np.sum(wt * gw, axis=-1)
    pot_half = half * np.sum(wt * coef / rr**2 * gw, axis=-1)

    mass = np.zeros(N)
    mass[:-1] += mass_half[0]
    mass[1:] += mass_half[1]
    pot = np.zeros(N)
    pot[:-1] += pot_half[0]
    pot[1:] += pot_half[1]

    # only the end nodes can be Dirichlet, so the free nodes are contiguous;
    # a Dirichlet neighbour still adds its conductance to the diagonal
    free = np.flatnonzero(interior)
    diag = (pot + np.r_[0.0, flux] + np.r_[flux, 0.0])[free]
    return free, -flux[free[:-1]], diag, mass[free]


def _quadratic_form(off, diag, mass, x):
    ax = diag * x
    ax[:-1] += off * x[1:]
    ax[1:] += off * x[:-1]
    return float(x @ ax), float(x @ (mass * x))


def first_eigenpair(profile):
    """Smallest eigenpair of A phi = lambda M phi, by one direct solve.

    In the mass-scaled variable v = M^(1/2) phi the pencil is the symmetric
    tridiagonal T = S A S with S = M^(-1/2).  LAPACK bisection (`stebz`, to
    an absolute tolerance of twice the smallest normal number) and inverse
    iteration (`stein`) give its lowest eigenpair, and phi = S v.  `iterations`
    counts that one solve, so it is 1.
    """
    from scipy.linalg import eigh_tridiagonal

    n = profile.n
    free, off, diag, mass = _assemble(profile)
    s = 1.0 / np.sqrt(mass)
    (lam,), v = eigh_tridiagonal(diag * s**2, off * s[:-1] * s[1:], select="i",
                                 select_range=(0, 0),
                                 tol=2.0 * np.finfo(float).tiny)
    lam = float(lam)
    if lam <= 0:
        raise BlowlabError(
            f"computed lambda1 = {lam:g} <= 0: potential assembly mis-signed"
        )

    x = s * v[:, 0]
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
    phi /= np.sqrt(_sphere_area(n - 2) * (x @ (mass * x)))

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
        lambda1=lam,
        phi=phi,
        mu1=mu1,
        regime=regime,
        nu_hat=nu_hat,
        iterations=1,
    )


def _fit_decay_exponent(profile, phi):
    """Least-squares slope of log phi against log rho, 1e-3 <= rho <= 0.1."""
    rho = profile.rho
    mask = (rho >= 1e-3) & (rho <= 1e-1) & (phi > 0)
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
    if np.any(np.abs(phi[~profile.interior_mask()]) > 0):
        raise DomainError("test function must vanish at blow-up endpoints")
    free, off, diag, mass = _assemble(profile)
    x = phi[free]
    num, den = _quadratic_form(off, diag, mass, x)
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
