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

The smallest eigenpair is solved in the mass-scaled variable
v = M^(1/2) phi, where T = M^(-1/2) A M^(-1/2) is symmetric tridiagonal:
a few inverse iterations at shift 0, then Rayleigh-quotient iteration,
each step one tridiagonal LU solve (`first_eigenpair`).  The quotient is
summed as the form's energy, a sum of terms >= 0, so lambda1 carries no
cancellation from the 1/h^2 entries of A and stays within a few units of
rounding of the discrete form's; the tridiagonal itself loses ~1e-11
of it to cancellation.  The masses vanish like theta^(n-2) at a regular
pole, which grades T; phi is taken from the solve at the converged
shift, so it is converged there too.

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
# the decay regimes, for mu1 > 2, mu1 = 2 and mu1 < 2 (module docstring)
ALPHA_2, LOG, ALPHA_MU = "alpha-2", "log", "alpha-mu"
INVERSE_STEPS = 3         # shift-0 inverse iterations before the Rayleigh steps
MAX_RAYLEIGH_STEPS = 8
STAGNATION = 1e-12        # relative move of the quotient that ends the steps


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

    exponent: float
    description: str


@dataclass
class EigenResult:
    profile: BlowupProfile
    lambda1: float
    phi: np.ndarray            # on the profile nodes, zero at blow-up ends
    mu1: float
    nu_hat: float
    iterations: int            # tridiagonal solves of the eigensolve

    @property
    def n(self):
        return self.profile.n

    @property
    def regime(self):
        return decay_regime(self.mu1)


def decay_regime(mu1):
    """The decay regime of mu1: LOG within MU_EQUAL_TWO_TOL of 2, else
    ALPHA_2 above 2 and ALPHA_MU below."""
    if abs(mu1 - 2.0) <= MU_EQUAL_TWO_TOL:
        return LOG
    return ALPHA_2 if mu1 > 2.0 else ALPHA_MU


def _sphere_area(k):
    """Surface measure of S^k."""
    from math import gamma, pi

    return 2.0 * pi ** ((k + 1) / 2.0) / gamma((k + 1) / 2.0)


def _form(profile):
    """The FV form's pieces on all nodes: (free, flux, pot, mass).

    `free` indexes the non-Dirichlet nodes, `flux` holds the interface
    conductances of the cells, and `pot` and `mass` the potential and mass
    integrals of each node's cell.
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
    # interface conductances; sin^(n-2) is the polar sphere's measure weight
    flux = np.sin(mid) ** (n - 2) / h

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
    wt = np.sin(t) ** (n - 2)
    mass_half = half * np.sum(wt * gw, axis=-1)
    pot_half = half * np.sum(wt * coef / rr**2 * gw, axis=-1)

    mass = np.zeros(N)
    mass[:-1] += mass_half[0]
    mass[1:] += mass_half[1]
    pot = np.zeros(N)
    pot[:-1] += pot_half[0]
    pot[1:] += pot_half[1]
    return np.flatnonzero(interior), flux, pot, mass


def _tridiagonal(free, flux, pot, mass):
    """(off, diag, mass) of A and M on the free nodes: A has `diag` on its
    diagonal and the symmetric `off` on both off-diagonals."""
    # only the end nodes can be Dirichlet, so the free nodes are contiguous;
    # a Dirichlet neighbour still adds its conductance to the diagonal
    diag = (pot + np.r_[0.0, flux] + np.r_[flux, 0.0])[free]
    return -flux[free[:-1]], diag, mass[free]


def _assemble(profile):
    """FV matrices (A tridiagonal, M diagonal) on the free (non-Dirichlet) nodes.

    Returns (free_idx, off, diag, mass), as `_tridiagonal` sets them out.
    """
    free, *pieces = _form(profile)
    return (free, *_tridiagonal(free, *pieces))


def _quotient(flux, pot, mass, x):
    """x.A x / x.M x for x on all nodes, zero on the Dirichlet ones.

    The numerator is summed as the form's energy, flux times the squared
    jump over each cell plus the potential, whose terms are all >= 0; the
    same number from `diag` and `off` cancels terms up to ~N^2 times
    larger, which costs ~1e-11 of it in rounding.
    """
    return float((flux @ np.diff(x) ** 2 + pot @ x**2) / (mass @ x**2))


def first_eigenpair(profile):
    """Smallest eigenpair of A phi = lambda M phi, by Rayleigh-quotient iteration.

    In the mass-scaled variable v = M^(1/2) phi the pencil is the symmetric
    tridiagonal T = S A S with S = M^(-1/2).  Its Cholesky-type factors
    (LAPACK `dpttrf`) exist exactly when T is positive definite, i.e.
    lambda1 > 0.  INVERSE_STEPS inverse iterations at shift 0 from a
    positive vector come first; Rayleigh-quotient iteration (Parlett, *The
    Symmetric Eigenvalue Problem*, sec. 4.6) then solves (T - sigma) w = v
    at the quotient sigma of v, by a pivoted tridiagonal LU (`dgttrf`,
    `dgttrs`), and converges cubically.  It stops once the quotient moves by
    at most STAGNATION relative; phi is the vector of the solve at that
    converged shift, not the one the quotient was last taken of, since the
    quotient converges faster than the vector.  The off-diagonals of T are
    negative, so its ground state is the one eigenvector of one sign
    (Perron-Frobenius), and the sign check below proves the pair the first.
    `iterations` counts the tridiagonal solves.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs

    n = profile.n
    free, flux, pot, full_mass = _form(profile)
    off, diag, mass = _tridiagonal(free, flux, pot, full_mass)
    s = 1.0 / np.sqrt(mass)
    d, e = diag * s**2, off * s[:-1] * s[1:]
    ldl_d, ldl_e, info = dpttrf(d, e)
    if info != 0:
        raise BlowlabError(
            "computed lambda1 <= 0 (T = S A S is not positive definite): "
            "potential assembly mis-signed"
        )
    phi = np.zeros(profile.theta.size)

    def quotient(v):
        phi[free] = s * v
        return _quotient(flux, pot, full_mass, phi)

    v = np.ones(d.size)
    for _ in range(INVERSE_STEPS):
        v = dpttrs(ldl_d, ldl_e, v)[0]
        v /= np.linalg.norm(v)
    lam, solves = quotient(v), INVERSE_STEPS
    for _ in range(MAX_RAYLEIGH_STEPS):
        *lu, _ = dgttrf(e, d - lam, e)
        v = dgttrs(*lu, v)[0]
        v /= np.linalg.norm(v)
        shift, lam = lam, quotient(v)
        solves += 1
        if abs(lam - shift) <= STAGNATION * shift:
            break
    else:
        raise BlowlabError(f"Rayleigh-quotient iteration did not settle in "
                           f"{MAX_RAYLEIGH_STEPS} steps (lambda1 ~ {lam:g})")

    x = s * v
    if np.sum(x) < 0:
        x = -x
    if np.any(x <= 0):
        # ground state must be interior-positive; tiny negatives are noise
        if np.min(x) < -1e-8 * np.max(x):
            raise BlowlabError("first eigenfunction changed sign in the interior")
        x = np.maximum(x, 0.0)

    phi[free] = x
    # scale so the full L^2(Sigma) norm (transverse sphere factored in) is 1
    phi /= np.sqrt(_sphere_area(n - 2) * (x @ (mass * x)))

    return EigenResult(
        profile=profile,
        lambda1=lam,
        phi=phi,
        mu1=float(np.sqrt((0.5 * (n - 2.0)) ** 2 + lam)),
        nu_hat=_fit_decay_exponent(profile, phi),
        iterations=solves,
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
    _, flux, pot, mass = _form(profile)
    if not mass @ phi**2 > 0:
        raise DomainError("zero-norm test function")
    return _quotient(flux, pot, mass, phi)


def regime_exponent(result):
    """Predicted bound form for the cone-approximation error, from the
    `mu1` of `result` (an `EigenResult`, or anything with a `mu1`)."""
    mu1 = result.mu1
    regime = decay_regime(mu1)
    if regime == LOG:
        return RateForm(2.0, "C(-|x|^2 ln|x|)")
    if regime == ALPHA_2:
        return RateForm(2.0, "C|x|^2")
    return RateForm(mu1, f"C|x|^{mu1:.6g}")
