"""Separated blow-up profiles g(theta) on 1-D spherical domains.

The reference solution on an infinite cone V over a spherical domain
Sigma separates as  u_V = r^(-(n-2)/2) g(theta), and for axisymmetric
Sigma the angular factor solves a singular two-point problem

    polar-sphere:  g'' + (n-2) cot(theta) g' - ((n-2)/2)^2 g = n(n-2)/4 g^p
    circle-arc:    g''                     + ((n-2)/2)^2 g = n(n-2)/4 g^p

with p = (n+2)/(n-2), g = +infinity on the blow-up part of the boundary
and even symmetry at a regular pole.  The circle-arc form is the
cross-section factor of a planar wedge times R^(n-2); separating
u = |x'|^(-(n-2)/2) g(theta) in polar coordinates of the wedge plane
flips the sign of the zeroth-order term (the radial part contributes
m(m+2-k) g with k = 2 instead of k = n).

The infinite boundary value is approximated by Dirichlet truncation
g = M with M escalated geometrically until the interior stops moving;
by the comparison principle the truncated profiles increase monotonically
in M, and Newton from a supersolution start descends monotonically.  The
damped Newton and the escalation are the shared core of `blowlab.newton`;
this module supplies the pentadiagonal truncated problem (`BandedProblem`),
which the radial ball solve of `blowlab.solver` reuses.

The weight rho = g^(-2/(n-2)) is comparable to the arc distance to the
blow-up boundary and is the coefficient the spectral module consumes.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from .errors import ConfigError, DomainError
from .newton import escalate

__all__ = [
    "SphericalDomain1D",
    "GridSpec",
    "BlowupProfile",
    "graded_nodes",
    "nonuniform_d1",
    "nonuniform_d2",
    "solve_profile",
    "cone_solution",
    "check_rho_bounds",
    "profile_to_csv",
    "profile_from_csv",
]

POLAR_SPHERE = "polar-sphere"
CIRCLE_ARC = "circle-arc"
BLOWUP = "blowup"
REGULAR_POLE = "regular-pole"


@dataclass(frozen=True)
class SphericalDomain1D:
    """Axisymmetric spherical interval with per-endpoint conditions."""

    geometry: str
    theta_lo: float
    theta_hi: float
    bc_lo: str = BLOWUP
    bc_hi: str = BLOWUP
    label: str = ""

    def __post_init__(self):
        if self.geometry not in (POLAR_SPHERE, CIRCLE_ARC):
            raise ConfigError(f"unknown geometry tag {self.geometry!r}")
        if not self.theta_lo < self.theta_hi:
            raise ConfigError("need theta_lo < theta_hi")
        if self.geometry == POLAR_SPHERE:
            if self.theta_lo < 0.0 or self.theta_hi > np.pi:
                raise ConfigError("polar-sphere interval must lie in [0, pi]")
        else:
            if self.theta_hi - self.theta_lo >= 2.0 * np.pi:
                raise ConfigError("circle-arc opening must be below 2*pi")
        for bc, endpoint in ((self.bc_lo, self.theta_lo), (self.bc_hi, self.theta_hi)):
            if bc not in (BLOWUP, REGULAR_POLE):
                raise ConfigError(f"unknown endpoint condition {bc!r}")
            if bc == REGULAR_POLE:
                if self.geometry != POLAR_SPHERE:
                    raise ConfigError("regular-pole only exists on polar-sphere geometry")
                if not (abs(endpoint) < 1e-14 or abs(endpoint - np.pi) < 1e-14):
                    raise ConfigError("regular-pole must sit at theta = 0 or theta = pi")
        if self.bc_lo != BLOWUP and self.bc_hi != BLOWUP:
            raise ConfigError("at least one endpoint must blow up")

    @property
    def blowup_ends(self):
        ends = []
        if self.bc_lo == BLOWUP:
            ends.append(self.theta_lo)
        if self.bc_hi == BLOWUP:
            ends.append(self.theta_hi)
        return ends

    def wall_distance(self, theta):
        """Arc distance to the blow-up part of the boundary."""
        theta = np.asarray(theta, dtype=float)
        dists = [np.abs(theta - end) for end in self.blowup_ends]
        return dists[0] if len(dists) == 1 else np.minimum(*dists)

    def as_dict(self):
        return {
            "geometry": self.geometry,
            "theta_lo": self.theta_lo,
            "theta_hi": self.theta_hi,
            "bc_lo": self.bc_lo,
            "bc_hi": self.bc_hi,
            "label": self.label,
        }


@dataclass(frozen=True)
class GridSpec:
    """Node count and power-map grading exponent toward blow-up ends."""

    count: int = 800
    grading: float = 1.5

    def __post_init__(self):
        if self.count < 200:
            raise ConfigError("need at least 200 nodes on a profile grid")
        if self.grading < 1.0:
            raise ConfigError("grading exponent must be >= 1")


def graded_nodes(domain, count, grading):
    """Nodes on [theta_lo, theta_hi] clustered toward blow-up endpoints.

    The map pulls a uniform parameter s through a power law so the
    distance of node j to the nearest blow-up endpoint behaves like
    s^grading; regular poles get no clustering.
    """
    s = np.linspace(0.0, 1.0, count)
    lo_blow = domain.bc_lo == BLOWUP
    hi_blow = domain.bc_hi == BLOWUP
    b = float(grading)
    if lo_blow and hi_blow:
        frac = s**b / (s**b + (1.0 - s) ** b)
    elif hi_blow:
        frac = 1.0 - (1.0 - s) ** b
    else:
        frac = s**b
    theta = domain.theta_lo + (domain.theta_hi - domain.theta_lo) * frac
    theta[0] = domain.theta_lo
    theta[-1] = domain.theta_hi
    return theta


def nonuniform_d1(theta):
    """Rows (sub, diag, super) of the 3-point first-derivative stencil."""
    h_l = theta[1:-1] - theta[:-2]
    h_r = theta[2:] - theta[1:-1]
    sub = -h_r / (h_l * (h_l + h_r))
    diag = (h_r - h_l) / (h_l * h_r)
    sup = h_l / (h_r * (h_l + h_r))
    return sub, diag, sup


def nonuniform_d2(theta):
    """Rows (sub, diag, super) of the 3-point second-derivative stencil."""
    h_l = theta[1:-1] - theta[:-2]
    h_r = theta[2:] - theta[1:-1]
    sub = 2.0 / (h_l * (h_l + h_r))
    sup = 2.0 / (h_r * (h_l + h_r))
    diag = -(sub + sup)
    return sub, diag, sup


def one_sided_d1(x0, x1, x2):
    """Second-order one-sided first-derivative weights at x0."""
    h1 = x1 - x0
    h2 = x2 - x0
    w0 = -(h1 + h2) / (h1 * h2)
    w1 = h2 / (h1 * (h2 - h1))
    w2 = -h1 / (h2 * (h2 - h1))
    return w0, w1, w2


def _fd_derivative_arrays(theta, g):
    """Nodewise first/second derivatives by the 3-point stencils."""
    dg = np.empty_like(g)
    d2g = np.empty_like(g)
    sub1, diag1, sup1 = nonuniform_d1(theta)
    sub2, diag2, sup2 = nonuniform_d2(theta)
    dg[1:-1] = sub1 * g[:-2] + diag1 * g[1:-1] + sup1 * g[2:]
    d2g[1:-1] = sub2 * g[:-2] + diag2 * g[1:-1] + sup2 * g[2:]
    for idx, sgn in ((0, 1), (-1, -1)):
        pts = (theta[idx], theta[idx + sgn], theta[idx + 2 * sgn])
        w0, w1, w2 = one_sided_d1(*pts)
        dg[idx] = w0 * g[idx] + w1 * g[idx + sgn] + w2 * g[idx + 2 * sgn]
        d2g[idx] = d2g[idx + sgn]
    return dg, d2g


@dataclass
class BlowupProfile:
    """Converged truncated profile with derived weight rho."""

    domain: SphericalDomain1D
    n: int
    theta: np.ndarray
    g: np.ndarray
    truncation: float
    newton_residual: float
    m_history: list = field(default_factory=list)
    rho: np.ndarray = None
    dg: np.ndarray = None
    d2g: np.ndarray = None
    _spline: CubicSpline = None

    def __post_init__(self):
        if np.any(self.g <= 0.0):
            raise DomainError("profile values must stay positive")
        if self.rho is None:
            self.rho = self.g ** (-2.0 / (self.n - 2))
        if self._spline is None:
            # spline over interior nodes only: the Dirichlet value M at a
            # blow-up endpoint is a truncation artifact and would ring
            # through a global cubic fit
            mask = self.interior_mask()
            self._spline = CubicSpline(self.theta[mask], self.g[mask])
        if self.dg is None or self.d2g is None:
            self.dg, self.d2g = _fd_derivative_arrays(self.theta, self.g)

    @property
    def exponent(self):
        return 0.5 * (self.n - 2)

    def wall_distance(self):
        return self.domain.wall_distance(self.theta)

    def interior_mask(self):
        mask = np.ones(self.theta.size, dtype=bool)
        if self.domain.bc_lo == BLOWUP:
            mask[0] = False
        if self.domain.bc_hi == BLOWUP:
            mask[-1] = False
        return mask

    def pde_residual(self):
        """Interior residual evaluated with spline derivatives.

        Independent of the solver stencil, so it measures consistency of
        the converged grid function rather than Newton's own residual.
        """
        n = self.n
        p = (n + 2.0) / (n - 2.0)
        lin = -0.25 * (n - 2.0) ** 2
        res = self.d2g + lin * self.g - 0.25 * n * (n - 2.0) * self.g**p
        if self.domain.geometry == POLAR_SPHERE:
            with np.errstate(divide="ignore", invalid="ignore"):
                cot = np.where(np.abs(np.sin(self.theta)) > 1e-300,
                               np.cos(self.theta) / np.sin(self.theta), 0.0)
            res = res + (n - 2.0) * cot * self.dg
        else:
            res = res + 0.5 * (n - 2.0) ** 2 * self.g  # flip sign: +m^2 g
        return res

    def scaled_residual_norm(self):
        d = self.wall_distance()
        mask = self.interior_mask()
        mask[0] = mask[-1] = False  # endpoint rows carry BC, not the PDE
        power = 0.5 * (self.n + 2.0) + 2.0
        return float(np.max(np.abs(self.pde_residual()[mask]) * d[mask] ** power))


class BandedProblem:
    """Truncated problem  a2 g'' + a1 g' + a0 g = n(n-2)/4 g^p  on 1-D nodes.

    The separated profile (nodes theta) and the radial ball solve (nodes
    r) share it; `d` is the distance to the blow-up ends and `span` the
    length of the interval.  Interior rows carry the 3-point stencils; a
    regular pole contributes a one-sided 3-point derivative row, which is
    why two off-diagonals are kept on each side.  Blow-up ends get plain
    Dirichlet rows.  Rows are rescaled to O(1) before the norm test: the
    clustered cells near a blow-up end carry 1/h^2 ~ 1e17 stencil weights
    whose rounding noise would otherwise dominate any residual criterion.
    `solve_banded` factorizes on every call, so a kept Jacobian saves
    nothing and Newton takes a fresh one at every step.
    """

    reuse_factor = False

    def __init__(self, x, a2, a1, a0, bc_lo, bc_hi, n, d, span, name):
        N = x.size
        self.name = name
        self.p = (n + 2.0) / (n - 2.0)
        self.coef = 0.25 * n * (n - 2.0)
        sub2, diag2, sup2 = nonuniform_d2(x)
        sub1, diag1, sup1 = nonuniform_d1(x)
        # lo/hi: second sub/superdiagonal, a/c: first, b: diagonal
        lo, a, b, c, hi = (np.zeros(N) for _ in range(5))
        a[1:-1] = a2 * sub2 + a1 * sub1
        b[1:-1] = a2 * diag2 + a1 * diag1 + a0
        c[1:-1] = a2 * sup2 + a1 * sup1
        if bc_lo == BLOWUP:
            b[0] = 1.0
        else:
            b[0], c[0], hi[0] = one_sided_d1(x[0], x[1], x[2])
        if bc_hi == BLOWUP:
            b[-1] = 1.0
        else:
            b[-1], a[-1], lo[-1] = one_sided_d1(x[-1], x[-2], x[-3])
        self.row_scale = 1.0 / (1.0 + np.abs(lo) + np.abs(a) + np.abs(b)
                                + np.abs(c) + np.abs(hi))
        self.lo, self.a, self.b, self.c, self.hi = (
            v * self.row_scale for v in (lo, a, b, c, hi))

        self.fixed = np.zeros(N, dtype=bool)
        self.fixed[0] = bc_lo == BLOWUP
        self.fixed[-1] = bc_hi == BLOWUP
        self.interior = np.ones(N, dtype=bool)
        self.interior[0] = self.interior[-1] = False
        self.band = self.interior & (d >= 0.02 * span)
        # probes of the resolvability cap, a few cells inside each wall
        self.probes = [k for k, end in ((4, 0), (-5, -1))
                       if self.fixed[end] and N > 4]
        m = 0.5 * (n - 2.0)
        with np.errstate(divide="ignore"):
            self.start = 2.0**m * np.where(d > 0, d, np.inf) ** (-m)

    def dirichlet(self, M):
        return np.where(self.fixed, M, 0.0)

    def warm_start(self, g, M):
        return np.maximum(np.minimum(self.start if g is None else g, M), 1e-10)

    def residual(self, g, data):
        interior, fixed = self.interior, self.fixed
        r = self.b * g
        r[1:] += self.a[1:] * g[:-1]
        r[:-1] += self.c[:-1] * g[1:]
        r[2:] += self.lo[2:] * g[:-2]
        r[:-2] += self.hi[:-2] * g[2:]
        r[interior] -= self.row_scale[interior] * self.coef * g[interior] ** self.p
        r[fixed] = self.row_scale[fixed] * (g[fixed] - data[fixed])
        return r

    def scale(self, g):
        interior = self.interior
        return np.linalg.norm(
            self.row_scale[interior] * self.coef * g[interior] ** self.p) + 1.0

    def factor(self, g):
        interior = self.interior
        jac_diag = self.b.copy()
        jac_diag[interior] -= (self.row_scale[interior] * self.coef * self.p
                               * g[interior] ** (self.p - 1.0))
        ab = np.zeros((5, g.size))
        ab[0, 2:] = self.hi[:-2]
        ab[1, 1:] = self.c[:-1]
        ab[2, :] = jac_diag
        ab[3, :-1] = self.a[1:]
        ab[4, :-2] = self.lo[2:]
        return lambda rhs: solve_banded((2, 2), ab, rhs)

    def cap_reached(self, g, M):
        """True when the truncation layer has receded into the last few cells.

        On a fixed mesh the M -> infinity limit does not exist nodewise:
        once the level exceeds the profile value a few cells inside the
        wall, the layer where g ~ M is sub-grid and further escalation only
        inflates the wall-adjacent cells.  Stopping here is where the
        truncated grid function is closest to the untruncated profile.
        The factor 2: while the layer still covers the probe cells their
        values ride just below M, so demand a clear gap.
        """
        return bool(self.probes) and M >= 2.0 * max(g[k] for k in self.probes)


def solve_profile(domain, n, schedule=None, grid=None, nodes=None,
                  interior_tol=1e-8, max_levels=80):
    """Solve the separated profile by truncation escalation.

    `schedule` seeds the increasing truncation levels (default starts at
    1e2); after the explicit levels are exhausted, M keeps doubling until
    the interior (wall buffer excluded) stops moving at `interior_tol`
    relative, or until the mesh can no longer resolve the layer where the
    profile reaches M (`blowlab.newton.escalate`).  `nodes` overrides the
    graded grid with explicit theta nodes (used to match a 2-D solver's
    angular grid exactly).
    """
    if n < 3:
        raise ConfigError("dimension must satisfy n >= 3")
    grid = grid or GridSpec()
    if nodes is None:
        theta = graded_nodes(domain, grid.count, grid.grading)
    else:
        theta = np.asarray(nodes, dtype=float)
        if theta.size < 3 or np.any(np.diff(theta) <= 0):
            raise ConfigError("explicit nodes must be strictly increasing")
    if schedule is None:
        schedule = [1e2]
    schedule = [float(M) for M in schedule]
    if any(m2 <= m1 for m1, m2 in zip(schedule, schedule[1:])):
        raise ConfigError("truncation schedule must be strictly increasing")

    if domain.geometry == POLAR_SPHERE:
        drift = (n - 2.0) * (np.cos(theta[1:-1]) / np.sin(theta[1:-1]))
        zero_order = -0.25 * (n - 2.0) ** 2
    else:
        drift = np.zeros(theta.size - 2)
        zero_order = +0.25 * (n - 2.0) ** 2
    problem = BandedProblem(
        theta, 1.0, drift, zero_order, domain.bc_lo, domain.bc_hi, n,
        domain.wall_distance(theta), domain.theta_hi - domain.theta_lo,
        "profile")
    g, m_history, residual = escalate(
        problem, schedule, tol=1e-10, growth=2.0, interior_tol=interior_tol,
        max_levels=max_levels)

    return BlowupProfile(
        domain=domain,
        n=n,
        theta=theta,
        g=g,
        truncation=m_history[-1],
        newton_residual=residual,
        m_history=m_history,
    )


def cone_solution(profile, r, theta):
    """Evaluate u_V(r, theta) = r^(-(n-2)/2) g(theta) by cubic spline."""
    r = np.asarray(r, dtype=float)
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(r <= 0):
        raise DomainError("radius must be positive")
    dom = profile.domain
    th = profile.theta
    lo_guard = th[1] if dom.bc_lo == BLOWUP else th[0]
    hi_guard = th[-2] if dom.bc_hi == BLOWUP else th[-1]
    if np.any(theta_arr < lo_guard - 1e-14) or np.any(theta_arr > hi_guard + 1e-14):
        raise DomainError(
            "theta within one cell of a blow-up endpoint; spline unreliable there"
        )
    vals = r ** (-profile.exponent) * profile._spline(theta_arr)
    return float(vals) if np.isscalar(theta) and vals.ndim == 0 else vals


def check_rho_bounds(profile, wall_band=0.2):
    """Min/max of rho over arc-distance on nodes near the blow-up boundary."""
    d = profile.wall_distance()
    mask = profile.interior_mask() & (d <= wall_band) & (d > 0)
    if not np.any(mask):
        raise DomainError("no interior nodes within the wall band")
    ratio = profile.rho[mask] / d[mask]
    c1, c2 = float(np.min(ratio)), float(np.max(ratio))
    from .errors import BoundFailureError

    if not (1e-6 < c1 and c2 < 1e6):
        raise BoundFailureError(
            f"rho/d ratio out of certified range: [{c1:.3e}, {c2:.3e}]"
        )
    return c1, c2


def profile_to_csv(profile, path):
    meta = {
        "n": profile.n,
        "domain": profile.domain.as_dict(),
        "truncation": profile.truncation,
        "newton_residual": profile.newton_residual,
    }
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write("theta,g,rho\n")
        for th, g, rho in zip(profile.theta, profile.g, profile.rho):
            fh.write(f"{th:.17g},{g:.17g},{rho:.17g}\n")


def profile_from_csv(path):
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("# "):
            raise ConfigError(f"{path}: missing metadata header")
        meta = json.loads(header[2:])
        body = fh.read()
    data = np.loadtxt(io.StringIO(body), delimiter=",", skiprows=1)
    domain = SphericalDomain1D(**meta["domain"])
    return BlowupProfile(
        domain=domain,
        n=int(meta["n"]),
        theta=data[:, 0],
        g=data[:, 1],
        truncation=float(meta["truncation"]),
        newton_residual=float(meta["newton_residual"]),
    )
