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
g = M; by the comparison principle the truncated profiles increase
monotonically in M below the supersolution start, from which Newton
descends monotonically.  The damped Newton and the search for the level
to report are the shared core of `blowlab.newton`; this module supplies
the truncated problem (`BandedProblem`), tridiagonal apart from one entry
in a regular-pole row and factored by a tridiagonal LU, which the radial
ball solve of `blowlab.solver` reuses.

The weight rho = g^(-2/(n-2)) is comparable to the arc distance to the
blow-up boundary and is the coefficient the spectral module consumes.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (BoundFailureError, ConfigError, DomainError,
                     MissingArtifactError, NewtonError)
from .newton import check_schedule, check_tolerance, escalate
from .reports import read_csv, write_csv

__all__ = [
    "SphericalDomain1D",
    "GridSpec",
    "BlowupProfile",
    "graded_nodes",
    "power_law_nodes",
    "derivative_arrays",
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

# truncation levels a profile solve runs at most, unless told fewer
MAX_LEVELS = 80


@dataclass(frozen=True)
class SphericalDomain1D:
    """Axisymmetric spherical interval with per-endpoint conditions."""

    geometry: str
    theta_lo: float
    theta_hi: float
    bc_lo: str = BLOWUP
    bc_hi: str = BLOWUP
    label: str = ""

    @classmethod
    def polar_cap(cls, aperture):
        """The cap 0 <= theta <= aperture: a regular pole, a blow-up rim."""
        return cls(POLAR_SPHERE, 0.0, aperture, bc_lo=REGULAR_POLE,
                   bc_hi=BLOWUP)

    @classmethod
    def arc(cls, opening):
        """The arc 0 <= theta <= opening, blowing up at both ends."""
        return cls(CIRCLE_ARC, 0.0, opening)

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
        return [end for bc, end in ((self.bc_lo, self.theta_lo),
                                    (self.bc_hi, self.theta_hi)) if bc == BLOWUP]

    def wall_distance(self, theta):
        """Arc distance to the blow-up part of the boundary."""
        theta = np.asarray(theta, dtype=float)
        dists = [np.abs(theta - end) for end in self.blowup_ends]
        return dists[0] if len(dists) == 1 else np.minimum(*dists)

    def as_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class GridSpec:
    """Node count and power-map grading exponent toward blow-up ends."""

    count: int = 800
    grading: float = 1.5

    def __post_init__(self):
        if not isinstance(self.count, (int, np.integer)) or self.count < 200:
            raise ConfigError(f"need an integer count of at least 200 nodes "
                              f"on a profile grid, got {self.count!r}")
        # a negated range test, so that NaN is rejected too
        if not 1.0 <= self.grading < np.inf:
            raise ConfigError(f"grading exponent must be finite and >= 1, "
                              f"got {self.grading}")


def power_law_nodes(lo, hi, count, grading, lo_blow, hi_blow):
    """Nodes on [lo, hi] clustered toward the blow-up endpoints.

    The map pulls a uniform parameter s through a power law so the
    distance of node j to the nearest blow-up endpoint behaves like
    s^grading; an end that does not blow up gets no clustering.  The
    profile grids, the 2-D solver's eta nodes and its ball radii all
    come from here.  Raises DomainError on a collapsed mesh, before any
    solver forms a stencil weight: the nodes must strictly increase and
    give finite 3-point weights.
    """
    s = np.linspace(0.0, 1.0, count)
    b = float(grading)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if lo_blow and hi_blow:
            frac = s**b / (s**b + (1.0 - s) ** b)
        elif hi_blow:
            frac = 1.0 - (1.0 - s) ** b
        else:
            frac = s**b
        x = lo + (hi - lo) * frac
        x[0], x[-1] = lo, hi
        ok = np.all(np.diff(x) > 0) and all(
            np.isfinite(w).all() for w in nonuniform_d1(x) + nonuniform_d2(x))
    if not ok:
        raise DomainError(f"the mesh on [{lo:g}, {hi:g}] has collapsed: nodes "
                          f"must strictly increase and give finite 3-point "
                          f"weights")
    return x


def graded_nodes(domain, count, grading):
    """Nodes on [theta_lo, theta_hi] clustered toward blow-up endpoints."""
    return power_law_nodes(domain.theta_lo, domain.theta_hi, count, grading,
                           domain.bc_lo == BLOWUP, domain.bc_hi == BLOWUP)


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


def supersolution_start(d, n):
    """The supersolution start (2/d)^m, m = (n-2)/2, at distance d from the
    blow-up boundary, and 0 where d = 0; the truncation search starts its
    first level from it (`blowlab.newton`)."""
    m = 0.5 * (n - 2.0)
    with np.errstate(divide="ignore"):
        return 2.0**m * np.where(d > 0, d, np.inf) ** (-m)


def guarded_cot(theta):
    """cot(theta), and 0 where |sin(theta)| <= 1e-300: a regular pole, whose
    row the one-sided derivative replaces."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(np.sin(theta)) > 1e-300,
                        np.cos(theta) / np.sin(theta), 0.0)


def one_sided_d1(x0, x1, x2):
    """Second-order one-sided first-derivative weights at x0."""
    h1 = x1 - x0
    h2 = x2 - x0
    w0 = -(h1 + h2) / (h1 * h2)
    w1 = h2 / (h1 * (h2 - h1))
    w2 = -h1 / (h2 * (h2 - h1))
    return w0, w1, w2


def derivative_arrays(x, f):
    """First and second derivatives of f along its first axis, on nodes x.

    Interior nodes take the 3-point stencils; each end takes the one-sided
    3-point first derivative and the second derivative of its neighbour.
    """
    x, f = np.asarray(x, dtype=float), np.asarray(f, dtype=float)
    shape = (-1,) + (1,) * (f.ndim - 1)
    sub1, diag1, sup1 = (w.reshape(shape) for w in nonuniform_d1(x))
    sub2, diag2, sup2 = (w.reshape(shape) for w in nonuniform_d2(x))
    d1 = np.empty_like(f)
    d2 = np.empty_like(f)
    d1[1:-1] = sub1 * f[:-2] + diag1 * f[1:-1] + sup1 * f[2:]
    d2[1:-1] = sub2 * f[:-2] + diag2 * f[1:-1] + sup2 * f[2:]
    for idx, sgn in ((0, 1), (-1, -1)):
        w0, w1, w2 = one_sided_d1(x[idx], x[idx + sgn], x[idx + 2 * sgn])
        d1[idx] = w0 * f[idx] + w1 * f[idx + sgn] + w2 * f[idx + 2 * sgn]
        d2[idx] = d2[idx + sgn]
    return d1, d2


class _NotAKnotSpline:
    """Cubic spline with not-a-knot ends (de Boor, *A Practical Guide to
    Splines*, ch. IV), extrapolated by its end pieces.

    Built and evaluated in the operations and order of SciPy's
    `CubicSpline` (as of 1.17), so its values are the same floats, without
    importing `scipy.interpolate` (and with it `scipy.special` and
    `scipy.optimize`).
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx = np.diff(x)
        if x.size < 4 or not np.all(dx > 0.0):
            raise DomainError("a not-a-knot spline needs at least 4 "
                              "strictly increasing nodes")
        from scipy.linalg import solve_banded

        slope = np.diff(y) / dx
        # node slopes s from the tridiagonal system, in banded storage
        ab = np.zeros((3, x.size))
        ab[0, 2:] = dx[:-1]
        ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        ab[2, :-2] = dx[1:]
        rhs = np.empty(x.size)
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        ab[1, 0], ab[0, 1] = dx[1], d
        rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        ab[1, -1], ab[2, -2] = dx[-2], d
        rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        s = solve_banded((1, 1), ab, rhs, overwrite_ab=True, overwrite_b=True,
                         check_finite=False)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.coef = (t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        k = np.clip(np.searchsorted(self.x, v, "right") - 1, 0, self.x.size - 2)
        h = v - self.x[k]
        c0, c1, c2, c3 = (c[k] for c in self.coef)
        return c3 + c2 * h + c1 * (h * h) + c0 * ((h * h) * h)


@dataclass
class BlowupProfile:
    """Converged truncated profile with derived weight rho."""

    domain: SphericalDomain1D
    n: int
    theta: np.ndarray
    g: np.ndarray
    truncation: float
    m_history: list = field(default_factory=list)
    stop_reason: str = None        # why escalation stopped; not written out
    rho: np.ndarray = field(init=False)
    dg: np.ndarray = field(init=False)
    d2g: np.ndarray = field(init=False)
    _spline: _NotAKnotSpline = field(init=False)

    def __post_init__(self):
        if not np.all(self.g > 0.0):        # NaN fails it too
            raise DomainError("profile values must stay positive")
        with np.errstate(over="ignore"):
            self.rho = self.g ** (-2.0 / (self.n - 2))
        if not np.isfinite(self.rho).all():
            raise DomainError("profile values too small: rho overflows")
        # spline over interior nodes only: the Dirichlet value M at a
        # blow-up endpoint is a truncation artifact and would ring through
        # a global cubic fit
        mask = self.interior_mask()
        self._spline = _NotAKnotSpline(self.theta[mask], self.g[mask])
        self.dg, self.d2g = derivative_arrays(self.theta, self.g)

    @property
    def exponent(self):
        return 0.5 * (self.n - 2)

    def wall_distance(self):
        return self.domain.wall_distance(self.theta)

    def interior_mask(self):
        """Mask of the nodes that are not blow-up ends."""
        mask = np.ones(self.theta.size, dtype=bool)
        mask[[0, -1]] = self.domain.bc_lo != BLOWUP, self.domain.bc_hi != BLOWUP
        return mask

    def pde_residual(self):
        """Nodewise residual of the profile equation from `dg` and `d2g`.

        Both are the 3-point arrays of `derivative_arrays`: on interior
        nodes the solver's stencils without its row scaling, at the ends
        one-sided values that carry no boundary condition.
        """
        n = self.n
        drift, zero_order = _profile_terms(self.domain, n, self.theta)
        return (self.d2g + drift * self.dg + zero_order * self.g
                - 0.25 * n * (n - 2.0) * self.g ** ((n + 2.0) / (n - 2.0)))

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
    regular pole contributes a one-sided 3-point derivative row, which
    reaches one node past the tridiagonal band.  Blow-up ends get plain
    Dirichlet rows.  Rows are rescaled to O(1): the clustered cells near a
    blow-up end carry 1/h^2 ~ 1e17 stencil weights, whose rounding noise
    would otherwise swamp the damping's residual-decrease test.

    `factor` subtracts a multiple of the neighbouring row from the pole
    row, which leaves the Jacobian tridiagonal, factors it once with
    LAPACK `dgttrf` and solves from the factors with `dgttrs`.  A fresh
    factorization costs about as much as a solve, so a kept Jacobian saves
    nothing and Newton takes a fresh one at every step.
    """

    reuse_factor = False

    def __init__(self, x, a2, a1, a0, bc_lo, bc_hi, n, d, span, name):
        N = x.size
        self.name = name
        self.p = (n + 2.0) / (n - 2.0)
        sub2, diag2, sup2 = nonuniform_d2(x)
        sub1, diag1, sup1 = nonuniform_d1(x)
        # lo/hi: second sub/superdiagonal, nonzero only in a pole row;
        # a/c: first; b: diagonal
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
        self.a, self.b, self.c = (v * self.row_scale for v in (a, b, c))
        self.reach_lo = hi[0] * self.row_scale[0]
        self.reach_hi = lo[-1] * self.row_scale[-1]
        # the nonlinear term's factor on each interior row
        self.nl = self.row_scale[1:-1] * (0.25 * n * (n - 2.0))
        # the multiples of rows 1 and N-2 that clear the pole rows' reach
        # (0 without a pole)
        self.elim_lo = self.reach_lo / self.c[1] if hi[0] else 0.0
        self.elim_hi = self.reach_hi / self.a[-2] if lo[-1] else 0.0

        self.fixed = np.zeros(N, dtype=bool)
        self.fixed[[0, -1]] = bc_lo == BLOWUP, bc_hi == BLOWUP
        self.band = d >= 0.02 * span
        self.band[[0, -1]] = False
        # probes of the resolvability cap, a few cells inside each wall
        self.probes = [k for k, end in ((4, 0), (-5, -1))
                       if self.fixed[end] and N > 4]
        self.start = supersolution_start(d, n)

    def dirichlet(self, M):
        return np.where(self.fixed, M, 0.0)

    def warm_start(self, g, M):
        return np.minimum(self.start if g is None else g, M)

    def residual(self, g, data):
        fixed = self.fixed
        r = self.b * g
        r[1:] += self.a[1:] * g[:-1]
        r[:-1] += self.c[:-1] * g[1:]
        r[0] += self.reach_lo * g[2]
        r[-1] += self.reach_hi * g[-3]
        r[1:-1] -= self.nl * g[1:-1] ** self.p
        r[fixed] = self.row_scale[fixed] * (g[fixed] - data[fixed])
        return r

    def factor(self, g):
        from scipy.linalg.lapack import dgttrf, dgttrs

        diag = self.b.copy()
        diag[1:-1] -= self.nl * self.p * g[1:-1] ** (self.p - 1.0)
        sub, sup = self.a[1:].copy(), self.c[:-1].copy()
        elim_lo, elim_hi = self.elim_lo, self.elim_hi
        diag[0] -= elim_lo * sub[0]
        sup[0] -= elim_lo * diag[1]
        diag[-1] -= elim_hi * sup[-1]
        sub[-1] -= elim_hi * diag[-2]
        *lu, info = dgttrf(sub, diag, sup, overwrite_dl=1, overwrite_d=1,
                           overwrite_du=1)
        if info != 0 or not np.isfinite(np.concatenate(lu[:4])).all():
            raise NewtonError(f"{self.name} Jacobian is singular or not "
                              f"finite (dgttrf info {info})")

        def solve(rhs):
            rhs = rhs.copy()
            rhs[0] -= elim_lo * rhs[1]
            rhs[-1] -= elim_hi * rhs[-2]
            return dgttrs(*lu, rhs, overwrite_b=1)[0]

        return solve

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


def _profile_terms(domain, n, theta):
    """(drift, zero_order) of the profile equation g'' + drift g' +
    zero_order g = n(n-2)/4 g^p at the nodes theta (module docstring)."""
    if domain.geometry == POLAR_SPHERE:
        return (n - 2.0) * guarded_cot(theta), -0.25 * (n - 2.0) ** 2
    return np.zeros_like(theta), +0.25 * (n - 2.0) ** 2


def solve_profile(domain, n, schedule=(1e2,), grid=None, nodes=None,
                  interior_tol=1e-8, max_levels=MAX_LEVELS):
    """Solve the separated profile at the reported truncation level.

    `schedule` seeds the truncation levels (finite, > 0 and strictly
    increasing), and M then doubles; the reported level is where the mesh
    can no longer resolve the layer where the profile reaches M, or the
    interior (wall buffer excluded) stops moving at `interior_tol` (finite,
    > 0) relative, within `max_levels` levels (`blowlab.newton.escalate`;
    `max_levels=1` solves one fixed level, and a search that finds no stop
    past the schedule raises NewtonError).  `nodes` overrides the graded
    grid with explicit theta nodes (used to match a 2-D solver's angular
    grid exactly).
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
    check_schedule(schedule)
    check_tolerance("interior_tol", interior_tol)

    drift, zero_order = _profile_terms(domain, n, theta[1:-1])
    problem = BandedProblem(
        theta, 1.0, drift, zero_order, domain.bc_lo, domain.bc_hi, n,
        domain.wall_distance(theta), domain.theta_hi - domain.theta_lo,
        "profile")
    found = escalate(problem, schedule, tol=1e-10, interior_tol=interior_tol,
                     max_levels=max_levels)

    return BlowupProfile(
        domain=domain,
        n=n,
        theta=theta,
        g=found.x,
        truncation=found.m_history[-1],
        m_history=found.m_history,
        stop_reason=found.stop_reason,
    )


def cone_solution(profile, r, theta):
    """Evaluate u_V(r, theta) = r^(-(n-2)/2) g(theta) by cubic spline."""
    r = np.asarray(r, dtype=float)
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(r <= 0):
        raise DomainError("radius must be positive")
    lo_guard, hi_guard = profile.theta[profile.interior_mask()][[0, -1]]
    if np.any(theta_arr < lo_guard - 1e-14) or np.any(theta_arr > hi_guard + 1e-14):
        raise DomainError(
            "theta within one cell of a blow-up endpoint; spline unreliable there"
        )
    vals = r ** (-profile.exponent) * profile._spline(theta_arr)
    return float(vals) if np.isscalar(theta) and vals.ndim == 0 else vals


def check_rho_bounds(profile):
    """Min/max of rho over arc-distance d on nodes with 0 < d <= 0.2."""
    d = profile.wall_distance()
    mask = profile.interior_mask() & (d <= 0.2) & (d > 0)
    if not np.any(mask):
        raise DomainError("no interior nodes within the wall band")
    ratio = profile.rho[mask] / d[mask]
    c1, c2 = float(np.min(ratio)), float(np.max(ratio))
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
    }
    # 17 significant digits, so that a profile reads back to the same floats
    rows = np.column_stack([profile.theta, profile.g, profile.rho]).tolist()
    write_csv(path, ["theta", "g", "rho"], rows, meta=meta,
              row_format="%.17g,%.17g,%.17g\n")


def profile_from_csv(path):
    # other keys are ignored, such as the `newton_residual` of older files
    meta, header, data = read_csv(
        path, {"n": operator.index, "domain": dict, "truncation": float},
        ("theta", "g"), numeric=True)
    # whatever the stored values fail is a fault of the artifact, not of
    # the config or of a solver
    try:
        if meta["n"] < 3:
            raise ValueError(f"dimension n = {meta['n']} is below 3")
        domain = SphericalDomain1D(**meta["domain"])
        theta, g = (data[:, header.index(col)] for col in ("theta", "g"))
        # NaN fails every comparison, and the ends bound the nodes between
        if not (theta.size > 1 and theta[0] == domain.theta_lo
                and theta[-1] == domain.theta_hi
                and np.all(np.diff(theta) > 0)):
            raise ValueError("theta must increase strictly from the "
                             "domain's theta_lo to its theta_hi")
        if not np.all(np.isfinite(g) & (g > 0) & (g <= meta["truncation"])):
            raise ValueError("g must be finite and lie in (0, truncation]")
        return BlowupProfile(domain=domain, n=meta["n"], theta=theta, g=g,
                             truncation=meta["truncation"])
    except (TypeError, ValueError, ConfigError, DomainError) as exc:
        raise MissingArtifactError(f"cannot read artifact {path}: {exc}") from None
