"""Truncated boundary blow-up solves on 2-D reductions.

Axisymmetric fixtures reduce to the meridian plane and cylindrical
wedges to a planar cross-section.  Both are solved in log-polar
coordinates t = log r with the scaled unknown

    w(t, theta) = r^((n-2)/2) u,

which removes the radial first-order term for the meridian reduction and
makes exact cone solutions t-independent, so the radial discretization
is exact on the reference and the mesh only has to resolve the actual
perturbation.  The angular coordinate is straightened to eta =
theta / theta_b(r) in [0, 1], turning the (possibly curved) wedge into a
rectangle; the chain-rule terms are carried analytically through the
coefficients.

The infinite boundary value is imposed as u = M on the lateral wall with
a geometric escalation of M, capped when the truncation layer recedes
into the last mesh cells; the damped Newton and the escalation are the
core of `blowlab.newton`, shared with the 1-D profile solver.  The sparse
Jacobian is factorized with `splu`, and Newton keeps that factorization
over steps and truncation levels for as long as full steps from it cut
the residual by 4x or more (`reuse_factor`).
The artificial radial cuts carry bracket data {1/2, 2} x cone reference;
solving once with each and recording the interior disagreement turns the
ill-posed cut into a quantified localization error.

A degenerate radial path handles balls (blow-up on the outer sphere,
regular center), including non-Euclidean radially symmetric operators,
with the pentadiagonal rows of the profile solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConfigError, DomainError, LocalizationError
from .newton import escalate
from .profiles import (
    BLOWUP,
    REGULAR_POLE,
    BandedProblem,
    GridSpec,
    SphericalDomain1D,
    nonuniform_d1,
    nonuniform_d2,
    one_sided_d1,
    solve_profile,
)

__all__ = [
    "DomainSpec2D",
    "SolveConfig",
    "SolutionField",
    "exact_halfspace",
    "exact_ball",
    "solve",
    "monotone_check",
    "growth_check",
    "sum_supersolution_defect",
]

MERIDIAN = "meridian"
CROSS_SECTION = "cross-section"
BALL = "ball"


def exact_halfspace(n, d):
    """Half-space blow-up solution d^(-(n-2)/2)."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise DomainError("distance must be positive")
    out = d ** (-0.5 * (n - 2.0))
    return float(out) if out.ndim == 0 else out


def exact_ball(n, R, x):
    """Ball blow-up solution (2R/(R^2 - |x|^2))^((n-2)/2)."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x**2, axis=-1) if x.ndim > 0 and x.shape[-1:] != () else x**2
    r2 = np.asarray(r2, dtype=float)
    if np.any(r2 >= R**2):
        raise DomainError("point outside the ball")
    out = (2.0 * R / (R**2 - r2)) ** (0.5 * (n - 2.0))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DomainSpec2D:
    """2-D reduction domain.

    meridian:      { (r, theta) : 0 <= theta < theta_b(r) }, axisymmetric;
                   theta_b(r) = aperture + sum_k curve[k] r^(k+1).
    cross-section: planar wedge of constant opening `aperture` times R^(n-2).
    ball:          |x| < r_max with blow-up on the outer sphere (r_min, the
                   curve and the brackets are ignored; the center is regular).
    """

    reduction: str
    aperture: float
    r_min: float = 2.0**-8
    r_max: float = 1.0
    curve: tuple = ()
    label: str = ""

    def __post_init__(self):
        if self.reduction not in (MERIDIAN, CROSS_SECTION, BALL):
            raise ConfigError(f"unknown reduction tag {self.reduction!r}")
        if self.reduction == BALL:
            if not 0 < self.r_max <= 1.0:
                raise ConfigError("ball radius must lie in (0, 1]")
            return
        if not 0 < self.r_min < self.r_max <= 1.0:
            raise ConfigError("need 0 < r_min < r_max <= 1")
        if self.reduction == MERIDIAN and not 0 < self.aperture < np.pi:
            raise ConfigError("meridian aperture must lie in (0, pi)")
        if self.reduction == CROSS_SECTION:
            if not 0 < self.aperture < 2.0 * np.pi:
                raise ConfigError("cross-section opening must lie in (0, 2 pi)")
            if self.curve:
                raise ConfigError("curved wedge cross-sections are not supported")

    def theta_b(self, r):
        r = np.asarray(r, dtype=float)
        out = np.full_like(r, self.aperture, dtype=float)
        for k, ck in enumerate(self.curve):
            out = out + ck * r ** (k + 1)
        return out

    def dtheta_b(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r, dtype=float)
        for k, ck in enumerate(self.curve):
            out = out + (k + 1) * ck * r**k
        return out

    def d2theta_b(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r, dtype=float)
        for k, ck in enumerate(self.curve):
            if k >= 1:
                out = out + (k + 1) * k * ck * r ** (k - 1)
        return out

    @property
    def is_curved(self):
        return bool(self.curve)

    def section(self):
        """Spherical section of the tangent cone at the vertex."""
        if self.reduction == MERIDIAN:
            return SphericalDomain1D(
                "polar-sphere", 0.0, self.aperture,
                bc_lo="regular-pole", bc_hi="blowup",
                label=self.label or "meridian-section",
            )
        if self.reduction == CROSS_SECTION:
            return SphericalDomain1D(
                "circle-arc", 0.0, self.aperture,
                label=self.label or "wedge-section",
            )
        raise ConfigError("balls have no vertex section")


@dataclass(frozen=True)
class SolveConfig:
    """Escalation schedule, Newton control and localization bracket."""

    schedule: tuple = (1e2, 1e3, 1e4)
    newton_tol: float = 1e-10
    interior_tol: float = 1e-8
    bracket: tuple = (0.5, 2.0)
    bracket_tol: float = 0.05
    nt_per_octave: int = 32
    n_eta: int = 192
    eta_grading: float = 2.0
    m_growth: float = 2.0
    max_levels: int = 60
    keep_level_fields: bool = False

    def __post_init__(self):
        if any(m2 <= m1 for m1, m2 in zip(self.schedule, self.schedule[1:])):
            raise ConfigError("truncation schedule must be strictly increasing")
        if not 0.0 < self.bracket[0] < self.bracket[1]:
            raise ConfigError("bracket must satisfy 0 < low < high")
        # written as `not (x > bound)` so that NaN is rejected too
        for name, value, bound in (("newton_tol", self.newton_tol, 0.0),
                                   ("interior_tol", self.interior_tol, 0.0),
                                   ("m_growth", self.m_growth, 1.0),
                                   ("nt_per_octave", self.nt_per_octave, 0),
                                   ("n_eta", self.n_eta, 4),
                                   ("max_levels", self.max_levels, 0)):
            if not value > bound:
                raise ConfigError(f"{name} must exceed {bound}, got {value}")


@dataclass
class SolutionField:
    """Discrete blow-up solution on the reduction mesh."""

    domain: DomainSpec2D
    n: int
    operator_label: str
    t: np.ndarray                  # (Nt,) log radii; for balls, radii r
    eta: np.ndarray                # (Ne,) straightened angle; balls: (1,)
    u: np.ndarray                  # (Nt, Ne) solution values
    d: np.ndarray                  # (Nt, Ne) distance to the real boundary
    truncation: float
    newton_residual: float
    reference: np.ndarray = None   # matched cone profile on the eta nodes
    bracket_width: float = None
    bracket_low: float = 0.5
    bracket_high: float = 2.0
    u_high: np.ndarray = None
    m_history: list = field(default_factory=list)
    level_fields: list = field(default_factory=list)   # (M, u) snapshots

    @property
    def r(self):
        return self.t if self.domain.reduction == BALL else np.exp(self.t)

    @property
    def theta(self):
        if self.domain.reduction == BALL:
            return np.zeros((self.t.size, 1))
        return self.eta[None, :] * self.domain.theta_b(self.r)[:, None]

    def radii(self):
        """Nodewise radius array matching u's shape."""
        return np.broadcast_to(self.r[:, None], self.u.shape)

    def interior_window(self, wall_margin=0.05, r_hi=None):
        """Mask of the localization-trustworthy region of the mesh."""
        r = self.radii()
        dom = self.domain
        if dom.reduction == BALL:
            return (r < dom.r_max) & (self.d > 0)
        # relative slack: a row nominally on an edge (r = 1/8 as exp(t))
        # can round to either side of it
        lo, hi = 4.0 * dom.r_min, r_hi or dom.r_max / 4.0
        mask = (r >= lo * (1.0 - 1e-12)) & (r <= hi * (1.0 + 1e-12))
        span = dom.aperture
        wall = (1.0 - self.eta) * span
        if dom.reduction == CROSS_SECTION:
            wall = np.minimum(self.eta, 1.0 - self.eta) * span
        return mask & (wall[None, :] >= wall_margin)

    def bracket_width_over(self, r_hi=None):
        """Relative low/high disagreement over an explicit radius cap.

        A fixed r_hi makes widths comparable across outer radii: the pure
        cone problem is dilation invariant, so widths measured on regions
        that scale with r_max would barely move.
        """
        if self.u_high is None:
            return None
        window = self.interior_window(r_hi=r_hi)
        if not np.any(window):
            return None
        return float(np.max((self.u_high[window] - self.u[window])
                            / self.u[window]))


# ---------------------------------------------------------------------------
# coefficient pushforward


def _alphas(op, r, theta, psi, reduction, n):
    """Dimensionless perturbation coefficients of r^2(L - base) in (t, theta).

    `psi` is the azimuth of the representative meridian half-plane; an
    axisymmetric operator gives psi-independent results, which is what
    `check_axisymmetry` samples.
    """
    r = np.asarray(r, dtype=float).ravel()
    theta = np.asarray(theta, dtype=float).ravel()
    st, ct = np.sin(theta), np.cos(theta)

    if reduction == MERIDIAN:
        e_sigma = np.zeros((r.size, n))
        e_sigma[:, 0] = np.cos(psi)
        e_sigma[:, 1] = np.sin(psi)
        e_z = np.zeros((r.size, n))
        e_z[:, -1] = 1.0
        pts = r[:, None] * (st[:, None] * e_sigma + ct[:, None] * e_z)
        a, b, c = op.coefficients(pts)
        delta = np.eye(n)
        am = a - delta
        a11 = np.einsum("pi,pij,pj->p", e_sigma, am, e_sigma)
        ann = np.einsum("pi,pij,pj->p", e_z, am, e_z)
        a1n = np.einsum("pi,pij,pj->p", e_sigma, a, e_z)
        trans = np.einsum("pii->p", am) - a11 - ann
        bs = np.einsum("pi,pi->p", b, e_sigma)
        bz = np.einsum("pi,pi->p", b, e_z)
        with np.errstate(divide="ignore", invalid="ignore"):
            cot = np.where(np.abs(st) > 1e-300, ct / st, 0.0)
        alpha_tt = a11 * st**2 + ann * ct**2 + 2.0 * a1n * st * ct
        alpha_tth = 2.0 * (a11 - ann) * st * ct + 2.0 * a1n * (ct**2 - st**2)
        alpha_thth = a11 * ct**2 + ann * st**2 - 2.0 * a1n * st * ct
        alpha_t = ((a11 - ann) * (ct**2 - st**2) - 4.0 * a1n * st * ct
                   + trans + r * (bs * st + bz * ct))
        alpha_th = (-2.0 * (a11 - ann) * st * ct + 2.0 * a1n * (st**2 - ct**2)
                    + trans * cot + r * (bs * ct - bz * st))
        cc = c
    else:
        # planar cross-section: x' = r (cos phi, sin phi), invariant transverse
        cph, sph = ct, st  # theta plays the role of phi
        pts = np.zeros((r.size, n))
        pts[:, 0] = r * cph
        pts[:, 1] = r * sph
        a, b, c = op.coefficients(pts)
        a11 = a[:, 0, 0] - 1.0
        a22 = a[:, 1, 1] - 1.0
        a12 = a[:, 0, 1]
        b1 = b[:, 0]
        b2 = b[:, 1]
        alpha_tt = a22 * sph**2 + a11 * cph**2 + 2.0 * a12 * sph * cph
        alpha_tth = 2.0 * (a22 - a11) * sph * cph + 2.0 * a12 * (cph**2 - sph**2)
        alpha_thth = a22 * cph**2 + a11 * sph**2 - 2.0 * a12 * sph * cph
        alpha_t = ((a22 - a11) * (cph**2 - sph**2) - 4.0 * a12 * sph * cph
                   + r * (b2 * sph + b1 * cph))
        alpha_th = (-2.0 * (a22 - a11) * sph * cph + 2.0 * a12 * (sph**2 - cph**2)
                    + r * (b2 * cph - b1 * sph))
        cc = c
    return alpha_tt, alpha_tth, alpha_thth, alpha_t, alpha_th, cc


def check_axisymmetry(op, domain, n, samples=24, tol=1e-9):
    """Sample the pushforward at several azimuths; reject anisotropy."""
    if domain.reduction != MERIDIAN:
        return
    rng = np.random.default_rng(3)
    r = np.exp(rng.uniform(np.log(domain.r_min), np.log(domain.r_max), samples))
    theta = rng.uniform(0.05, 0.95, samples) * domain.theta_b(r)
    base = _alphas(op, r, theta, 0.0, MERIDIAN, n)
    for psi in (0.7, 2.1):
        other = _alphas(op, r, theta, psi, MERIDIAN, n)
        worst = max(np.max(np.abs(x - y)) for x, y in zip(base, other))
        if worst > tol:
            raise ConfigError(
                f"operator is not axisymmetric about the meridian axis "
                f"(azimuth disagreement {worst:.3e})"
            )


def _wall_distance_field(domain, r, theta):
    """Euclidean distance to the real (blow-up) boundary."""
    if domain.reduction == BALL:
        return domain.r_max - r
    if domain.reduction == CROSS_SECTION:
        gap = np.minimum(theta, domain.aperture - theta)
        return r * np.sin(np.minimum(gap, 0.5 * np.pi))
    if not domain.is_curved:
        gap = domain.aperture - theta
        return r * np.sin(np.minimum(gap, 0.5 * np.pi))
    # curved meridian boundary: sample the boundary curve
    rs = np.geomspace(max(domain.r_min * 0.5, 1e-6), domain.r_max, 400)
    bt = domain.theta_b(rs)
    bx = rs * np.sin(bt)
    bz = rs * np.cos(bt)
    px = r * np.sin(theta)
    pz = r * np.cos(theta)
    d2 = (px[..., None] - bx) ** 2 + (pz[..., None] - bz) ** 2
    return np.sqrt(np.min(d2, axis=-1))


# ---------------------------------------------------------------------------
# meridian / cross-section solve


def _eta_nodes(domain, config):
    if domain.reduction == MERIDIAN:
        s = np.linspace(0.0, 1.0, config.n_eta)
        eta = 1.0 - (1.0 - s) ** config.eta_grading
        eta[0], eta[-1] = 0.0, 1.0
        return eta
    s = np.linspace(0.0, 1.0, config.n_eta)
    b = config.eta_grading
    eta = s**b / (s**b + (1.0 - s) ** b)
    eta[0], eta[-1] = 0.0, 1.0
    return eta


class _WedgeSystem:
    """Assembled linear stencil and metadata for one (domain, op) pair.

    It is the truncated problem that `blowlab.newton.escalate` solves; the
    cut rows carry `bracket_factor` times the cone data.
    """

    name = "2-D"
    reuse_factor = True     # a sparse LU costs far more than a residual

    def __init__(self, domain, op, n, config):
        self.domain = domain
        self.op = op
        self.n = n
        self.config = config
        self.m = 0.5 * (n - 2.0)
        self.p = (n + 2.0) / (n - 2.0)
        self.coef = 0.25 * n * (n - 2.0)

        octaves = np.log2(domain.r_max / domain.r_min)
        nt = max(int(np.ceil(octaves * config.nt_per_octave)) + 1, 8)
        self.t = np.linspace(np.log(domain.r_min), np.log(domain.r_max), nt)
        self.eta = _eta_nodes(domain, config)
        self.nt, self.ne = self.t.size, self.eta.size
        self.r = np.exp(self.t)

        TT, EE = np.meshgrid(self.t, self.eta, indexing="ij")
        beta = domain.theta_b(self.r)
        self.theta = EE * beta[:, None]
        self.rr = np.exp(TT)

        # reference profile on the matching angular nodes (vertex cone)
        section = domain.section()
        theta_nodes = self.eta * domain.aperture
        self.reference_profile = solve_profile(
            section, n, nodes=theta_nodes,
            grid=GridSpec(count=max(self.ne, 200), grading=config.eta_grading),
        )
        self.reference = self.reference_profile.g

        self._assemble_linear()
        self.d = _wall_distance_field(domain, self.rr, self.theta)
        m = self.m
        with np.errstate(divide="ignore"):
            sup_init = 2.0**m * np.where(self.d > 0, self.d, np.inf) ** (-m)
        self.sup_w = (self.rr**m * sup_init).ravel()
        self.wrad = self.rr.ravel() ** m

        # interior band for the escalation stop: clear of the wall layer
        span = domain.aperture
        if domain.reduction == MERIDIAN:
            wall_gap = (1.0 - self.eta) * span
        else:
            wall_gap = np.minimum(self.eta, 1.0 - self.eta) * span
        band2d = np.zeros((self.nt, self.ne), dtype=bool)
        band2d[1:-1, :] = wall_gap[None, :] >= 0.02 * span
        self.band = band2d.ravel() & self.interior_mask

        # resolvability probe: u four cells inside the lateral wall
        self.probe_cols = [self.ne - 5]
        if domain.reduction == CROSS_SECTION:
            self.probe_cols.append(4)

    # -- masks ------------------------------------------------------------
    def _classify(self):
        nt, ne = self.nt, self.ne
        kind = np.zeros((nt, ne), dtype=np.int8)  # 0 interior
        KIND_CUT, KIND_WALL, KIND_POLE = 1, 2, 3
        kind[0, :] = KIND_CUT
        kind[-1, :] = KIND_CUT
        kind[:, -1] = KIND_WALL
        if self.domain.reduction == MERIDIAN:
            kind[1:-1, 0] = KIND_POLE
        else:
            kind[:, 0] = KIND_WALL
            kind[0, :] = KIND_CUT
            kind[-1, :] = KIND_CUT
        # corners: radial cuts win so the bracket data stays consistent
        kind[0, -1] = KIND_CUT
        kind[-1, -1] = KIND_CUT
        return kind

    def _assemble_linear(self):
        nt, ne = self.nt, self.ne
        dom = self.domain
        n = self.n
        m = self.m
        kind = self._classify()
        self.kind = kind

        ht = self.t[1] - self.t[0]
        sub1, diag1, sup1 = nonuniform_d1(self.eta)
        sub2, diag2, sup2 = nonuniform_d2(self.eta)

        r = self.rr
        theta = self.theta
        base_t = (n - 2.0) if dom.reduction == MERIDIAN else 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            cot = np.where(np.abs(np.sin(theta)) > 1e-300,
                           np.cos(theta) / np.sin(theta), 0.0)
        base_th = (n - 2.0) * cot if dom.reduction == MERIDIAN else np.zeros_like(theta)

        if self.op.is_euclidean:
            att = np.zeros_like(r)
            atth = np.zeros_like(r)
            athth = np.zeros_like(r)
            at = np.zeros_like(r)
            ath = np.zeros_like(r)
            cc = np.zeros_like(r)
        else:
            out = _alphas(self.op, r.ravel(), theta.ravel(), 0.0,
                          dom.reduction, n)
            att, atth, athth, at, ath, cc = (x.reshape(r.shape) for x in out)

        A_tt = 1.0 + att
        A_tth = atth
        A_thth = 1.0 + athth
        B_t = (base_t + at) - 2.0 * m * A_tt
        B_th = base_th + ath - m * A_tth
        C = m * m * A_tt - m * (base_t + at) + r**2 * cc

        # straighten theta = eta beta(t)
        beta = dom.theta_b(self.r)[:, None]
        dbeta = dom.dtheta_b(self.r)[:, None] * self.r[:, None]        # d beta/dt
        d2beta = (dom.d2theta_b(self.r)[:, None] * self.r[:, None] ** 2
                  + dom.dtheta_b(self.r)[:, None] * self.r[:, None])   # d2 beta/dt2
        EE = self.eta[None, :]
        lam = -EE * dbeta / beta
        lam_eta = -dbeta / beta * np.ones_like(EE)
        lam_t = -EE * (d2beta / beta - (dbeta / beta) ** 2)

        At_tt = A_tt
        At_te = 2.0 * lam * A_tt + A_tth / beta
        At_ee = lam**2 * A_tt + lam * A_tth / beta + A_thth / beta**2
        Bt_t = B_t
        Bt_e = (A_tt * (lam_t + lam * lam_eta) + A_tth * lam_eta / beta
                + B_t * lam + B_th / beta)
        Ct = C

        # sparse linear operator rows
        idx = np.arange(nt * ne).reshape(nt, ne)
        rows, cols, vals = [], [], []

        def add(rix, cix, v):
            rows.append(rix)
            cols.append(cix)
            vals.append(v)

        interior = np.argwhere(kind == 0)
        for j, k in interior:
            i0 = idx[j, k]
            hl = self.eta[k] - self.eta[k - 1]
            # second derivative in t (uniform)
            ctt = At_tt[j, k] / ht**2
            add(i0, idx[j - 1, k], ctt)
            add(i0, idx[j + 1, k], ctt)
            cdiag = -2.0 * ctt
            # first derivative in t
            c1t = Bt_t[j, k] / (2.0 * ht)
            add(i0, idx[j + 1, k], c1t)
            add(i0, idx[j - 1, k], -c1t)
            # eta derivatives (nonuniform row k-1 of the stencil tables)
            s2, d2, p2 = sub2[k - 1], diag2[k - 1], sup2[k - 1]
            s1, d1, p1 = sub1[k - 1], diag1[k - 1], sup1[k - 1]
            cee = At_ee[j, k]
            ce = Bt_e[j, k]
            add(i0, idx[j, k - 1], cee * s2 + ce * s1)
            add(i0, idx[j, k + 1], cee * p2 + ce * p1)
            cdiag += cee * d2 + ce * d1
            # mixed derivative, centered
            cte = At_te[j, k] / (2.0 * ht * (self.eta[k + 1] - self.eta[k - 1]))
            add(i0, idx[j + 1, k + 1], cte)
            add(i0, idx[j - 1, k - 1], cte)
            add(i0, idx[j + 1, k - 1], -cte)
            add(i0, idx[j - 1, k + 1], -cte)
            cdiag += Ct[j, k]
            add(i0, i0, cdiag)

        pole = np.argwhere(kind == 3)
        for j, k in pole:
            i0 = idx[j, k]
            w0, w1, w2 = one_sided_d1(self.eta[0], self.eta[1], self.eta[2])
            add(i0, idx[j, 0], w0)
            add(i0, idx[j, 1], w1)
            add(i0, idx[j, 2], w2)

        fixed = np.argwhere((kind == 1) | (kind == 2))
        for j, k in fixed:
            add(idx[j, k], idx[j, k], 1.0)

        L = sp.csr_matrix(
            (np.asarray(vals, dtype=float), (np.asarray(rows), np.asarray(cols))),
            shape=(nt * ne, nt * ne),
        )
        L.sum_duplicates()

        scale = 1.0 / (1.0 + np.abs(L).max(axis=1).toarray().ravel())
        self.row_scale = scale
        self.L = sp.diags(scale) @ L
        self.interior_mask = (kind == 0).ravel()
        self.fixed = ((kind == 1) | (kind == 2)).ravel()   # cuts and walls

    # -- the truncated problem of blowlab.newton ----------------------------
    def dirichlet(self, M):
        """Dirichlet data vector: wall truncation + bracket cone data."""
        kind = self.kind
        wall_w = M * np.exp(self.m * self.t)      # w = M r^m on the wall
        vals = np.where(kind == 2, wall_w[:, None], 0.0)
        spline = self.reference_profile._spline
        guard = self.reference_profile.theta[-2]
        for j in (0, self.nt - 1):
            theta_cut = self.eta * self.domain.theta_b(self.r[j])
            gvals = np.empty(self.eta.size)
            inside = theta_cut <= guard
            gvals[inside] = spline(theta_cut[inside])
            gvals[~inside] = self.reference[~inside]  # matched wall nodes
            cut = kind[j] == 1
            data = np.minimum(self.bracket_factor * gvals, wall_w[j])
            vals[j, cut] = data[cut]
        return vals.ravel()

    def warm_start(self, w, M):
        if w is None:
            return np.maximum(np.minimum(self.sup_w, M * self.wrad), 1e-10)
        return np.minimum(w, M * self.wrad)

    def residual(self, w, bc_vals):
        f = self.L @ w
        wi = np.where(self.interior_mask, w, 0.0)
        f = f - self.row_scale * self.interior_mask * self.coef * np.abs(wi) ** self.p
        fixed = self.fixed
        f[fixed] = self.row_scale[fixed] * (w[fixed] - bc_vals[fixed])
        return f

    def scale(self, w):
        wi = np.where(self.interior_mask, w, 0.0)
        return np.linalg.norm(
            self.row_scale * self.interior_mask * self.coef * np.abs(wi) ** self.p
        ) + 1.0

    def factor(self, w):
        dvals = np.where(
            self.interior_mask,
            self.row_scale * self.coef * self.p * np.abs(w) ** (self.p - 1.0),
            0.0,
        )
        J = (self.L - sp.diags(dvals)).tocsc()
        return splu(J).solve

    def cap_reached(self, w, M):
        # per-column wall data is M r^m in w-units, so the last column to
        # resolve its layer is the innermost one
        w2d = w.reshape(self.nt, self.ne)
        probe = max(np.max(w2d[1:-1, col]) for col in self.probe_cols)
        return M * np.exp(self.m * self.t[0]) >= 2.0 * probe

    def _to_u(self, w):
        return w.reshape(self.nt, self.ne) / self.rr**self.m


def solve(domain, op, n, config=None, forced_schedule=None):
    """Truncation + damped Newton blow-up solve with localization bracket.

    `forced_schedule` replays an exact escalation sequence (e.g. from a
    companion Euclidean solve on the same mesh) so a perturbed-metric
    field and its discrete cone reference end in matching truncation
    states.
    """
    config = config or SolveConfig()
    if domain.reduction == BALL:
        return _solve_ball(domain, op, n, config)
    check_axisymmetry(op, domain, n)
    system = _WedgeSystem(domain, op, n, config)

    schedule, max_levels = config.schedule, config.max_levels
    if forced_schedule:
        # a replay stops after exactly the given levels
        schedule = forced_schedule
        max_levels = min(max_levels, len(forced_schedule))
    snaps = []
    keep = ((lambda M, w: snaps.append((M, system._to_u(w))))
            if config.keep_level_fields else None)

    def run(bracket_factor, schedule, max_levels, on_level=None):
        system.bracket_factor = bracket_factor
        return escalate(system, schedule, tol=config.newton_tol,
                        growth=config.m_growth, interior_tol=config.interior_tol,
                        max_levels=max_levels, on_level=on_level)

    lo_fac, hi_fac = config.bracket
    w_lo, m_hist, residual = run(lo_fac, schedule, max_levels, keep)
    w_hi, _, _ = run(hi_fac, m_hist, len(m_hist))
    M_final = m_hist[-1]

    u_lo = system._to_u(w_lo)
    u_hi = system._to_u(w_hi)

    # re-solve the angular reference at the truncation state an interior
    # column actually sees (wall data M r^m varies across columns; matching
    # the mid-window state keeps the comparison bias at the slow-drift level)
    r_geo = np.sqrt(4.0 * domain.r_min * domain.r_max / 4.0)
    tau_ref = M_final * r_geo ** (0.5 * (n - 2.0))
    ref_schedule = [100.0]
    while ref_schedule[-1] < tau_ref:
        ref_schedule.append(ref_schedule[-1] * 2.0)
    reference_profile = solve_profile(
        domain.section(), n, nodes=system.eta * domain.aperture,
        schedule=ref_schedule,
    )

    fld = SolutionField(
        domain=domain,
        n=n,
        operator_label=op.label,
        t=system.t,
        eta=system.eta,
        u=u_lo,
        d=system.d,
        truncation=M_final,
        newton_residual=residual,
        reference=reference_profile.g,
        bracket_low=lo_fac,
        bracket_high=hi_fac,
        u_high=u_hi,
        m_history=m_hist,
        level_fields=snaps,
    )
    fld.reference_profile = reference_profile
    window = fld.interior_window()
    if np.any(window):
        width = np.max((u_hi[window] - u_lo[window]) / u_lo[window])
        fld.bracket_width = float(width)
        if width > config.bracket_tol:
            raise LocalizationError(
                f"bracket width {width:.3e} exceeds tolerance "
                f"{config.bracket_tol:g} in the core region"
            )
    return fld


# ---------------------------------------------------------------------------
# radial (ball) solve


def _radial_coefficients(op, rnodes, n, direction=None):
    """Pushforward of L to radial functions: arr u'' + brad u' + c u."""
    e = np.zeros(n)
    e[-1] = 1.0
    if direction is not None:
        e = np.asarray(direction, dtype=float)
        e /= np.linalg.norm(e)
    pts = rnodes[:, None] * e[None, :]
    a, b, c = op.coefficients(pts)
    arr = np.einsum("i,pij,j->p", e, a, e)
    trans = np.einsum("pii->p", a) - arr
    brad = np.einsum("pi,i->p", b, e)
    return arr, trans, brad, c


def check_radial_symmetry(op, n, r_max, samples=16, tol=1e-9):
    rng = np.random.default_rng(5)
    rnodes = rng.uniform(0.05 * r_max, 0.95 * r_max, samples)
    base = None
    for seed in (1, 2):
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        cur = _radial_coefficients(op, rnodes, n, direction=d)
        if base is not None:
            worst = max(np.max(np.abs(x - y)) for x, y in zip(base, cur))
            if worst > tol:
                raise ConfigError(
                    f"operator is not radially symmetric (disagreement {worst:.3e})"
                )
        base = cur


def _solve_ball(domain, op, n, config):
    R = domain.r_max
    check_radial_symmetry(op, n, R)

    count = max(config.n_eta * 10, 2000)
    s = np.linspace(0.0, 1.0, count)
    r = R * (1.0 - (1.0 - s) ** config.eta_grading)
    r[0], r[-1] = 0.0, R

    arr, trans, brad, cval = _radial_coefficients(op, r, n)
    with np.errstate(divide="ignore"):
        drift = trans[1:-1] / r[1:-1] + brad[1:-1]
    d = R - r
    # regular center: u'(0) = 0 by the one-sided pole row
    problem = BandedProblem(r, arr[1:-1], drift, cval[1:-1], REGULAR_POLE,
                            BLOWUP, n, d, R, "radial")
    snaps = []
    keep = ((lambda M, u: snaps.append((M, u[:, None].copy())))
            if config.keep_level_fields else None)
    u, m_hist, residual_norm = escalate(
        problem, config.schedule, tol=config.newton_tol, growth=config.m_growth,
        interior_tol=config.interior_tol, max_levels=config.max_levels,
        on_level=keep)

    return SolutionField(
        domain=domain,
        n=n,
        operator_label=op.label,
        t=r,
        eta=np.zeros(1),
        u=u[:, None],
        d=d[:, None],
        truncation=m_hist[-1],
        newton_residual=residual_norm,
        m_history=m_hist,
        level_fields=snaps,
    )


# ---------------------------------------------------------------------------
# checks


def monotone_check(fields, slack=1e-10, interior=None):
    """Nodewise monotone nondecrease along the truncation schedule.

    Monotonicity is asserted on every node; the reported Cauchy increments
    are restricted to `interior` (default: the boundary ring stripped),
    since Dirichlet nodes jump by the escalation factor by construction.
    """
    if len(fields) < 2:
        raise ConfigError("need at least two truncation levels")
    levels = [f[0] if isinstance(f, tuple) else f.truncation for f in fields]
    arrays = [np.asarray(f[1] if isinstance(f, tuple) else f.u) for f in fields]
    if any(m2 <= m1 for m1, m2 in zip(levels, levels[1:])):
        raise ConfigError("fields must come in increasing truncation order")
    if interior is None:
        interior = np.zeros(arrays[0].shape, dtype=bool)
        if arrays[0].shape[1] == 1:
            interior[1:-1, :] = True
        else:
            interior[1:-1, 1:-1] = True
    increments = []
    worst = (0.0, None)
    for (m1, u1), (m2, u2) in zip(zip(levels, arrays), zip(levels[1:], arrays[1:])):
        viol = np.max(u1 - u2)
        if viol > worst[0]:
            worst = (viol, (m1, m2))
        increments.append(float(np.max(np.abs(u2 - u1)[interior] / u1[interior])))
    ok = worst[0] <= slack
    return {
        "monotone": bool(ok),
        "worst_violation": float(worst[0]),
        "worst_pair": worst[1],
        "increments": increments,
    }


def growth_check(fld, wall_band=0.1):
    """Min/max of d^((n-2)/2) u near the blow-up boundary."""
    m = 0.5 * (fld.n - 2.0)
    r = fld.radii()
    mask = (fld.d <= wall_band) & (fld.d > 0)
    if fld.domain.reduction != BALL:
        mask &= (r <= fld.domain.r_max / 4.0) & (r >= 4.0 * fld.domain.r_min)
    vals = fld.d[mask] ** m * fld.u[mask]
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if not np.isfinite(lo) or lo <= 0:
        raise DomainError("degenerate growth ratio")
    return lo, hi


def sum_supersolution_defect(fld_a, fld_b):
    """Discrete defect of the sum of two solutions on the same radial mesh.

    The convexity of t -> t^p makes u+v a supersolution; the discrete
    defect Lap(u+v) - coef (u+v)^p must be nonpositive up to solver
    tolerance.  Implemented for ball (radial) fields.
    """
    if fld_a.domain != fld_b.domain or fld_a.n != fld_b.n:
        raise ConfigError("fields must share mesh and dimension")
    if fld_a.domain.reduction != BALL:
        raise ConfigError("sum check runs on radial fields")
    n = fld_a.n
    p = (n + 2.0) / (n - 2.0)
    coef = 0.25 * n * (n - 2.0)
    r = fld_a.t
    u = fld_a.u[:, 0] + fld_b.u[:, 0]
    sub1, diag1, sup1 = nonuniform_d1(r)
    sub2, diag2, sup2 = nonuniform_d2(r)
    lap = (sub2 * u[:-2] + diag2 * u[1:-1] + sup2 * u[2:]
           + (n - 1.0) / r[1:-1] * (sub1 * u[:-2] + diag1 * u[1:-1] + sup1 * u[2:]))
    defect = lap - coef * u[1:-1] ** p
    return defect
