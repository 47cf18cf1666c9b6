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

The linear stencil is assembled as one COO list keyed by stencil offset,
whole arrays at a time: the nine neighbour offsets of the interior block,
the one-sided pole rows and the unit Dirichlet rows.  It holds the same
terms a node-by-node loop would add, in the same arithmetic order, so the
matrix is bit-identical to that loop's; exact-zero coefficients (the
mixed terms of a straight Euclidean wedge) stay explicit entries until
the row-scaling product `diags(row_scale) @ L`, which drops them.

The infinite boundary value is imposed as u = M on the lateral wall, at
the lowest level of a geometric ladder where the truncation layer has
receded into the last mesh cells; the damped Newton and the search for
that level are the core of `blowlab.newton`, shared with the 1-D profile
solver.  The sparse Jacobian L - diag(d) is factorized with `splu` under
SuperLU's minimum-degree ordering of A^T + A (`MMD_AT_PLUS_A`; George &
Liu, 1981), which suits the nearly symmetric 9-point pattern better than
the default COLAMD: at n = 6 it cuts the fill by about a third.  Panels are single
columns, which factor these meshes faster than SuperLU's default panels.
L is kept once in CSC with the position of each row's diagonal, so a
Jacobian is a copy of L's values with only the diagonal rewritten.
Newton keeps a factorization over steps and truncation levels for as
long as full steps from it cut the residual by 4x or more
(`reuse_factor`).  The search reaches the reported level from above, in a
few levels each solved to `newton_tol` (`blowlab.newton`).

The artificial radial cuts carry bracket data {1/2, 2} x cone reference,
the vertex-cone profile splined onto the cut rows once per system;
solving once with each and recording the interior disagreement turns the
ill-posed cut into a quantified localization error.  A field carries no
cone profile: `blowlab.analysis.compare_to_cone` solves the one matched
to the field's truncation state where it compares.  The low bracket runs
the search; the high one differs only in the cut data, so it is solved
by one continuation step (Allgower & Georg, *Introduction to Numerical
Continuation Methods*): Newton at the final truncation level, started from
the low field and from the factorization kept at that level (the
Jacobian does not read the cut data).  Newton's update-based stop makes
that step take real Newton steps, so it lands where a search with the
high cut data would.

A degenerate radial path handles balls (blow-up on the outer sphere,
regular center), including non-Euclidean radially symmetric operators,
with the truncated problem of the profile solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConfigError, DomainError, LocalizationError
from .newton import check_schedule, check_tolerance, damped_newton, escalate
from .profiles import (
    BLOWUP,
    REGULAR_POLE,
    BandedProblem,
    SphericalDomain1D,
    derivative_arrays,
    guarded_cot,
    nonuniform_d1,
    nonuniform_d2,
    one_sided_d1,
    power_law_nodes,
    solve_profile,
    supersolution_start,
)

__all__ = [
    "DomainSpec2D",
    "SolveConfig",
    "SolutionField",
    "exact_halfspace",
    "exact_ball",
    "solve",
    "level_fields",
    "monotone_check",
    "growth_check",
    "sum_supersolution_defect",
]

MERIDIAN = "meridian"
CROSS_SECTION = "cross-section"
BALL = "ball"

# node kinds of the 2-D mesh
INTERIOR, CUT, WALL, POLE = 0, 1, 2, 3

# truncation levels a 2-D or ball solve runs at most
MAX_LEVELS = 60


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

    def theta_b(self, r, order=0):
        """theta_b(r) or its derivative of the given order in r."""
        r = np.asarray(r, dtype=float)
        out = np.full_like(r, self.aperture if order == 0 else 0.0, dtype=float)
        for k, ck in enumerate(self.curve):
            if k + 1 >= order:
                out = out + math.perm(k + 1, order) * ck * r ** (k + 1 - order)
        return out

    @property
    def is_curved(self):
        return bool(self.curve)

    def section(self):
        """Spherical section of the tangent cone at the vertex."""
        if self.reduction == MERIDIAN:
            return SphericalDomain1D.polar_cap(self.aperture)
        if self.reduction == CROSS_SECTION:
            return SphericalDomain1D.arc(self.aperture)
        raise ConfigError("balls have no vertex section")

    def reporting_rows(self, r, r_hi=None):
        """Mask of the radii 4 r_min <= r <= r_hi (r_max / 4 unless given).

        A relative slack of 1e-12 keeps a row nominally on an edge (r = 1/8
        as exp(t)), which can round to either side of it.
        """
        lo, hi = 4.0 * self.r_min, r_hi or self.r_max / 4.0
        return (r >= lo * (1.0 - 1e-12)) & (r <= hi * (1.0 + 1e-12))


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

    def __post_init__(self):
        check_schedule(self.schedule)
        if not 0.0 < self.bracket[0] < self.bracket[1]:
            raise ConfigError("bracket must satisfy 0 < low < high")
        for name in ("nt_per_octave", "n_eta"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        check_tolerance("newton_tol", self.newton_tol)
        check_tolerance("interior_tol", self.interior_tol)
        # written as `not (x > bound)` so that NaN is rejected too
        for name, value, bound in (("bracket_tol", self.bracket_tol, 0.0),
                                   ("nt_per_octave", self.nt_per_octave, 0),
                                   ("n_eta", self.n_eta, 4)):
            if not value > bound:
                raise ConfigError(f"{name} must exceed {bound}, got {value}")
        if not 1.0 <= self.eta_grading < np.inf:
            raise ConfigError(f"eta_grading must be finite and >= 1, "
                              f"got {self.eta_grading}")


@dataclass
class SolutionField:
    """Discrete blow-up solution on the reduction mesh."""

    domain: DomainSpec2D
    n: int
    operator_label: str
    r: np.ndarray                  # (Nt,) radii
    eta: np.ndarray                # (Ne,) straightened angle; balls: (1,)
    u: np.ndarray                  # (Nt, Ne) solution values
    d: np.ndarray                  # (Nt, Ne) distance to the real boundary
    truncation: float
    bracket_width: float = None
    u_high: np.ndarray = None
    m_history: list = field(default_factory=list)
    stop_reason: str = None        # why escalation stopped; not written out

    @property
    def theta(self):
        if self.domain.reduction == BALL:
            return np.zeros((self.r.size, 1))
        return self.eta[None, :] * self.domain.theta_b(self.r)[:, None]

    def radii(self):
        """Nodewise radius array matching u's shape."""
        return np.broadcast_to(self.r[:, None], self.u.shape)

    def interior_window(self, r_hi=None):
        """Mask of the localization-trustworthy region of the mesh."""
        r = self.radii()
        dom = self.domain
        if dom.reduction == BALL:
            return (r < dom.r_max) & (self.d > 0)
        return (dom.reporting_rows(r, r_hi)
                & (_wall_gap(dom, self.eta)[None, :] >= 0.05))

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

    `psi` is the azimuth of the representative meridian half-plane, one
    for all points or one per point; an axisymmetric operator gives
    psi-independent results, which is what `check_axisymmetry` samples.
    The planar cross-section x' = r (cos phi, sin phi) is the meridian
    frame with e_sigma = e_2 and e_z = e_1 and no transverse trace: its
    transverse directions are straight lines along which u is constant.
    """
    r = np.asarray(r, dtype=float).ravel()
    theta = np.asarray(theta, dtype=float).ravel()
    st, ct = np.sin(theta), np.cos(theta)
    e_sigma = np.zeros((r.size, n))
    e_z = np.zeros((r.size, n))
    if reduction == MERIDIAN:
        e_sigma[:, 0] = np.cos(psi)
        e_sigma[:, 1] = np.sin(psi)
        e_z[:, -1] = 1.0
    else:
        e_sigma[:, 1] = 1.0
        e_z[:, 0] = 1.0
    pts = r[:, None] * (st[:, None] * e_sigma + ct[:, None] * e_z)
    a, b, c = op.coefficients(pts)
    am = a - np.eye(n)
    a11 = np.einsum("pi,pij,pj->p", e_sigma, am, e_sigma)
    ann = np.einsum("pi,pij,pj->p", e_z, am, e_z)
    a1n = np.einsum("pi,pij,pj->p", e_sigma, a, e_z)
    trans = (np.einsum("pii->p", am) - a11 - ann if reduction == MERIDIAN
             else 0.0)
    bs = np.einsum("pi,pi->p", b, e_sigma)
    bz = np.einsum("pi,pi->p", b, e_z)
    alpha_tt = a11 * st**2 + ann * ct**2 + 2.0 * a1n * st * ct
    alpha_tth = 2.0 * (a11 - ann) * st * ct + 2.0 * a1n * (ct**2 - st**2)
    alpha_thth = a11 * ct**2 + ann * st**2 - 2.0 * a1n * st * ct
    alpha_t = ((a11 - ann) * (ct**2 - st**2) - 4.0 * a1n * st * ct
               + trans + r * (bs * st + bz * ct))
    alpha_th = (-2.0 * (a11 - ann) * st * ct + 2.0 * a1n * (st**2 - ct**2)
                + trans * guarded_cot(theta) + r * (bs * ct - bz * st))
    return alpha_tt, alpha_tth, alpha_thth, alpha_t, alpha_th, c


def check_axisymmetry(op, domain, n):
    """Sample the pushforward at 24 points, 3 azimuths; reject anisotropy."""
    if domain.reduction != MERIDIAN:
        return
    rng = np.random.default_rng(3)
    r = np.exp(rng.uniform(np.log(domain.r_min), np.log(domain.r_max), 24))
    theta = rng.uniform(0.05, 0.95, 24) * domain.theta_b(r)
    # the three azimuths in one coefficient evaluation
    psi = np.repeat([0.0, 0.7, 2.1], 24)
    alphas = _alphas(op, np.tile(r, 3), np.tile(theta, 3), psi, MERIDIAN, n)
    _check_symmetry(list(zip(*(np.split(x, 3) for x in alphas))),
                    "axisymmetric about the meridian axis",
                    "azimuth disagreement")


def _check_symmetry(samples, symmetry, measure):
    """Raise ConfigError unless every coefficient tuple of `samples` is
    within 1e-9 of the first, entry for entry."""
    base, *others = samples
    for other in others:
        worst = max(np.max(np.abs(x - y)) for x, y in zip(base, other))
        if worst > 1e-9:
            raise ConfigError(
                f"operator is not {symmetry} ({measure} {worst:.3e})")


def _wall_distance_field(domain, r, theta):
    """Euclidean distance to the real (blow-up) boundary of a wedge."""
    if domain.reduction == CROSS_SECTION:
        gap = np.minimum(theta, domain.aperture - theta)
        return r * np.sin(np.minimum(gap, 0.5 * np.pi))
    if not domain.is_curved:
        gap = domain.aperture - theta
        return r * np.sin(np.minimum(gap, 0.5 * np.pi))
    # curved meridian boundary: the nearest of 400 samples of the curve, as
    # a running minimum, so no (nodes, samples) table is formed
    rs = np.geomspace(max(domain.r_min * 0.5, 1e-6), domain.r_max, 400)
    bt = domain.theta_b(rs)
    px = r * np.sin(theta)
    pz = r * np.cos(theta)
    d2 = np.full(px.shape, np.inf)
    for bx, bz in zip(rs * np.sin(bt), rs * np.cos(bt)):
        np.minimum(d2, (px - bx) ** 2 + (pz - bz) ** 2, out=d2)
    return np.sqrt(d2)


# ---------------------------------------------------------------------------
# meridian / cross-section solve


def _wall_gap(domain, eta):
    """Angle from the eta nodes to the lateral wall(s), at the vertex aperture."""
    if domain.reduction == CROSS_SECTION:
        return np.minimum(eta, 1.0 - eta) * domain.aperture
    return (1.0 - eta) * domain.aperture


class _WedgeSystem:
    """Assembled linear stencil and metadata for one (domain, op) pair.

    It is the truncated problem that `blowlab.newton.escalate` searches; the
    cut rows carry `bracket_factor` times the cone data, the low bracket's
    `config.bracket[0]` until a caller sets another.
    """

    name = "2-D"
    reuse_factor = True     # a sparse LU costs far more than a residual

    def __init__(self, domain, op, n, config):
        self.domain = domain
        self.op = op
        self.n = n
        self.bracket_factor = config.bracket[0]
        self.m = 0.5 * (n - 2.0)
        self.p = (n + 2.0) / (n - 2.0)
        self.coef = 0.25 * n * (n - 2.0)

        octaves = np.log2(domain.r_max / domain.r_min)
        nt = max(int(np.ceil(octaves * config.nt_per_octave)) + 1, 8)
        self.t = np.linspace(np.log(domain.r_min), np.log(domain.r_max), nt)
        self.eta = power_law_nodes(0.0, 1.0, config.n_eta, config.eta_grading,
                                   lo_blow=domain.reduction == CROSS_SECTION,
                                   hi_blow=True)
        self.nt, self.ne = self.t.size, self.eta.size
        self.r = np.exp(self.t)

        beta = domain.theta_b(self.r)
        outside = ~((0 < beta) & (beta < np.pi))
        if domain.reduction == MERIDIAN and outside.any():
            k = np.flatnonzero(outside)[0]
            raise ConfigError(
                f"meridian boundary angle theta_b({self.r[k]:.6g}) = "
                f"{beta[k]:.6g} leaves (0, pi)")
        # the eta mesh is checked where it is made; the straightening
        # divides by theta_b^2
        with np.errstate(over="ignore", divide="ignore"):
            if not np.isfinite(1.0 / beta**2).all():
                raise DomainError(f"the mesh has collapsed: 1/theta_b^2 "
                                  f"overflows at aperture {domain.aperture:g}")
        self.theta = self.eta[None, :] * beta[:, None]
        self.rr = np.broadcast_to(self.r[:, None], self.theta.shape)
        # w = r^m u: the one r^m of the system, node by node
        self.wrad = self.rr.ravel() ** self.m

        self._assemble_linear()
        self.cut_cone = self._cut_cone(solve_profile(
            domain.section(), n, nodes=self.eta * domain.aperture))
        self.d = _wall_distance_field(domain, self.rr, self.theta)
        self.sup_w = self.wrad * supersolution_start(self.d, n).ravel()

        # interior band for the escalation stop: clear of the wall layer
        band2d = np.zeros((self.nt, self.ne), dtype=bool)
        gap = _wall_gap(domain, self.eta)
        band2d[1:-1, :] = gap[None, :] >= 0.02 * domain.aperture
        self.band = band2d.ravel() & self.interior_mask

        # resolvability probe: u four cells inside the lateral wall
        self.probe_cols = [self.ne - 5]
        if domain.reduction == CROSS_SECTION:
            self.probe_cols.append(4)

    # -- masks ------------------------------------------------------------
    def _classify(self):
        kind = np.full((self.nt, self.ne), INTERIOR, dtype=np.int8)
        kind[:, -1] = WALL
        kind[1:-1, 0] = POLE if self.domain.reduction == MERIDIAN else WALL
        # radial cuts win at the corners so the bracket data stays consistent
        kind[[0, -1], :] = CUT
        return kind

    def _coefficients(self):
        """Stencil coefficients of the straightened operator on the (t, eta) mesh.

        Returns (A_tt, A_te, A_ee, B_t, B_e, C): the operator is
        A_tt w_tt + A_te w_te + A_ee w_ee + B_t w_t + B_e w_e + C w.
        """
        dom = self.domain
        n = self.n
        m = self.m
        r = self.rr
        theta = self.theta
        base_t = (n - 2.0) if dom.reduction == MERIDIAN else 0.0
        base_th = ((n - 2.0) * guarded_cot(theta) if dom.reduction == MERIDIAN
                   else np.zeros_like(theta))

        if self.op.is_euclidean:
            att = atth = athth = at = ath = cc = np.zeros_like(r)
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
        r1 = self.r[:, None]
        beta, db, d2b = (dom.theta_b(r1, order) for order in (0, 1, 2))
        dbeta = db * r1                                 # d beta/dt
        d2beta = d2b * r1**2 + db * r1                  # d2 beta/dt2
        EE = self.eta[None, :]
        lam = -EE * dbeta / beta
        lam_eta = -dbeta / beta * np.ones_like(EE)
        lam_t = -EE * (d2beta / beta - (dbeta / beta) ** 2)

        At_te = 2.0 * lam * A_tt + A_tth / beta
        At_ee = lam**2 * A_tt + lam * A_tth / beta + A_thth / beta**2
        Bt_e = (A_tt * (lam_t + lam * lam_eta) + A_tth * lam_eta / beta
                + B_t * lam + B_th / beta)
        return A_tt, At_te, At_ee, B_t, Bt_e, C

    def _assemble_linear(self):
        nt, ne = self.nt, self.ne
        kind = self._classify()
        self.kind = kind
        A_tt, A_te, A_ee, B_t, B_e, C = (
            x[1:-1, 1:-1] for x in self._coefficients())

        # the interior nodes are the [1:-1, 1:-1] block; the eta stencil
        # tables have one row per interior column
        ht = self.t[1] - self.t[0]
        eta = self.eta
        sub1, diag1, sup1 = nonuniform_d1(eta)
        sub2, diag2, sup2 = nonuniform_d2(eta)
        ctt = A_tt / ht**2
        c1t = B_t / (2.0 * ht)
        cte = A_te / (2.0 * ht * (eta[2:] - eta[:-2]))
        stencil = (                                  # (dt, deta) -> coefficient
            ((-1, 0), ctt), ((1, 0), ctt), ((1, 0), c1t), ((-1, 0), -c1t),
            ((0, -1), A_ee * sub2 + B_e * sub1),
            ((0, 1), A_ee * sup2 + B_e * sup1),
            ((1, 1), cte), ((-1, -1), cte), ((1, -1), -cte), ((-1, 1), -cte),
            ((0, 0), -2.0 * ctt + (A_ee * diag2 + B_e * diag1) + C),
        )
        idx = np.arange(nt * ne).reshape(nt, ne)
        inner = idx[1:-1, 1:-1].ravel()
        pole = idx[kind == POLE]
        fixed = idx[(kind == CUT) | (kind == WALL)]
        rows = [inner] * len(stencil) + [pole] * 3 + [fixed]
        cols = ([inner + dt * ne + de for (dt, de), _ in stencil]
                + [pole, pole + 1, pole + 2] + [fixed])
        vals = ([v.ravel() for _, v in stencil]
                + [np.full(pole.size, w) for w in one_sided_d1(*eta[:3])]
                + [np.ones(fixed.size)])
        # one COO list holding the loop's terms; sum_duplicates adds the
        # (+-1, 0) pairs, and exact zeros stay until the row scaling
        L = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(nt * ne, nt * ne),
        )
        L.sum_duplicates()

        scale = 1.0 / (1.0 + np.abs(L).max(axis=1).toarray().ravel())
        self.row_scale = scale
        self.L = sp.diags(scale) @ L
        self.interior_mask = (kind == INTERIOR).ravel()
        self.fixed = ((kind == CUT) | (kind == WALL)).ravel()
        # the Jacobian L - diag(d) is L with only its diagonal changed: keep
        # L in CSC once, with where the diagonal of each interior row (the
        # rows where d is nonzero) sits in L_csc.data
        self.L_csc = self.L.tocsc()
        self.L_csc.sort_indices()
        size = nt * ne
        col_of = np.repeat(np.arange(size), np.diff(self.L_csc.indptr))
        on_diag = np.flatnonzero(self.L_csc.indices == col_of)
        assert np.array_equal(self.L_csc.indices[on_diag], np.arange(size)), \
            "every row of the stencil stores its diagonal"
        self.diag_pos = on_diag[self.interior_mask]
        # per-row factors of the nonlinear term, products in residual's order
        self.nl_scale = self.row_scale * self.interior_mask * self.coef
        self.jac_scale = (self.row_scale * self.coef * self.p)[self.interior_mask]

    def _cut_cone(self, profile):
        """Vertex-cone profile on the cut rows, inf on the wall nodes.

        `profile` lives on the eta nodes times the aperture; outside the
        nodes its spline is fitted on (a blow-up end: both ends of a
        cross-section) the spline is unreliable, and the nodal values of
        the matching wall nodes stand in.  `dirichlet` takes the minimum
        of these data and the wall value.
        """
        cone = np.where(self.kind == WALL, np.inf, 0.0)
        lo, hi = profile.theta[profile.interior_mask()][[0, -1]]
        for j in (0, self.nt - 1):          # whole rows: cuts win the corners
            theta_cut = self.eta * self.domain.theta_b(self.r[j])
            inside = (theta_cut >= lo) & (theta_cut <= hi)
            cone[j] = profile.g
            cone[j, inside] = profile._spline(theta_cut[inside])
        return cone

    # -- the truncated problem of blowlab.newton ----------------------------
    def dirichlet(self, M):
        """Dirichlet data vector: wall truncation w = M r^m + bracket cone
        data."""
        return np.minimum(self.bracket_factor * self.cut_cone.ravel(),
                          M * self.wrad)

    def warm_start(self, w, M):
        return np.minimum(self.sup_w if w is None else w, M * self.wrad)

    def residual(self, w, bc_vals):
        f = self.L @ w
        wi = np.where(self.interior_mask, w, 0.0)
        f = f - self.nl_scale * np.abs(wi) ** self.p
        fixed = self.fixed
        f[fixed] = self.row_scale[fixed] * (w[fixed] - bc_vals[fixed])
        return f

    def jacobian(self, w):
        """L - diag(d) in CSC; d is nonzero on the interior rows only."""
        Lc = self.L_csc
        data = Lc.data.copy()
        wi = w[self.interior_mask]
        data[self.diag_pos] -= self.jac_scale * np.abs(wi) ** (self.p - 1.0)
        return sp.csc_matrix((data, Lc.indices, Lc.indptr), shape=Lc.shape)

    def factor(self, w):
        # one column per panel: SuperLU's default panels cost more than they
        # save on these meshes (about 20% of each factor, 1k to 42k nodes)
        return splu(self.jacobian(w), permc_spec="MMD_AT_PLUS_A",
                    panel_size=1).solve

    def cap_reached(self, w, M):
        # per-column wall data is M r^m in w-units, so the last column to
        # resolve its layer is the innermost one
        w2d = w.reshape(self.nt, self.ne)
        probe = max(np.max(w2d[1:-1, col]) for col in self.probe_cols)
        return M * self.wrad[0] >= 2.0 * probe

    def _to_u(self, w):
        return (w / self.wrad).reshape(self.nt, self.ne)


# ---------------------------------------------------------------------------
# radial (ball) coefficients


def _radial_coefficients(op, rnodes, n, direction=None):
    """Pushforward of L to radial functions: arr u'' + brad u' + c u."""
    e = np.zeros(n)
    e[-1] = 1.0
    if direction is not None:
        e = np.asarray(direction, dtype=float)
        e = e / np.linalg.norm(e)
    pts = rnodes[:, None] * e[None, :]
    a, b, c = op.coefficients(pts)
    arr = np.einsum("i,pij,j->p", e, a, e)
    trans = np.einsum("pii->p", a) - arr
    brad = np.einsum("pi,i->p", b, e)
    return arr, trans, brad, c


def check_radial_symmetry(op, n, r_max):
    """Sample the radial pushforward along two directions; reject anisotropy."""
    rng = np.random.default_rng(5)
    rnodes = rng.uniform(0.05 * r_max, 0.95 * r_max, 16)
    _check_symmetry([_radial_coefficients(op, rnodes, n, direction=d)
                     for d in rng.standard_normal((2, n))],
                    "radially symmetric", "disagreement")


# ---------------------------------------------------------------------------
# the solve


def _truncated_problem(domain, op, n, config):
    """The truncated problem `solve` searches on `domain`, with the low
    bracket's cut data in 2-D.

    Returns (problem, r, eta, d, to_u): the mesh and the distance field as
    `SolutionField` holds them, and the map from the problem's unknown to u
    on that mesh.  Rejects an operator without the reduction's symmetry.
    """
    if domain.reduction != BALL:
        check_axisymmetry(op, domain, n)
        system = _WedgeSystem(domain, op, n, config)
        return system, system.r, system.eta, system.d, system._to_u
    R = domain.r_max
    check_radial_symmetry(op, n, R)
    r = power_law_nodes(0.0, R, max(config.n_eta * 10, 2000),
                        config.eta_grading, lo_blow=False, hi_blow=True)
    arr, trans, brad, cval = _radial_coefficients(op, r, n)
    with np.errstate(divide="ignore"):
        drift = trans[1:-1] / r[1:-1] + brad[1:-1]
    d = R - r
    # regular center: u'(0) = 0 by the one-sided pole row
    problem = BandedProblem(r, arr[1:-1], drift, cval[1:-1], REGULAR_POLE,
                            BLOWUP, n, d, R, "radial")
    return problem, r, np.zeros(1), d[:, None], lambda u: u[:, None]


def solve(domain, op, n, config=None, forced_schedule=None):
    """Truncation + damped Newton blow-up solve with localization bracket.

    `forced_schedule` (e.g. a companion Euclidean solve's `m_history` on
    the same mesh) ends the solve at its last level, solved directly, so a
    perturbed-metric field and its discrete cone reference end in matching
    truncation states; a ball solve takes it too.  Only the low bracket
    searches; the high bracket is Newton at the final level from the low
    field and the factorization kept there (a ball has no cuts, so no
    bracket).  The search keeps no field of the levels below the final
    one: `level_fields` solves them.
    """
    if n < 3:
        raise ConfigError("dimension must satisfy n >= 3")
    config = config or SolveConfig()
    schedule, max_levels = config.schedule, MAX_LEVELS
    if forced_schedule:
        schedule, max_levels = forced_schedule, len(forced_schedule)
    problem, r, eta, d, to_u = _truncated_problem(domain, op, n, config)
    low = escalate(problem, schedule, tol=config.newton_tol,
                   interior_tol=config.interior_tol, max_levels=max_levels)
    M_final = low.m_history[-1]
    u_high = None
    if domain.reduction != BALL:
        # the high bracket by one continuation step: only the cut data
        # change, so Newton from the low field at the final level lands on
        # the field a search with the high cut data would reach; the
        # Jacobian does not read the cut data, so the factorization kept at
        # the final level serves from the start
        problem.bracket_factor = config.bracket[1]
        w_hi, _, _ = damped_newton(problem, low.x, M_final,
                                   config.newton_tol, solve=low.solve)
        u_high = to_u(w_hi)

    fld = SolutionField(
        domain=domain,
        n=n,
        operator_label=op.label,
        r=r,
        eta=eta,
        u=to_u(low.x),
        d=d,
        truncation=M_final,
        u_high=u_high,
        m_history=low.m_history,
        stop_reason=low.stop_reason,
    )
    fld.bracket_width = width = fld.bracket_width_over()
    if width is not None and width > config.bracket_tol:
        raise LocalizationError(
            f"bracket width {width:.3e} exceeds tolerance "
            f"{config.bracket_tol:g} in the core region"
        )
    return fld


# ---------------------------------------------------------------------------
# checks


def level_fields(fld, op, config):
    """The `(M, u)` snapshot of each level of `fld.m_history`, lowest first.

    The truncated problem `solve` searched is rebuilt from `op` and
    `config`, and the levels below the reported one are solved bottom-up by
    damped Newton to `newton_tol`, each from the level below and the
    factorization Newton kept there; the last snapshot is
    `(fld.truncation, fld.u)` itself.  Raises ConfigError when `config`
    builds a mesh other than the field's.
    """
    problem, r, eta, _, to_u = _truncated_problem(fld.domain, op, fld.n,
                                                  config)
    if not (np.array_equal(r, fld.r) and np.array_equal(eta, fld.eta)):
        raise ConfigError(f"config does not rebuild the field's "
                          f"{fld.u.shape[0]} x {fld.u.shape[1]} mesh")
    snaps, x, kept = [], None, None
    for M in fld.m_history[:-1]:
        x, _, kept = damped_newton(problem, problem.warm_start(x, M), M,
                                   config.newton_tol, solve=kept)
        snaps.append((M, to_u(x)))
    return snaps + [(fld.truncation, fld.u)]


def monotone_check(fields):
    """Nodewise monotone nondecrease along the truncation schedule.

    `fields` are `(M, u)` snapshots in increasing M, as `level_fields`
    returns them.  Monotonicity is asserted on every node, up to a decrease
    of 1e-10; the reported Cauchy increments skip the boundary ring, since
    Dirichlet nodes jump by the escalation factor by construction.
    """
    if len(fields) < 2:
        raise ConfigError("need at least two truncation levels")
    levels = [M for M, _ in fields]
    arrays = [np.asarray(u) for _, u in fields]
    if any(m2 <= m1 for m1, m2 in zip(levels, levels[1:])):
        raise ConfigError("fields must come in increasing truncation order")
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
    ok = worst[0] <= 1e-10
    return {
        "monotone": bool(ok),
        "worst_violation": float(worst[0]),
        "worst_pair": worst[1],
        "increments": increments,
    }


def growth_check(fld):
    """Min/max of d^((n-2)/2) u near the blow-up boundary, 0 < d <= 0.1."""
    m = 0.5 * (fld.n - 2.0)
    r = fld.radii()
    mask = (fld.d <= 0.1) & (fld.d > 0)
    if fld.domain.reduction != BALL:
        mask &= fld.domain.reporting_rows(r)
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
    r = fld_a.r
    u = fld_a.u[:, 0] + fld_b.u[:, 0]
    du, d2u = derivative_arrays(r, u)
    lap = d2u[1:-1] + (n - 1.0) / r[1:-1] * du[1:-1]
    return lap - coef * u[1:-1] ** p
