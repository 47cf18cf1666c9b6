"""Structure-condition elliptic operators and the conformal Laplacian.

Operators L = sum a_ij d_ij + sum b_i d_i + c that are quadratic
perturbations of the Laplacian near the origin, quantified by the
structure constant C_L:

    sum |a_ij - delta_ij| + |x| sum |b_i| + |x|^2 |c|  <=  C_L |x|^2.

Metric perturbations are registered as polynomial tables h_ij with
h = O(|x|^2) enforced, matching a normal coordinate system at 0.  The
conformal Laplacian of such a metric expands to divergence form with

    a = g^ij,  b_i = det(g)^(-1/2) d_j (det(g)^(1/2) g^(ji)),
    c = -(n-2)/(4(n-1)) S_g,

where first metric derivatives are exact (polynomial calculus) and the
scalar curvature is built from fourth-order finite differences of the
Christoffel symbols, cross-checked by a half-step Richardson pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, StructureViolationError
from .polynomials import Polynomial

__all__ = [
    "MetricFamily",
    "OperatorSpec",
    "TensorMesh",
    "conformal_quadratic_metric",
    "conformal_operator",
    "structure_constant",
    "apply_operator",
    "euclidean_operator",
    "scalar_curvature",
]

CURVATURE_STEP = 1e-3
CURVATURE_CHECK_TOL = 1e-4


@dataclass
class MetricFamily:
    """Metric g_ij = delta_ij + h_ij with polynomial h vanishing to 2nd order."""

    n: int
    h: list                     # n x n nested list of Polynomial (symmetric)
    label: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.n
        if len(self.h) != n or any(len(row) != n for row in self.h):
            raise ConfigError("h must be an n x n table")
        for i in range(n):
            for j in range(n):
                hij = self.h[i][j]
                if hij.terms != self.h[j][i].terms:
                    raise ConfigError("h must be symmetric")
                if hij.terms and hij.min_degree() < 2:
                    raise ConfigError(
                        "h must vanish to second order at 0 (normal coordinates)"
                    )
        self._check_positive_definite()

    def _check_positive_definite(self, radius=2.0, samples=256):
        pts = _ball_samples(self.n, radius, samples, seed=7)
        g = self.metric(pts)
        eigs = np.linalg.eigvalsh(g)
        if np.min(eigs) <= 0:
            raise ConfigError(
                f"metric not positive definite on B_{radius} "
                f"(min eigenvalue {np.min(eigs):.3e})"
            )

    def metric(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        P = pts.shape[0]
        g = np.zeros((P, self.n, self.n))
        for i in range(self.n):
            g[:, i, i] = 1.0
            for j in range(self.n):
                if self.h[i][j].terms:
                    g[:, i, j] += self.h[i][j](pts)
        return g

    def dmetric(self, points):
        """Exact first derivatives d_k g_ij, shape (P, n, n, n), index [p,k,i,j]."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        P = pts.shape[0]
        dg = np.zeros((P, self.n, self.n, self.n))
        for i in range(self.n):
            for j in range(self.n):
                if not self.h[i][j].terms:
                    continue
                for k in range(self.n):
                    dk = self.h[i][j].derivative(k)
                    if dk.terms:
                        dg[:, k, i, j] += dk(pts)
        return dg

    def christoffel(self, points):
        """Gamma^k_ij, shape (P, n, n, n), index [p,k,i,j]."""
        g = self.metric(points)
        dg = self.dmetric(points)
        ginv = np.linalg.inv(g)
        # bracket_{l ij} = d_i g_jl + d_j g_il - d_l g_ij, built index by
        # index to keep the bookkeeping readable
        P = g.shape[0]
        n = self.n
        bracket = np.empty((P, n, n, n))
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    bracket[:, l, i, j] = dg[:, i, j, l] + dg[:, j, i, l] - dg[:, l, i, j]
        return 0.5 * np.einsum("pkl,plij->pkij", ginv, bracket)


def _ball_samples(n, radius, count, seed=0, exclude_inner=0.0):
    """Deterministic quasi-random samples in the ball of given radius."""
    from scipy.stats import qmc

    sampler = qmc.Halton(d=n, scramble=True, seed=seed)
    pts = []
    need = count
    while need > 0:
        cand = radius * (2.0 * sampler.random(2 * need + 16) - 1.0)
        rad = np.linalg.norm(cand, axis=1)
        keep = cand[(rad < radius) & (rad > exclude_inner)]
        pts.append(keep[:need])
        need -= len(keep[:need])
    return np.vstack(pts)


def conformal_quadratic_metric(n, q):
    """g = (1 + q|x|^2)^(4/(n-2)) delta as a polynomial table.

    The conformal exponent 4/(n-2) must be an integer (n in {3, 4, 6});
    other dimensions would not have polynomial entries.
    """
    k, rem = divmod(4, n - 2)
    if rem:
        raise ConfigError(
            f"conformal-quadratic family needs integer 4/(n-2); n={n} is not supported"
        )
    r2 = Polynomial.radius_squared(n)
    factor = (Polynomial.constant(n, 1.0) + q * r2) ** k - Polynomial.constant(n, 1.0)
    zero = Polynomial.zero(n)
    h = [[factor if i == j else zero for j in range(n)] for i in range(n)]
    return MetricFamily(n=n, h=h, label="conformal-quadratic", params={"q": q})


def scalar_curvature(metric, points, step=CURVATURE_STEP, check=True):
    """S_g by 4th-order central differences of the Christoffel symbols.

    The derivative step halves for a Richardson consistency pass; relative
    disagreement beyond CURVATURE_CHECK_TOL raises.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))

    def curvature_at(h):
        n = metric.n
        P = pts.shape[0]
        dGamma = np.empty((P, n, n, n, n))  # [p, mu, k, i, j] = d_mu Gamma^k_ij
        for mu in range(n):
            e = np.zeros(n)
            e[mu] = h
            gp2 = metric.christoffel(pts + 2 * e)
            gp1 = metric.christoffel(pts + e)
            gm1 = metric.christoffel(pts - e)
            gm2 = metric.christoffel(pts - 2 * e)
            dGamma[:, mu] = (-gp2 + 8 * gp1 - 8 * gm1 + gm2) / (12.0 * h)
        gam = metric.christoffel(pts)
        ginv = np.linalg.inv(metric.metric(pts))
        # R_ij = d_mu Gamma^mu_ij - d_i Gamma^mu_mu j + G^mu_mu l G^l_ij - G^mu_il G^l_mu j
        term1 = np.einsum("pmmij->pij", dGamma)
        term2 = np.einsum("pimmj->pij", dGamma)
        trG = np.einsum("pmml->pl", gam)
        term3 = np.einsum("pl,plij->pij", trG, gam)
        term4 = np.einsum("pmil,plmj->pij", gam, gam)
        ricci = term1 - term2 + term3 - term4
        return np.einsum("pij,pij->p", ginv, ricci)

    s = curvature_at(step)
    if check:
        s_half = curvature_at(0.5 * step)
        scale = np.maximum(np.abs(s_half), 1.0)
        worst = np.max(np.abs(s - s_half) / scale)
        if worst > CURVATURE_CHECK_TOL:
            raise StructureViolationError(
                f"curvature FD disagreement {worst:.3e} between steps "
                f"{step:g} and {0.5 * step:g}"
            )
    return s


@dataclass
class OperatorSpec:
    """Coefficient evaluators of L = sum a_ij d_ij + sum b_i d_i + c."""

    n: int
    a: callable                 # (P, n) -> (P, n, n)
    b: callable                 # (P, n) -> (P, n)
    c: callable                 # (P, n) -> (P,)
    label: str = ""
    validity_radius: float = 2.0

    @cached_property
    def c_l(self):
        """Structure constant, measured at first read on the unit ball.

        Only certificates read it; `structure_constant` with its default
        sample (4096 points, seed 11) fixes the value.
        """
        return structure_constant(self, 1.0)

    def coefficients(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.a(pts), self.b(pts), self.c(pts)

    @property
    def is_euclidean(self):
        return self.label == "euclidean"


def euclidean_operator(n):
    def a(pts):
        P = pts.shape[0]
        out = np.zeros((P, n, n))
        idx = np.arange(n)
        out[:, idx, idx] = 1.0
        return out

    spec = OperatorSpec(
        n=n,
        a=a,
        b=lambda pts: np.zeros((pts.shape[0], n)),
        c=lambda pts: np.zeros(pts.shape[0]),
        label="euclidean",
    )
    spec.c_l = 0.0   # exact: a = delta, b = 0, c = 0; no sample needed
    return spec


def conformal_operator(metric):
    """Expand the conformal Laplacian of `metric` into (a, b, c).

    a = g^ij exactly; b from exact first derivatives of det(g)^(1/2) g^(ij);
    c = -(n-2)/(4(n-1)) S_g with the FD/Richardson curvature pipeline.
    The structure constant `c_l` is measured when first read.
    """
    n = metric.n
    cn = (n - 2.0) / (4.0 * (n - 1.0))

    def a_eval(pts):
        return np.linalg.inv(metric.metric(pts))

    def b_eval(pts):
        g = metric.metric(pts)
        dg = metric.dmetric(pts)
        ginv = np.linalg.inv(g)
        # d_j g^{ji}: sandwich rule, then the log-volume correction
        dginv_diag = -np.einsum("pja,pjab,pbi->pi", ginv, dg, ginv)
        trace_term = 0.5 * np.einsum("pab,pjab,pji->pi", ginv, dg, ginv)
        return dginv_diag + trace_term

    def c_eval(pts):
        return -cn * scalar_curvature(metric, pts)

    label = metric.label or "metric"
    if metric.params:
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(metric.params.items()))
        label = f"{label}({inner},n={n})"
    return OperatorSpec(n=n, a=a_eval, b=b_eval, c=c_eval, label=label)


def structure_constant(spec, radius, samples=4096, seed=11, inner_exclusion=1e-4):
    """Supremum of the structure ratio on a quasi-random ball sample."""
    if radius > spec.validity_radius:
        raise DomainError(
            f"radius {radius} exceeds the operator validity ball {spec.validity_radius}"
        )
    pts = _ball_samples(spec.n, radius, samples, seed=seed, exclude_inner=inner_exclusion)
    a, b, c = spec.coefficients(pts)
    r = np.linalg.norm(pts, axis=1)
    delta = np.eye(spec.n)
    num = (
        np.sum(np.abs(a - delta), axis=(1, 2))
        + r * np.sum(np.abs(b), axis=1)
        + r**2 * np.abs(c)
    )
    return float(np.max(num / r**2))


@dataclass(frozen=True)
class TensorMesh:
    """Cartesian tensor-product mesh given by per-axis coordinate arrays."""

    axes: tuple

    def __post_init__(self):
        for ax in self.axes:
            if len(ax) < 3 or np.any(np.diff(ax) <= 0):
                raise ConfigError("each axis needs >= 3 strictly increasing nodes")

    @property
    def shape(self):
        return tuple(len(ax) for ax in self.axes)

    def points(self):
        grids = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


def _axis_d1(coords, f, axis):
    """Second-order first derivative along one axis (one-sided at faces)."""
    x = np.asarray(coords, dtype=float)
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    h_l = (x[1:-1] - x[:-2]).reshape((-1,) + (1,) * (f.ndim - 1))
    h_r = (x[2:] - x[1:-1]).reshape((-1,) + (1,) * (f.ndim - 1))
    out[1:-1] = (
        -h_r / (h_l * (h_l + h_r)) * f[:-2]
        + (h_r - h_l) / (h_l * h_r) * f[1:-1]
        + h_l / (h_r * (h_l + h_r)) * f[2:]
    )
    for idx, o1, o2 in ((0, 1, 2), (-1, -2, -3)):
        h1 = x[o1] - x[idx]
        h2 = x[o2] - x[idx]
        w0 = -(h1 + h2) / (h1 * h2)
        w1 = h2 / (h1 * (h2 - h1))
        w2 = -h1 / (h2 * (h2 - h1))
        out[idx] = w0 * f[idx] + w1 * f[o1] + w2 * f[o2]
    return np.moveaxis(out, 0, axis)


def _axis_d2(coords, f, axis):
    """Second derivative along one axis (copied inward at faces)."""
    x = np.asarray(coords, dtype=float)
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    h_l = (x[1:-1] - x[:-2]).reshape((-1,) + (1,) * (f.ndim - 1))
    h_r = (x[2:] - x[1:-1]).reshape((-1,) + (1,) * (f.ndim - 1))
    out[1:-1] = 2.0 * (
        f[:-2] / (h_l * (h_l + h_r))
        - f[1:-1] / (h_l * h_r)
        + f[2:] / (h_r * (h_l + h_r))
    )
    out[0] = out[1]
    out[-1] = out[-2]
    return np.moveaxis(out, 0, axis)


def apply_operator(spec, fld, mesh):
    """Nodewise second-order centered application of L to a grid field."""
    fld = np.asarray(fld, dtype=float)
    if fld.shape != mesh.shape:
        raise ConfigError(f"field shape {fld.shape} does not match mesh {mesh.shape}")
    if len(mesh.axes) != spec.n:
        raise ConfigError("mesh dimensionality does not match the operator")
    n = spec.n
    pts = mesh.points()
    a, b, c = spec.coefficients(pts)
    a = a.reshape(mesh.shape + (n, n))
    b = b.reshape(mesh.shape + (n,))
    c = c.reshape(mesh.shape)

    d1 = [_axis_d1(mesh.axes[i], fld, i) for i in range(n)]
    out = c * fld
    for i in range(n):
        out += b[..., i] * d1[i]
        out += a[..., i, i] * _axis_d2(mesh.axes[i], fld, i)
        for j in range(i + 1, n):
            mixed = _axis_d1(mesh.axes[j], d1[i], j)
            out += 2.0 * a[..., i, j] * mixed
    return out
