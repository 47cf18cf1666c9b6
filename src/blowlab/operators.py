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

where every metric derivative is exact (polynomial calculus on h) and
the scalar curvature is contracted in closed form from g^-1, dg and the
nonzero entries of the second-derivative table; no finite difference is
taken, and no dense (P, n^4) second-derivative array is formed.

A metric keeps, per derivative order, the distinct nonzero derivative
polynomials of h and the entries each one fills, built on first use; a
call evaluates each polynomial once.  An operator has one coefficient
evaluator (P, n) -> (a, b, c): the conformal one forms g^-1, dg, Gamma
and the second-derivative values once per call and shares them between
a, b and S_g.  `OperatorSpec.coefficients` calls it on chunks of points
sized by a byte budget.  This module applies no operator to a field: the
solvers of `blowlab.solver` push the coefficients onto their own 2-D
stencil and radial rows.

One sampler, `_ball_points`, draws the points of C_L and of the metric's
positive-definiteness check, with NumPy alone (no `scipy.stats`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError
from .polynomials import Polynomial

__all__ = [
    "MetricFamily",
    "OperatorSpec",
    "conformal_quadratic_metric",
    "conformal_operator",
    "structure_constant",
    "euclidean_operator",
    "scalar_curvature",
]

# bytes per evaluator call of one n^3-double temporary (Gamma, its bracket,
# the A_i, or the second-derivative weights of a diagonal h): a call takes
# COEFFICIENT_BYTES / (8 n^3) points, 2048 at n = 3 and 256 at n = 6
COEFFICIENT_BYTES = 2048 * 3**3 * 8

# contraction order of the three-operand einsums in `_metric_terms`: the
# second operand with the third, then the first with that.  einsum's own
# search picks this order at every n and batch size; fixed here, no call
# searches it again
PAIRWISE = ["einsum_path", (1, 2), (0, 1)]

# radius of the ball B_2 on which a metric must be positive definite and
# inside which `structure_constant` may sample an operator
VALIDITY_RADIUS = 2.0


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
        self._tables = {}
        self._check_positive_definite()

    def _check_positive_definite(self):
        g = self.metric(_ball_points(self.n, VALIDITY_RADIUS, 256, seed=7))
        # eigvalsh cannot take a non-finite sample: NaN stands in and fails
        low = np.min(np.linalg.eigvalsh(g)) if np.isfinite(g).all() else np.nan
        if not low > 0:
            raise ConfigError(
                f"metric not positive definite on B_{VALIDITY_RADIUS} "
                f"(min eigenvalue {low:.3e})"
            )

    def _table(self, order):
        """The distinct nonzero polynomials d_k..d_l h_ij of one order; for
        each index [k, .., l, i, j] its polynomial's column (the last
        column, len(polys), holds zeros); and the nonzero entries, as
        order + 2 index arrays k, .., l, i, j and their columns.  Built
        once per metric and order."""
        if order not in self._tables:
            polys, column = [], {}
            index = np.full((self.n,) * (order + 2), -1, dtype=np.intp)
            for idx in np.ndindex(index.shape):
                poly = self.h[idx[-2]][idx[-1]]
                for k in idx[:-2]:
                    poly = poly.derivative(k)
                if poly.terms:
                    if id(poly) not in column:
                        column[id(poly)] = len(polys)
                        polys.append(poly)
                    index[idx] = column[id(poly)]
            nonzero = np.nonzero(index >= 0)
            index[index < 0] = len(polys)
            self._tables[order] = (polys, index, nonzero + (index[nonzero],))
        return self._tables[order]

    def _values(self, order, pts):
        """The polynomials of `_table(order)` at (P, n) points, shape
        (P, len(polys) + 1), the last column zero."""
        polys = self._table(order)[0]
        values = np.zeros((pts.shape[0], len(polys) + 1))
        for col, poly in enumerate(polys):
            values[:, col] = poly(pts)
        return values

    def derivatives(self, order, points):
        """Exact d_k..d_l h_ij (= d_k..d_l g_ij for order >= 1), shape
        (P,) + (n,) * (order + 2), index [p, k, .., l, i, j]."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.take(self._values(order, pts), self._table(order)[1], axis=1)

    def metric(self, points):
        return np.eye(self.n) + self.derivatives(0, points)

    def christoffel(self, points):
        """Gamma^k_ij, shape (P, n, n, n), index [p,k,i,j]."""
        return _christoffel(np.linalg.inv(self.metric(points)),
                            self.derivatives(1, points))


def _christoffel(ginv, dg):
    """Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2 as one
    batched matmul; dg[p,k,i,j] = d_k g_ij."""
    P, n = ginv.shape[:2]
    lead = np.transpose(dg, (0, 3, 1, 2))        # [p,l,i,j] = d_i g_jl
    bracket = lead + np.swapaxes(lead, 2, 3) - dg
    return 0.5 * (ginv @ bracket.reshape(P, n, n * n)).reshape(P, n, n, n)


def _ball_points(n, radius, count, seed):
    """`count` points uniform in the n-ball of `radius`, drawn with `seed`:
    a normal direction times a radius whose n-th power is uniform."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((count, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * (radius * rng.uniform(size=count) ** (1.0 / n))[:, None]


def conformal_quadratic_metric(n, q):
    """g = (1 + q|x|^2)^(4/(n-2)) delta as a polynomial table.

    The conformal exponent 4/(n-2) must be an integer (n in {3, 4, 6});
    other dimensions would not have polynomial entries.
    """
    if n < 3:
        raise ConfigError("dimension must satisfy n >= 3")
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


def scalar_curvature(metric, points):
    """S_g = g^ij R_ij in closed form from exact derivatives of g."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _metric_terms(metric, pts)[2]


def _metric_terms(metric, pts):
    """(g^-1, Gamma, S_g) at pts, each metric derivative evaluated once.

    With d g^-1 = -g^-1 (dg) g^-1, G^m_mj = d_j log sqrt(det g) and
    A_i = g^-1 d_i g, the two derivative terms of the traced Ricci tensor
    R_ij = d_m G^m_ij - d_i G^m_mj + G^m_ml G^l_ij - G^m_il G^l_mj are
      g^ij d_m G^m_ij = g^ml g^ij (d_m d_i g_jl - d_m d_l g_ij / 2)
                        - g^ma d_m g_ak g^ij G^k_ij,
      g^ij d_i G^m_mj = g^ij g^ml d_i d_j g_ml / 2 - g^ij tr(A_i A_j) / 2,
    so no derivative of G is formed.  Their second-derivative parts add up
    to a sum over the nonzero entries d_k d_l g_ij of the metric's table,
      g^ml g^ij d_m d_i g_jl - g^ij g^ml d_i d_j g_ml
        = sum d_k d_l g_ij (g^kj g^li - g^kl g^ij),
    so the largest arrays are (P, entries) and (P, n^3), never (P, n^4).
    """
    ginv = np.linalg.inv(metric.metric(pts))
    dg = metric.derivatives(1, pts)
    gam = _christoffel(ginv, dg)
    P, n = ginv.shape[:2]
    k, l, i, j, col = metric._table(2)[2]
    g = ginv.reshape(P, n * n).T
    terms = metric._values(2, pts).T[col] * (g[k * n + j] * g[l * n + i]
                                             - g[k * n + l] * g[i * n + j])
    second = np.zeros(P)
    for term in terms:      # in order; a reduction's order depends on P
        second += term
    a = ginv[:, None] @ dg                          # [p,i,a,b] = (A_i)_ab
    trace_aa = np.einsum("pij,piab,pjba->p", ginv, a, a, optimize=PAIRWISE)
    drift = np.einsum("pma,pmak->pk", ginv, dg) - np.einsum("pmmk->pk", gam)
    quad = np.einsum("pij,pmil,plmj->p", ginv, gam, gam, optimize=PAIRWISE)
    s = (second + 0.5 * trace_aa - quad
         - np.einsum("pk,pij,pkij->p", drift, ginv, gam, optimize=PAIRWISE))
    return ginv, gam, s


@dataclass
class OperatorSpec:
    """Coefficients of L = sum a_ij d_ij + sum b_i d_i + c from one evaluator."""

    n: int
    evaluate: callable          # (P, n) -> (a (P, n, n), b (P, n), c (P,))
    label: str = ""

    @cached_property
    def c_l(self):
        """Structure constant, measured at first read on the unit ball.

        Only certificates read it; `structure_constant` with its default
        sample (4096 points, seed 11) fixes the value.
        """
        return structure_constant(self, 1.0)

    def coefficients(self, points):
        """(a, b, c) at points, evaluated COEFFICIENT_BYTES / (8 n^3) points
        at a time."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        step = max(1, COEFFICIENT_BYTES // (8 * self.n**3))
        parts = [self.evaluate(pts[k:k + step])
                 for k in range(0, max(len(pts), 1), step)]
        return tuple(np.concatenate(part) for part in zip(*parts))

    @property
    def is_euclidean(self):
        return self.label == "euclidean"


def euclidean_operator(n):
    def evaluate(pts):
        P = pts.shape[0]
        a = np.zeros((P, n, n))
        idx = np.arange(n)
        a[:, idx, idx] = 1.0
        return a, np.zeros((P, n)), np.zeros(P)

    spec = OperatorSpec(n=n, evaluate=evaluate, label="euclidean")
    spec.c_l = 0.0   # exact: a = delta, b = 0, c = 0; no sample needed
    return spec


def conformal_operator(metric):
    """Expand the conformal Laplacian of `metric` into (a, b, c).

    a = g^ij exactly; b = -g^jk Gamma^i_jk from exact first derivatives;
    c = -(n-2)/(4(n-1)) S_g with S_g in closed form from exact first and
    second derivatives.  One pass per call forms g^-1, dg, Gamma and the
    second-derivative values for all three.  The structure constant `c_l`
    is measured when first read.
    """
    n = metric.n
    cn = (n - 2.0) / (4.0 * (n - 1.0))

    def evaluate(pts):
        # det(g)^(-1/2) d_j (det(g)^(1/2) g^ji) = -g^jk Gamma^i_jk
        ginv, gam, s = _metric_terms(metric, pts)
        return ginv, -np.einsum("pjk,pijk->pi", ginv, gam), -cn * s

    label = metric.label or "metric"
    if metric.params:
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(metric.params.items()))
        label = f"{label}({inner},n={n})"
    return OperatorSpec(n=n, evaluate=evaluate, label=label)


def structure_constant(spec, radius, samples=4096, seed=11):
    """Supremum of the structure ratio over a ball sample with |x| > 1e-4."""
    if radius > VALIDITY_RADIUS:
        raise DomainError(
            f"radius {radius} exceeds the operator validity ball {VALIDITY_RADIUS}"
        )
    pts = _ball_points(spec.n, radius, samples, seed)
    r = np.linalg.norm(pts, axis=1)
    pts, r = pts[r > 1e-4], r[r > 1e-4]
    a, b, c = spec.coefficients(pts)
    delta = np.eye(spec.n)
    num = (
        np.sum(np.abs(a - delta), axis=(1, 2))
        + r * np.sum(np.abs(b), axis=1)
        + r**2 * np.abs(c)
    )
    return float(np.max(num / r**2))
