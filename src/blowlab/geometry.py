"""Boundary hypersurfaces, signed distances, tangent cones and the map T.

A corner of the domain boundary is described by k C^2 graph surfaces
S_i = {x_n = f_i(x')} through the origin with linearly independent unit
normals nu_i at 0.  The straightening diffeomorphism matches signed
distances to the surfaces with signed distances to their tangent planes:

    T = T_P^{-1} o T_S,
    T_S(x) = (d_S1(x), .., d_Sk(x), <nu_{k+1}, x>, .., <nu_n, x>),

where T_P is the linear map assembled from the plane normals, inverted
once.  T fixes the origin, has Jacobian I there, and moves points by
O(|x|^2), which is what transfers cone asymptotics onto curved corners.
The tangent cone is described once, by the fan of the normals nu_i
(`HyperplaneFan`): `build_T` straightens onto it, and `tangent_cone`
returns it as those normals, the test <nu_i, x> > 0 for every i, and its
spherical section.

Foot points for d_S are found by damped Newton on the graph
parameterization with a fan of perturbed seeds, keeping the closest
converged candidate.  `signed_distance`, `apply_T` and `jacobian_T` take
one point (n,) or a batch (P, n): one Newton runs over all P x FOOT_SEEDS
rows at once, each row with its own convergence test and backtracking
step.  Every reduction is taken per row (one BLAS dot or matrix-vector
product, an ordered sum), and a power of a per-row value goes through
np.float_power, libm's pow as in a NumPy scalar's `**` (an array's `**`
rounds differently), so a point's value is the same float alone or
inside any batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, FootPointError
from .polynomials import Polynomial
from .profiles import SphericalDomain1D

__all__ = [
    "GraphSurface",
    "HyperplaneFan",
    "TangentConeSpec",
    "DiffeoT",
    "plane_surface",
    "paraboloid_surface",
    "sphere_surface",
    "signed_distance",
    "tangent_cone",
    "build_T",
    "apply_T",
    "jacobian_T",
]

# foot-point Newton: gradient tolerance relative to the point's scale,
# iterations per seed, and seeds (the point's own foot and a fan around it)
FOOT_TOL = 1e-12
FOOT_MAX_ITER = 60
FOOT_SEEDS = 5


def _dot(a, b):
    """Row-wise dot product over the last axis, one BLAS dot per row."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _norm(a):
    """Row-wise Euclidean norm, the float np.linalg.norm gives one row."""
    return np.sqrt(_dot(a, a))


def _matvec(a, x):
    """a @ x for each row of x, one matrix-vector product per row."""
    return np.matmul(a, x[..., None])[..., 0]


class PolyGraph:
    """Graph function given by a polynomial coefficient table.

    `value`, `grad` and `hess` take a point (d,) or a batch (B, d); a
    `Polynomial` value does not depend on the batch it is evaluated in.
    """

    def __init__(self, poly):
        self.poly = poly
        self._grad = poly.gradient()
        self._hess = poly.hessian()

    def value(self, y):
        return self.poly(y)

    def grad(self, y):
        return np.stack([g(y) for g in self._grad], axis=-1)

    def hess(self, y):
        return np.stack([np.stack([h(y) for h in row], axis=-1)
                         for row in self._hess], axis=-2)

    def c2_seminorm(self, radius):
        # crude but safe on the fixture scale: sample the Hessian norm
        if all(not self._hess[i][j].terms for i in range(self.poly.dim)
               for j in range(self.poly.dim)):
            return 0.0
        grid = np.linspace(-radius, radius, 9)
        mesh = np.meshgrid(*([grid] * self.poly.dim), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        pts = pts[_norm(pts) <= radius]
        return float(np.max(np.linalg.norm(self.hess(pts), 2, axis=(-2, -1))))


class SphereCapGraph:
    """Lower cap of the sphere |y - R0 e_n| = R0 as a graph over y'.

    `value`, `grad` and `hess` take a point (d,) or a batch (B, d).
    """

    def __init__(self, radius):
        self.radius = float(radius)

    def _root(self, y):
        # sqrt(R0^2 - |y|^2), kept as a trailing axis of length 1
        return np.sqrt(self.radius**2 - np.sum(y**2, axis=-1, keepdims=True))

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return self.radius - self._root(y)[..., 0]

    def grad(self, y):
        y = np.asarray(y, dtype=float)
        return y / self._root(y)

    def hess(self, y):
        y = np.asarray(y, dtype=float)
        s = self._root(y)[..., None]
        return (np.eye(y.shape[-1]) / s
                + y[..., :, None] * y[..., None, :] / np.float_power(s, 3))

    def c2_seminorm(self, radius):
        rim = min(radius, 0.9 * self.radius)
        s = np.sqrt(self.radius**2 - rim**2)
        return self.radius**2 / s**3


@dataclass
class GraphSurface:
    """C^2 hypersurface {x_n = f(x')} in its own graph frame.

    `rotation` maps ambient coordinates to the graph frame; the identity
    for fixtures whose chart axis is already e_n.
    """

    n: int
    graph: object
    chart_radius: float = 1.0
    rotation: np.ndarray = None

    def __post_init__(self):
        if self.n < 3:
            raise ConfigError("ambient dimension must be >= 3")
        if self.rotation is None:
            self.rotation = np.eye(self.n)
        self.rotation = np.asarray(self.rotation, dtype=float)
        if not np.allclose(self.rotation @ self.rotation.T, np.eye(self.n), atol=1e-12):
            raise ConfigError("rotation must be orthonormal")
        origin = np.zeros(self.n - 1)
        # negated tests, so that a NaN value or gradient fails them
        if not abs(self.graph.value(origin)) <= 1e-12:
            raise ConfigError("surface must pass through the origin: f(0') = 0")
        grad0 = self.graph.grad(origin)
        nu_graph = np.append(-grad0, 1.0) / np.sqrt(1.0 + grad0 @ grad0)
        if not nu_graph[-1] > 0:
            raise ConfigError("normal must satisfy <nu, e_n> > 0 in the graph frame")
        self._nu_graph = nu_graph

    def to_graph(self, x):
        return _matvec(self.rotation, np.asarray(x, dtype=float))

    def c2_bound_on(self, radius):
        """C^2 seminorm of the graph over a ball of the given radius."""
        return float(self.graph.c2_seminorm(min(radius, self.chart_radius)))

    def normal_at_origin(self):
        """Unit normal at 0 in ambient coordinates."""
        return self.rotation.T @ self._nu_graph


def plane_surface(n, normal):
    """Hyperplane through 0 with the given (not necessarily unit) normal."""
    nu = np.asarray(normal, dtype=float)
    nu = nu / np.linalg.norm(nu)
    rot = _rotation_aligning(nu, n)
    return GraphSurface(n=n, graph=PolyGraph(Polynomial.zero(n - 1)),
                        rotation=rot)


def paraboloid_surface(n, coeff=1.0):
    """f(x') = coeff |x'|^2 in the standard frame."""
    poly = coeff * Polynomial.radius_squared(n - 1)
    return GraphSurface(n=n, graph=PolyGraph(poly))


def sphere_surface(n, radius=1.0):
    """Sphere of given radius through 0 with inward normal e_n at 0."""
    return GraphSurface(n=n, graph=SphereCapGraph(radius),
                        chart_radius=0.8 * radius)


def _rotation_aligning(nu, n):
    """Orthonormal map sending ambient nu to the graph-frame e_n."""
    basis = _complete_basis(nu.reshape(1, -1), n)
    return np.vstack([basis, nu])


def _complete_basis(rows, n):
    """Rows of an orthonormal basis of the orthogonal complement of `rows`."""
    _, _, vt = np.linalg.svd(rows)
    return vt[rows.shape[0]:]


def _batch(x):
    """(points as a C-ordered (P, n) array, whether x was one point)."""
    x = np.asarray(x, dtype=float)
    return np.ascontiguousarray(np.atleast_2d(x)), x.ndim == 1


def signed_distance(surface, x):
    """Signed distance from x to the surface, foot point by damped Newton.

    x is one point (n,), giving a float, or a batch (P, n), giving (P,).
    Sign follows the side of the graph: positive where x_n > f(x').
    Multi-start from perturbed seeds; the closest converged foot wins.
    """
    pts, single = _batch(x)
    y_full = surface.to_graph(pts)
    radius = _norm(y_full)
    outside = radius >= surface.chart_radius
    if outside.any():
        raise DomainError(
            f"point at |x| = {radius[outside.argmax()]:.3g} outside chart "
            f"radius {surface.chart_radius:.3g}"
        )
    yp, yn = y_full[:, :-1], y_full[:, -1]
    f = surface.graph
    sign = np.sign(yn - f.value(yp))

    # seeds: the point's own foot and a fan around it, rows (point, seed)
    count, dim = yp.shape
    scale = np.maximum(radius, 0.05)
    seeds = np.repeat(yp[:, None, :], FOOT_SEEDS, axis=1)
    for i in range(FOOT_SEEDS - 1):
        delta = np.zeros((count, dim))
        delta[:, i % dim] = 0.35 * scale * (1 if i % 2 == 0 else -1)
        seeds[:, i + 1] = yp + delta
    yp_rows = np.repeat(yp, FOOT_SEEDS, axis=0)
    yn_rows = np.repeat(yn, FOOT_SEEDS)
    feet, ok = _project_to_graph(f, yp_rows, yn_rows, seeds.reshape(-1, dim))

    dist = np.full(count * FOOT_SEEDS, np.inf)
    dist[ok] = np.sqrt(np.sum((yp_rows[ok] - feet[ok]) ** 2, axis=-1)
                       + np.float_power(yn_rows[ok] - f.value(feet[ok]), 2))
    failed = ~ok.reshape(count, FOOT_SEEDS).any(axis=1)
    if failed.any():
        point = pts[failed.argmax()]
        raise FootPointError(
            f"foot-point projection failed from all {FOOT_SEEDS} seeds "
            f"at x = {point}",
            point=point,
        )
    out = sign * dist.reshape(count, FOOT_SEEDS).min(axis=1)
    return float(out[0]) if single else out


def _project_to_graph(f, yp, yn, seeds):
    """Damped Newton on y' -> 0.5(|y'-yp|^2 + (yn-f(y'))^2), one row per seed.

    Every row has its own convergence test, backtracking step and floor
    test.  Returns the last iterates and the mask of rows that converged.
    """
    y = seeds.copy()
    ok = np.zeros(len(y), dtype=bool)

    def objective(z, rows):
        return 0.5 * (np.sum((z - yp[rows]) ** 2, axis=-1)
                      + np.float_power(yn[rows] - f.value(z), 2))

    live = np.arange(len(y))
    val = objective(y, live)
    scale = 1.0 + _norm(yp) + np.abs(yn)
    dim = y.shape[1]
    eye = np.eye(dim)
    for _ in range(FOOT_MAX_ITER):
        z, lim = y[live], scale[live]
        fz = f.value(z)
        gz = f.grad(z)
        res = yn[live] - fz
        grad = (z - yp[live]) - res[:, None] * gz
        gnorm = _norm(grad)
        done = gnorm <= FOOT_TOL * lim
        ok[live[done]] = True
        go = ~done
        live, z, lim, gz, res, grad, gnorm = (
            a[go] for a in (live, z, lim, gz, res, grad, gnorm))
        if not live.size:
            break
        hess = (eye + gz[:, :, None] * gz[:, None, :]
                - res[:, None, None] * f.hess(z))
        step = _newton_steps(hess, grad)
        uphill = _dot(step, grad) > 0
        step[uphill] = -grad[uphill]

        # backtracking: the full step first; a row whose full step does not
        # lower its objective tries its halvings t = 2^-1 .. 2^-29 at once
        # and takes the longest that does
        cand = z + step
        cand_val = objective(cand, live)
        rows = np.flatnonzero(~(cand_val < val[live]))
        t = np.ldexp(1.0, -np.arange(1, 30))[:, None]
        trial = z[rows, None] + t * step[rows, None]
        trial_val = objective(trial.reshape(-1, dim),
                              np.repeat(live[rows], len(t)))
        trial_val = trial_val.reshape(trial.shape[:2])
        down = trial_val < val[live[rows], None]
        found, first = down.any(axis=1), down.argmax(axis=1)
        cand[rows[found]] = trial[found, first[found]]
        cand_val[rows[found]] = trial_val[found, first[found]]
        # objective at the rounding floor: accept if first-order small
        floor = rows[~found]
        ok[live[floor]] = gnorm[floor] <= 1e-9 * lim[floor]
        moved = np.ones(len(live), dtype=bool)
        moved[floor] = False
        y[live[moved]] = cand[moved]
        val[live[moved]] = cand_val[moved]
        live = live[moved]
    return y, ok


def _newton_steps(hess, grad):
    """Newton step of each row; steepest descent where a Hessian is singular."""
    try:
        return np.linalg.solve(hess, -grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(grad) == 1:
            return -grad
        return np.concatenate([_newton_steps(hess[i:i + 1], grad[i:i + 1])
                               for i in range(len(grad))])


@dataclass
class HyperplaneFan:
    """Unit normals nu_1..nu_k completed to a basis adapted to the corner."""

    normals: np.ndarray                        # (k, n)
    completion: np.ndarray = field(init=False)  # (n-k, n)

    def __post_init__(self):
        self.normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        k, n = self.normals.shape
        if k > n:
            raise ConfigError("more normals than ambient dimensions")
        norms = np.linalg.norm(self.normals, axis=1)
        # negated tests, so that NaN fails them
        if not np.all(np.abs(norms - 1.0) <= 1e-10):
            raise ConfigError("fan normals must be unit vectors")
        gram = self.normals @ self.normals.T
        if not abs(np.linalg.det(gram)) >= 1e-12:
            i, j = _most_dependent_pair(self.normals)
            raise ConfigError(
                f"normals are linearly dependent (offending pair {i}, {j})"
            )
        self.completion = _complete_basis(self.normals, n)

    @property
    def k(self):
        return self.normals.shape[0]

    @property
    def n(self):
        return self.normals.shape[1]

    def matrix(self):
        """Rows nu_1..nu_n of the full frame (planes then completion)."""
        return np.vstack([self.normals, self.completion])


def _most_dependent_pair(normals):
    """The first pair i < j of the largest |<nu_i, nu_j>|."""
    cos = np.triu(np.abs(normals @ normals.T), 1)
    return np.unravel_index(np.argmax(cos), cos.shape)


@dataclass
class TangentConeSpec:
    """Dilation-invariant cone {x : <nu_i, x> > 0 for every i} at the
    origin, with its spherical section (None for k >= 3 normals)."""

    normals: np.ndarray                    # (k, n) unit normals of the fan
    section: SphericalDomain1D = None

    def contains(self, x):
        return bool(np.all(self.normals @ np.asarray(x, dtype=float) > 0))


def _tangent_fan(surfaces):
    """The fan of the surfaces' unit normals at 0, which checks them."""
    if not surfaces:
        raise ConfigError("need at least one surface")
    return HyperplaneFan(np.vstack([s.normal_at_origin() for s in surfaces]))


def tangent_cone(surfaces):
    """Intersection of the tangent half-spaces of the surfaces at 0; its
    section is the half-sphere (one) or the arc pi - angle(nu_1, nu_2) (two)."""
    normals = _tangent_fan(surfaces).normals
    section = None
    if len(normals) == 1:
        section = SphericalDomain1D.polar_cap(np.pi / 2)
    elif len(normals) == 2:
        section = SphericalDomain1D.arc(
            np.pi - np.arccos(np.clip(normals[0] @ normals[1], -1.0, 1.0)))
    return TangentConeSpec(normals, section)


@dataclass
class DiffeoT:
    """Signed-distance straightening map onto the tangent cone."""

    surfaces: list
    fan: HyperplaneFan
    r_T: float = field(init=False)
    _frame_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # self-consistent radius: r <= 0.25 / C2-seminorm measured on the
        # ball of radius r itself, which keeps every point well inside the
        # tubular neighbourhood (unique feet need |x| < 1/(2 |D^2 f|)); a
        # few fixed-point sweeps settle it
        r = 0.25
        for _ in range(12):
            worst = max((s.c2_bound_on(1.2 * r) for s in self.surfaces),
                        default=0.0)
            r_new = min(0.25, 0.25 / worst) if worst > 0 else 0.25
            if abs(r_new - r) < 1e-6:
                r = r_new
                break
            r = 0.5 * (r + r_new)
        self.r_T = r
        self._frame_inv = np.linalg.inv(self.fan.matrix())

    @property
    def n(self):
        return self.fan.n

    def distance_vector(self, x):
        x = np.asarray(x, dtype=float)
        k = self.fan.k
        d = np.empty(x.shape[:-1] + (self.n,))
        for i, s in enumerate(self.surfaces[:k]):
            d[..., i] = signed_distance(s, x)
        d[..., k:] = _matvec(self.fan.completion, x)
        return d


def build_T(surfaces):
    return DiffeoT(surfaces=list(surfaces), fan=_tangent_fan(surfaces))


def apply_T(tmap, x):
    """x-bar with d_{S_i}(x) = d_{P_i}(x-bar), completion distances kept.

    x is one point (n,) or a batch (P, n); the result has its shape.
    """
    pts, single = _batch(x)
    radius = _norm(pts)
    outside = radius >= tmap.r_T
    if outside.any():
        raise DomainError(
            f"|x| = {radius[outside.argmax()]:.3g} outside the straightening "
            f"radius {tmap.r_T:.3g}"
        )
    out = _matvec(tmap._frame_inv, tmap.distance_vector(pts))
    return out[0] if single else out


def jacobian_T(tmap, x):
    """Central finite-difference Jacobian, step 1e-5 max(|x|, 1e-3).

    The 2n stencil points x + h e_j, x - h e_j go through T as one batch.
    """
    x = np.asarray(x, dtype=float)
    h = 1e-5 * max(np.linalg.norm(x), 1e-3)
    steps = h * np.eye(x.size)
    stencil = np.stack([x + steps, x - steps], axis=1).reshape(-1, x.size)
    image = apply_T(tmap, stencil)
    return np.ascontiguousarray(((image[0::2] - image[1::2]) / (2.0 * h)).T)
