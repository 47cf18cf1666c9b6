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

Foot points for d_S are found by damped Newton on the graph
parameterization with a fan of perturbed seeds, keeping the closest
converged candidate.
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
    "choose_reference_direction",
]


class PolyGraph:
    """Graph function given by a polynomial coefficient table."""

    def __init__(self, poly):
        self.poly = poly
        self._grad = poly.gradient()
        self._hess = poly.hessian()

    def value(self, y):
        return self.poly(y)

    def grad(self, y):
        return np.array([g(y) for g in self._grad])

    def hess(self, y):
        d = self.poly.dim
        return np.array([[self._hess[i][j](y) for j in range(d)] for i in range(d)])

    def c2_seminorm(self, radius):
        # crude but safe on the fixture scale: sample the Hessian norm
        if all(not self._hess[i][j].terms for i in range(self.poly.dim)
               for j in range(self.poly.dim)):
            return 0.0
        grid = np.linspace(-radius, radius, 9)
        worst = 0.0
        mesh = np.meshgrid(*([grid] * self.poly.dim), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        for y in pts:
            if np.linalg.norm(y) <= radius:
                worst = max(worst, np.linalg.norm(self.hess(y), 2))
        return worst


class SphereCapGraph:
    """Lower cap of the sphere |y - R0 e_n| = R0 as a graph over y'."""

    def __init__(self, radius):
        self.radius = float(radius)

    def value(self, y):
        y = np.asarray(y, dtype=float)
        s = np.sqrt(self.radius**2 - np.sum(y**2, axis=-1))
        return self.radius - s

    def grad(self, y):
        y = np.asarray(y, dtype=float)
        s = np.sqrt(self.radius**2 - np.sum(y**2))
        return y / s

    def hess(self, y):
        y = np.asarray(y, dtype=float)
        s = np.sqrt(self.radius**2 - np.sum(y**2))
        d = y.size
        return np.eye(d) / s + np.outer(y, y) / s**3

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
    label: str = ""
    c2_bound: float = None

    def __post_init__(self):
        if self.n < 3:
            raise ConfigError("ambient dimension must be >= 3")
        if self.rotation is None:
            self.rotation = np.eye(self.n)
        self.rotation = np.asarray(self.rotation, dtype=float)
        if not np.allclose(self.rotation @ self.rotation.T, np.eye(self.n), atol=1e-12):
            raise ConfigError("rotation must be orthonormal")
        origin = np.zeros(self.n - 1)
        if abs(self.graph.value(origin)) > 1e-12:
            raise ConfigError("surface must pass through the origin: f(0') = 0")
        if self.c2_bound is None:
            self.c2_bound = float(self.graph.c2_seminorm(self.chart_radius))
        grad0 = self.graph.grad(origin)
        nu_graph = np.append(-grad0, 1.0) / np.sqrt(1.0 + grad0 @ grad0)
        if nu_graph[-1] <= 0:
            raise ConfigError("normal must satisfy <nu, e_n> > 0 in the graph frame")
        self._nu_graph = nu_graph

    def to_graph(self, x):
        return self.rotation @ np.asarray(x, dtype=float)

    def c2_bound_on(self, radius):
        """C^2 seminorm of the graph over a ball of the given radius."""
        return float(self.graph.c2_seminorm(min(radius, self.chart_radius)))

    def normal_at_origin(self):
        """Unit normal at 0 in ambient coordinates."""
        return self.rotation.T @ self._nu_graph


def plane_surface(n, normal, label="plane"):
    """Hyperplane through 0 with the given (not necessarily unit) normal."""
    nu = np.asarray(normal, dtype=float)
    nu = nu / np.linalg.norm(nu)
    rot = _rotation_aligning(nu, n)
    return GraphSurface(n=n, graph=PolyGraph(Polynomial.zero(n - 1)),
                        rotation=rot, label=label, c2_bound=0.0)


def paraboloid_surface(n, coeff=1.0, label="paraboloid"):
    """f(x') = coeff |x'|^2 in the standard frame."""
    poly = coeff * Polynomial.radius_squared(n - 1)
    return GraphSurface(n=n, graph=PolyGraph(poly), label=label)


def sphere_surface(n, radius=1.0, label="sphere"):
    """Sphere of given radius through 0 with inward normal e_n at 0."""
    return GraphSurface(n=n, graph=SphereCapGraph(radius),
                        chart_radius=0.8 * radius, label=label)


def _rotation_aligning(nu, n):
    """Orthonormal map sending ambient nu to the graph-frame e_n."""
    basis = _complete_basis(nu.reshape(1, -1), n)
    return np.vstack([basis, nu])


def _complete_basis(rows, n):
    """Rows of an orthonormal basis of the orthogonal complement of `rows`."""
    _, _, vt = np.linalg.svd(rows)
    return vt[rows.shape[0]:]


def signed_distance(surface, x, tol=1e-12, max_iter=60, n_seeds=5):
    """Signed distance from x to the surface, foot point by damped Newton.

    Sign follows the side of the graph: positive where x_n > f(x').
    Multi-start from perturbed seeds; the closest converged foot wins.
    """
    y_full = surface.to_graph(x)
    if np.linalg.norm(y_full) >= surface.chart_radius:
        raise DomainError(
            f"point at |x| = {np.linalg.norm(y_full):.3g} outside chart radius "
            f"{surface.chart_radius:.3g}"
        )
    yp, yn = y_full[:-1], y_full[-1]
    f = surface.graph
    sign = np.sign(yn - f.value(yp)) or 0.0

    scale = max(float(np.linalg.norm(y_full)), 0.05)
    seeds = [yp.copy()]
    for i in range(n_seeds - 1):
        delta = np.zeros(surface.n - 1)
        delta[i % (surface.n - 1)] = 0.35 * scale * (1 if i % 2 == 0 else -1)
        seeds.append(yp + delta)

    best = None
    worst_residual = np.inf
    for seed in seeds:
        foot = _project_to_graph(f, yp, yn, seed, tol, max_iter)
        if foot is None:
            continue
        dist = float(np.sqrt(np.sum((yp - foot) ** 2) + (yn - f.value(foot)) ** 2))
        if best is None or dist < best:
            best = dist
    if best is None:
        raise FootPointError(
            f"foot-point projection failed from all {n_seeds} seeds",
            point=np.asarray(x, dtype=float),
            trace=[worst_residual],
        )
    return float(sign * best)


def _project_to_graph(f, yp, yn, seed, tol, max_iter):
    """Damped Newton on y' -> 0.5(|y'-yp|^2 + (yn-f(y'))^2); None if stuck."""
    y = seed.copy()

    def objective(z):
        return 0.5 * (np.sum((z - yp) ** 2) + (yn - f.value(z)) ** 2)

    val = objective(y)
    scale = 1.0 + np.linalg.norm(yp) + abs(yn)
    for _ in range(max_iter):
        fz = f.value(y)
        gz = f.grad(y)
        grad = (y - yp) - (yn - fz) * gz
        gnorm = np.linalg.norm(grad)
        if gnorm <= tol * scale:
            return y
        hess = np.eye(y.size) + np.outer(gz, gz) - (yn - fz) * f.hess(y)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = -grad
        if step @ grad > 0:
            step = -grad
        t = 1.0
        for _ in range(30):
            cand = y + t * step
            cand_val = objective(cand)
            if cand_val < val:
                break
            t *= 0.5
        else:
            # objective at the rounding floor: accept if first-order small
            return y if gnorm <= 1e-9 * scale else None
        y, val = cand, cand_val
    return None


@dataclass
class HyperplaneFan:
    """Unit normals nu_1..nu_k completed to a basis adapted to the corner."""

    normals: np.ndarray            # (k, n)
    completion: np.ndarray = None  # (n-k, n)
    reference: np.ndarray = None   # e_n direction

    def __post_init__(self):
        self.normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        k, n = self.normals.shape
        if k > n:
            raise ConfigError("more normals than ambient dimensions")
        norms = np.linalg.norm(self.normals, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-10):
            raise ConfigError("fan normals must be unit vectors")
        gram = self.normals @ self.normals.T
        if abs(np.linalg.det(gram)) < 1e-12:
            i, j = _most_dependent_pair(self.normals)
            raise ConfigError(
                f"normals are linearly dependent (offending pair {i}, {j})"
            )
        if self.completion is None:
            self.completion = _complete_basis(self.normals, n)
        self.completion = np.atleast_2d(np.asarray(self.completion, dtype=float))
        if self.reference is None:
            self.reference = choose_reference_direction(self.normals)
        if np.any(self.normals @ self.reference <= 0):
            raise ConfigError("reference direction must see every normal positively")

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
    k = normals.shape[0]
    best, pair = -1.0, (0, 1)
    for i in range(k):
        for j in range(i + 1, k):
            c = abs(normals[i] @ normals[j])
            if c > best:
                best, pair = c, (i, j)
    return pair


def choose_reference_direction(normals, grid_size=10_000, seed=5):
    """Direction maximizing the worst inner product with the normals.

    Scans a quasi-random unit-sphere grid, seeds a Nelder-Mead polish with
    the best grid point, and also tries the equalizing analytic candidate
    N (N^T N)^{-1} 1 which is optimal when all its weights are positive.
    """
    from scipy.optimize import minimize
    from scipy.stats import qmc

    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    k, n = normals.shape

    def score(e):
        return float(np.min(normals @ e))

    rng_pts = qmc.Halton(d=n, scramble=True, seed=seed).random(grid_size)
    from scipy.special import ndtri

    dirs = ndtri(np.clip(rng_pts, 1e-12, 1 - 1e-12))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    scores = np.min(dirs @ normals.T, axis=1)
    best = dirs[np.argmax(scores)]

    try:
        w = np.linalg.solve(normals @ normals.T, np.ones(k))
        cand = normals.T @ w
        cand /= np.linalg.norm(cand)
        if score(cand) > score(best):
            best = cand
    except np.linalg.LinAlgError:
        pass

    res = minimize(
        lambda v: -score(v / np.linalg.norm(v)),
        best,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
    )
    polished = res.x / np.linalg.norm(res.x)
    return polished if score(polished) >= score(best) else best


@dataclass
class TangentConeSpec:
    """Dilation-invariant cone at the origin with its spherical section."""

    tag: str                       # halfspace | wedge | cap-cone | fan
    n: int
    axis: np.ndarray = None        # halfspace and cap-cone
    aperture: float = None         # cap-cone
    normals: np.ndarray = None     # wedge and fan
    section: SphericalDomain1D = None

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        if self.tag in ("halfspace",):
            return bool(self.axis @ x > 0)
        if self.tag == "cap-cone":
            r = np.linalg.norm(x)
            if r == 0:
                return False
            return bool(np.arccos(np.clip(self.axis @ x / r, -1, 1)) < self.aperture)
        return bool(np.all(self.normals @ x > 0))

    @classmethod
    def halfspace(cls, axis):
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        section = SphericalDomain1D(
            "polar-sphere", 0.0, np.pi / 2,
            bc_lo="regular-pole", bc_hi="blowup", label="halfspace-section",
        )
        return cls(tag="halfspace", n=axis.size, axis=axis, aperture=np.pi / 2,
                   section=section)

    @classmethod
    def wedge(cls, nu1, nu2, n):
        nu1 = np.asarray(nu1, dtype=float) / np.linalg.norm(nu1)
        nu2 = np.asarray(nu2, dtype=float) / np.linalg.norm(nu2)
        opening = np.pi - np.arccos(np.clip(nu1 @ nu2, -1.0, 1.0))
        section = SphericalDomain1D(
            "circle-arc", 0.0, opening, label="wedge-section",
        )
        return cls(tag="wedge", n=n, normals=np.vstack([nu1, nu2]),
                   aperture=opening, section=section)

    @classmethod
    def cap_cone(cls, axis, aperture):
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        if not 0 < aperture < np.pi:
            raise ConfigError("cap-cone aperture must lie in (0, pi)")
        section = SphericalDomain1D(
            "polar-sphere", 0.0, aperture,
            bc_lo="regular-pole", bc_hi="blowup", label="cap-section",
        )
        return cls(tag="cap-cone", n=axis.size, axis=axis, aperture=aperture,
                   section=section)

    @classmethod
    def fan_intersection(cls, normals):
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        return cls(tag="fan", n=normals.shape[1], normals=normals, section=None)


def tangent_cone(surfaces):
    """Intersection of tangent half-spaces of the surfaces at 0."""
    if not surfaces:
        raise ConfigError("need at least one surface")
    n = surfaces[0].n
    normals = np.vstack([s.normal_at_origin() for s in surfaces])
    gram = normals @ normals.T
    if abs(np.linalg.det(gram)) < 1e-12:
        i, j = _most_dependent_pair(normals)
        raise ConfigError(
            f"tangent-plane normals are linearly dependent "
            f"(offending pair: surface {i} and surface {j})"
        )
    k = len(surfaces)
    if k == 1:
        return TangentConeSpec.halfspace(normals[0])
    if k == 2:
        return TangentConeSpec.wedge(normals[0], normals[1], n)
    return TangentConeSpec.fan_intersection(normals)


@dataclass
class DiffeoT:
    """Signed-distance straightening map onto the tangent cone."""

    surfaces: list
    fan: HyperplaneFan
    r_T: float = None
    _frame_inv: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.r_T is None:
            # self-consistent radius: r <= 0.25 / C2-seminorm measured on
            # the ball of radius r itself, which keeps every point well
            # inside the tubular neighbourhood (unique feet need
            # |x| < 1/(2 |D^2 f|)); a few fixed-point sweeps settle it
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
        frame = self.fan.matrix()
        self._frame_inv = np.linalg.inv(frame)

    @property
    def n(self):
        return self.fan.n

    def distance_vector(self, x):
        x = np.asarray(x, dtype=float)
        k = self.fan.k
        d = np.empty(self.n)
        for i, s in enumerate(self.surfaces[:k]):
            d[i] = signed_distance(s, x)
        d[k:] = self.fan.completion @ x
        return d

    def __call__(self, x):
        return apply_T(self, x)


def build_T(surfaces, fan=None):
    if fan is None:
        normals = np.vstack([s.normal_at_origin() for s in surfaces])
        fan = HyperplaneFan(normals)
    return DiffeoT(surfaces=list(surfaces), fan=fan)


def apply_T(tmap, x):
    """x-bar with d_{S_i}(x) = d_{P_i}(x-bar), completion distances kept."""
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) >= tmap.r_T:
        raise DomainError(
            f"|x| = {np.linalg.norm(x):.3g} outside the straightening radius "
            f"{tmap.r_T:.3g}"
        )
    return tmap._frame_inv @ tmap.distance_vector(x)


def jacobian_T(tmap, x):
    """Central finite-difference Jacobian, step 1e-5 max(|x|, 1e-3)."""
    x = np.asarray(x, dtype=float)
    h = 1e-5 * max(np.linalg.norm(x), 1e-3)
    n = x.size
    jac = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        jac[:, j] = (apply_T(tmap, x + e) - apply_T(tmap, x - e)) / (2.0 * h)
    return jac
