from types import SimpleNamespace

import numpy as np
import pytest

from blowlab.errors import ConfigError, DomainError, FootPointError
from blowlab.geometry import (
    GraphSurface,
    HyperplaneFan,
    PolyGraph,
    TangentConeSpec,
    apply_T,
    build_T,
    jacobian_T,
    paraboloid_surface,
    plane_surface,
    signed_distance,
    sphere_surface,
    tangent_cone,
)
from blowlab.polynomials import Polynomial
from blowlab.profiles import SphericalDomain1D

# dense-sampling oracle (1e-4 grid + 1e-7 local refinement) for the
# paraboloid foot point from x = (0.1, 0, 0.05)
PARABOLOID_ORACLE = 0.039160793499


def test_plane_distances():
    pl = plane_surface(3, [0, 0, 1])
    assert signed_distance(pl, [0, 0, 0.3]) == pytest.approx(0.3, abs=1e-14)
    assert signed_distance(pl, [0.7, 0, 0]) == pytest.approx(0.0, abs=1e-14)
    assert signed_distance(pl, [0, 0, -0.2]) == pytest.approx(-0.2, abs=1e-14)


def test_paraboloid_against_dense_oracle():
    pb = paraboloid_surface(3)
    got = signed_distance(pb, [0.1, 0.0, 0.05])
    assert got == pytest.approx(PARABOLOID_ORACLE, abs=5e-9)


def test_sphere_closed_form():
    sp = sphere_surface(3, 1.0)
    center = np.array([0.0, 0.0, 1.0])
    for x in ([0, 0, 0.2], [0.1, 0, 0.1], [0.15, -0.1, 0.05], [0, 0, -0.05]):
        x = np.asarray(x, dtype=float)
        exact = 1.0 - np.linalg.norm(x - center)
        assert signed_distance(sp, x) == pytest.approx(exact, abs=1e-12)


def test_sign_convention_inside_domain():
    # points with positive signed distance lie inside the fixture domain
    sp = sphere_surface(3, 1.0)
    assert signed_distance(sp, [0, 0, 0.1]) > 0
    assert signed_distance(sp, [0, 0, -0.1]) < 0
    pb = paraboloid_surface(3)
    assert signed_distance(pb, [0.05, 0.0, 0.1]) > 0


def test_chart_radius_guard():
    sp = sphere_surface(3, 1.0)
    with pytest.raises(DomainError):
        signed_distance(sp, [0.9, 0, 0.0])


def test_tangent_cones():
    pl = plane_surface(3, [0, 0, 1])
    tc = tangent_cone([pl])
    assert tc.tag == "halfspace"
    assert np.allclose(tc.axis, [0, 0, 1])
    pl2 = plane_surface(3, [1, 0, 0])
    wedge = tangent_cone([pl, pl2])
    assert wedge.tag == "wedge"
    assert wedge.aperture == pytest.approx(np.pi / 2)
    pb = paraboloid_surface(3)
    tc = tangent_cone([pb])
    assert tc.tag == "halfspace" and np.allclose(tc.axis, [0, 0, 1])


def test_tangent_cone_of_three_planes_is_their_fan():
    planes = [plane_surface(3, e) for e in np.eye(3)]
    fan = tangent_cone(planes)
    assert fan.tag == "fan" and fan.n == 3 and fan.section is None
    assert np.array_equal(fan.normals, np.eye(3))
    assert fan.contains((0.1, 0.2, 0.3))
    assert not fan.contains((-0.1, 0.2, 0.3))
    assert not fan.contains((0.0, 0.2, 0.3))     # on a plane: not inside
    # fewer planes give the wedge and the half-space, which let the points
    # across the planes they drop in
    wedge, halfspace = tangent_cone(planes[:2]), tangent_cone(planes[:1])
    assert wedge.tag == "wedge" and halfspace.tag == "halfspace"
    for cone, outside in ((wedge, (0.1, -0.2, 0.3)),
                          (halfspace, (-0.1, 0.2, 0.3))):
        assert cone.contains((0.1, 0.2, 0.3))
        assert cone.contains((0.1, 0.2, -0.3))
        assert not cone.contains(outside)


def test_tangent_cone_dilation_invariance():
    section = SphericalDomain1D("polar-sphere", 0.0, np.pi / 3,
                                bc_lo="regular-pole", bc_hi="blowup")
    tc = TangentConeSpec(tag="cap-cone", n=3, axis=np.array([0.0, 0.0, 1.0]),
                         aperture=np.pi / 3, section=section)
    x = np.array([0.1, 0.05, 0.3])
    assert tc.contains(x)
    for t in (0.1, 2.0, 17.0):
        assert tc.contains(t * x)
    assert tc.section.geometry == "polar-sphere"


def test_dependent_normals_error():
    pl1 = plane_surface(3, [0, 0, 1])
    pl2 = plane_surface(3, [0, 0, 1])
    with pytest.raises(ConfigError, match="pair"):
        tangent_cone([pl1, pl2])


def test_tangent_cone_rejects_a_nan_normal():
    # the cone and the map T take their normals through one check
    stub = SimpleNamespace(n=3,
                           normal_at_origin=lambda: np.array([np.nan, 0.0, 1.0]))
    for build in (tangent_cone, build_T):
        with pytest.raises(ConfigError, match="unit vectors"):
            build([stub])


@pytest.mark.parametrize("graph, reason", [
    (PolyGraph(Polynomial(2, {(1, 0): np.nan})), "origin"),
    (PolyGraph(np.nan * Polynomial.radius_squared(2)), "origin"),
    (SimpleNamespace(value=lambda y: 0.0,
                     grad=lambda y: np.array([np.nan, 0.0])), "normal"),
], ids=["nan-slope", "nan-curvature", "nan-gradient"])
def test_graph_surface_rejects_a_graph_not_finite_at_the_origin(graph,
                                                                reason):
    # a NaN coefficient makes f(0') NaN; a NaN gradient makes the normal NaN
    with pytest.raises(ConfigError, match=reason):
        GraphSurface(n=3, graph=graph)


def test_fan_validation():
    with pytest.raises(ConfigError):
        HyperplaneFan(np.array([[0.0, 0.0, 2.0]]))  # not unit
    for bad in ([[np.nan, 0.0, 0.0]],
                [[0.0, 0.0, 1.0], [np.nan, 0.0, 0.0]],
                [[np.inf, 0.0, 0.0]]):
        with pytest.raises(ConfigError, match="unit"):
            HyperplaneFan(np.array(bad))
    HyperplaneFan(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))


def test_planes_T_is_identity():
    T = build_T([plane_surface(3, [0, 0, 1]), plane_surface(3, [1, 0, 0])])
    x = np.array([0.05, 0.03, 0.08])
    assert np.allclose(apply_T(T, x), x, atol=1e-12)
    assert np.allclose(jacobian_T(T, x), np.eye(3), atol=1e-9)


def test_sphere_axial_image():
    T = build_T([sphere_surface(3, 1.0)])
    xb = apply_T(T, np.array([0.0, 0.0, 0.2]))
    assert np.allclose(xb, [0.0, 0.0, 0.2], atol=1e-12)


def test_distance_preservation():
    sp = sphere_surface(3, 1.0)
    T = build_T([sp])
    rng = np.random.default_rng(11)
    for _ in range(12):
        x = rng.uniform(-0.4, 0.4, 3) * T.r_T * 0.45
        xb = apply_T(T, x)
        d_s = signed_distance(sp, x)
        assert abs(d_s - xb[2]) <= 1e-8 * (1.0 + np.linalg.norm(x))
        # completion distances preserved as well
        assert np.allclose(T.fan.completion @ x, T.fan.completion @ xb,
                           atol=1e-10)


def test_jacobian_identity_at_origin():
    for surf in (sphere_surface(3, 1.0), paraboloid_surface(3)):
        T = build_T([surf])
        J = jacobian_T(T, np.zeros(3))
        assert np.max(np.abs(J - np.eye(3))) < 1e-6


def test_jacobian_linear_deviation():
    # |J(x) - I| <= C|x| with C stable under a Richardson step check
    sp = sphere_surface(3, 1.0)
    T = build_T([sp])
    x = np.array([0.05, 0.0, 0.05])
    J = jacobian_T(T, x)
    dev = np.linalg.norm(J - np.eye(3)) / np.linalg.norm(x)
    assert 0 < dev < 5.0
    # FD oracle at two steps: entries agree to second order
    h1, h2 = 1e-4, 5e-5

    def fd_jac(h):
        cols = []
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            cols.append((apply_T(T, x + e) - apply_T(T, x - e)) / (2 * h))
        return np.stack(cols, axis=1)

    assert np.max(np.abs(fd_jac(h1) - fd_jac(h2))) < 1e-7


@pytest.mark.parametrize("make", [sphere_surface, paraboloid_surface])
def test_quadratic_deviation_slope(make):
    surf = make(3)
    T = build_T([surf])
    ray = np.array([0.5, 0.2, 0.8])
    ray /= np.linalg.norm(ray)
    ts = np.geomspace(0.004, T.r_T / 2, 10)
    devs = [np.linalg.norm(apply_T(T, t * ray) - t * ray) for t in ts]
    slope = np.polyfit(np.log(ts), np.log(devs), 1)[0]
    assert slope >= 1.9


def test_composition_error_bounded():
    # |Lap(f o T)(x) - Lap f(xb)| <= C(|grad f| + |x||hess f|), C stable
    # under FD-step refinement, for f = |x|^(-1/2)
    sp = sphere_surface(3, 1.0)
    T = build_T([sp])

    def f(y):
        return np.linalg.norm(y) ** -0.5

    ratios = {}
    for h in (2e-4, 1e-4):
        worst = 0.0
        for x0 in ([0.04, 0.02, 0.1], [0.02, -0.03, 0.08], [0.0, 0.05, 0.06]):
            x0 = np.asarray(x0)
            lap_comp = sum(
                (f(apply_T(T, x0 + h * e)) - 2 * f(apply_T(T, x0))
                 + f(apply_T(T, x0 - h * e))) / h**2
                for e in np.eye(3))
            xb = apply_T(T, x0)
            rb = np.linalg.norm(xb)
            lap_exact = -0.25 * rb**-2.5
            scale = 0.5 * rb**-1.5 + np.linalg.norm(x0) * 0.75 * rb**-2.5
            worst = max(worst, abs(lap_comp - lap_exact) / scale)
        ratios[h] = worst
    assert all(r < 5.0 for r in ratios.values())
    assert abs(ratios[2e-4] - ratios[1e-4]) < 0.05


def test_wedge_section_matches_opening():
    tc = TangentConeSpec.wedge([0, 0, 1], [1, 0, 0], 3)
    assert tc.section.geometry == "circle-arc"
    assert tc.section.theta_hi == pytest.approx(np.pi / 2)


def test_building_a_surface_scans_no_hessians(monkeypatch):
    # the C^2 seminorm is evaluated on demand, over the radius asked for
    from blowlab import geometry

    scan = geometry.PolyGraph.c2_seminorm
    radii = []

    def counting(self, radius):
        radii.append(radius)
        return scan(self, radius)

    monkeypatch.setattr(geometry.PolyGraph, "c2_seminorm", counting)
    surf = paraboloid_surface(4, 0.5)
    plane_surface(4, [0, 0, 1, 1])
    assert radii == []
    assert surf.c2_bound_on(0.3) == scan(surf.graph, 0.3)
    assert radii == [0.3]


def _same(a, b):
    """Bit-for-bit equality of two arrays, shape and sign of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_row_reductions_are_the_per_row_floats():
    # a row's norm, dot product and matrix-vector product are the floats
    # that np.linalg.norm and @ give that row alone (one BLAS call per
    # row); a reduction over the whole batch would round some differently
    from blowlab.geometry import _dot, _matvec, _norm

    rng = np.random.default_rng(29)
    for d in range(2, 7):
        a, b = rng.standard_normal((2, 300, d))
        m = rng.standard_normal((d, d))
        assert _same(_norm(a), [np.linalg.norm(r) for r in a])
        assert _same(_dot(a, b), [r @ q for r, q in zip(a, b)])
        assert _same(_matvec(m, a), [m @ r for r in a])
        assert _same(_norm(a[0]), np.linalg.norm(a[0]))


BATCH_MAPS = {
    "sphere-n3": lambda: build_T([sphere_surface(3, 1.0)]),
    "sphere-n4-r2": lambda: build_T([sphere_surface(4, 2.0)]),
    "paraboloid-n3": lambda: build_T([paraboloid_surface(3)]),
    "paraboloid-n4": lambda: build_T([paraboloid_surface(4, -0.5)]),
    "two-plane-fan": lambda: build_T([plane_surface(3, [0, 0.2, 1]),
                                      plane_surface(3, [1, 0, 0.3])]),
}


def _reference_signed_distance(surface, x):
    """The per-point foot-point search, one seed and one point at a time:
    the oracle that the batched Newton must reproduce bit for bit."""
    from blowlab.geometry import FOOT_MAX_ITER, FOOT_SEEDS, FOOT_TOL

    f = surface.graph
    y_full = surface.rotation @ np.asarray(x, dtype=float)
    yp, yn = y_full[:-1], y_full[-1]

    def project(y):
        def objective(z):
            return 0.5 * (np.sum((z - yp) ** 2) + (yn - f.value(z)) ** 2)

        val = objective(y)
        scale = 1.0 + np.linalg.norm(yp) + abs(yn)
        for _ in range(FOOT_MAX_ITER):
            fz, gz = f.value(y), f.grad(y)
            grad = (y - yp) - (yn - fz) * gz
            gnorm = np.linalg.norm(grad)
            if gnorm <= FOOT_TOL * scale:
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
                return y if gnorm <= 1e-9 * scale else None
            y, val = cand, cand_val
        return None

    scale = max(float(np.linalg.norm(y_full)), 0.05)
    seeds = [yp.copy()]
    for i in range(FOOT_SEEDS - 1):
        delta = np.zeros(yp.size)
        delta[i % yp.size] = 0.35 * scale * (1 if i % 2 == 0 else -1)
        seeds.append(yp + delta)
    feet = [foot for foot in map(project, seeds) if foot is not None]
    best = min(float(np.sqrt(np.sum((yp - foot) ** 2)
                             + (yn - f.value(foot)) ** 2)) for foot in feet)
    return float((np.sign(yn - f.value(yp)) or 0.0) * best)


@pytest.mark.parametrize("name", sorted(BATCH_MAPS))
def test_batched_map_equals_per_point_calls(name):
    # one Newton over all points and seeds gives each point the floats
    # that a call with that point alone gives
    T = BATCH_MAPS[name]()
    rng = np.random.default_rng(23)
    v = rng.standard_normal((40, T.n))
    v /= np.linalg.norm(v, axis=1)[:, None]
    X = v * rng.uniform(0.0, 0.95 * T.r_T, 40)[:, None]
    for surf in T.surfaces:
        alone = [signed_distance(surf, x) for x in X]
        assert all(isinstance(d, float) for d in alone)
        assert _same(signed_distance(surf, X), alone)
        assert _same(alone, [_reference_signed_distance(surf, x) for x in X])
        y = X[:, 1:]
        for part in ("value", "grad", "hess"):
            got = getattr(surf.graph, part)(y)
            assert _same(got, [getattr(surf.graph, part)(p) for p in y])
    assert _same(apply_T(T, X), [apply_T(T, x) for x in X])
    assert _same(apply_T(T, X[:1]), [apply_T(T, X[0])])
    for x in X[:8]:
        # the central differences of per-point images, as one batch
        h = 1e-5 * max(np.linalg.norm(x), 1e-3)
        cols = []
        for j in range(T.n):
            e = np.zeros(T.n)
            e[j] = h
            cols.append((apply_T(T, x + e) - apply_T(T, x - e)) / (2.0 * h))
        assert _same(jacobian_T(T, x), np.stack(cols, axis=1))


def test_batch_with_a_point_outside_the_radii_raises():
    sp = sphere_surface(3, 1.0)
    T = build_T([sp])
    X = np.full((5, 3), 0.1 * T.r_T)
    X[3] = [0.0, 0.0, 1.01 * T.r_T]
    with pytest.raises(DomainError, match="straightening radius"):
        apply_T(T, X)
    X[3] = [0.9, 0.0, 0.0]
    with pytest.raises(DomainError, match="chart radius"):
        signed_distance(sp, X)


class _PoisonedPlane:
    """The plane x_n = 0 with a NaN slope where y_0 > 0.1, so that the
    foot-point Newton fails from every seed of a point there."""

    def value(self, y):
        return np.zeros(np.shape(y)[:-1])

    def grad(self, y):
        y = np.asarray(y, dtype=float)
        return np.where(y[..., :1] > 0.1, np.nan, 0.0) * np.ones_like(y)

    def hess(self, y):
        return self.grad(y)[..., None] * np.eye(np.shape(y)[-1])


def test_batch_names_the_point_whose_seeds_all_fail():
    surf = GraphSurface(n=3, graph=_PoisonedPlane())
    X = np.array([[-0.2, 0.0, 0.05], [-0.1, 0.1, -0.05], [0.2, 0.0, 0.05],
                  [0.0, -0.1, 0.02]])
    assert signed_distance(surf, X[0]) == 0.05
    with pytest.raises(FootPointError, match="all 5 seeds") as info:
        signed_distance(surf, X)
    assert _same(info.value.point, X[2])


class _FlatWithCurvature:
    """The plane x_n = 0 carrying a Hessian 2 I, so that the Newton matrix
    I - 2 yn I of a point at height yn = 0.5 is singular."""

    def value(self, y):
        return np.zeros(np.shape(y)[:-1])

    def grad(self, y):
        return np.zeros(np.shape(y))

    def hess(self, y):
        return 2.0 * np.ones(np.shape(y)[:-1] + (1, 1)) * np.eye(np.shape(y)[-1])


def test_singular_newton_matrix_takes_a_descent_step_in_its_row_only():
    surf = GraphSurface(n=3, graph=_FlatWithCurvature())
    X = np.array([[0.05, -0.1, 0.1], [0.1, 0.0, 0.5], [0.2, 0.1, -0.3]])
    got = signed_distance(surf, X)
    assert _same(got, [signed_distance(surf, x) for x in X])
    assert _same(got, [_reference_signed_distance(surf, x) for x in X])
    assert np.allclose(got, X[:, 2], rtol=0.0, atol=1e-12)
