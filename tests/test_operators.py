import collections
import tracemalloc

import numpy as np
import pytest

from blowlab import operators
from blowlab.errors import ConfigError, DomainError
from blowlab.operators import (
    MetricFamily,
    OperatorSpec,
    _ball_points,
    _christoffel,
    conformal_operator,
    conformal_quadratic_metric,
    euclidean_operator,
    scalar_curvature,
    structure_constant,
)
from blowlab.polynomials import Polynomial


def conformal_curvature_oracle(n, q, pts):
    # S = -(4(n-1)/(n-2)) u^(-(n+2)/(n-2)) Lap u with u = 1 + q|x|^2
    u = 1.0 + q * np.sum(pts**2, axis=1)
    return -(4.0 * (n - 1.0) / (n - 2.0)) * u ** (-(n + 2.0) / (n - 2.0)) * 2 * n * q


@pytest.mark.parametrize("n,q", [(3, 0.3), (4, 0.2), (6, 0.3)])
def test_scalar_curvature_against_conformal_identity(n, q):
    met = conformal_quadratic_metric(n, q)
    pts = np.vstack([np.zeros(n), 0.1 * np.arange(1, n + 1) / n,
                     0.3 * np.eye(n)[0]])
    s = scalar_curvature(met, pts)
    oracle = conformal_curvature_oracle(n, q, pts)
    # exact derivatives, so the error is rounding only
    assert np.max(np.abs(s / oracle - 1.0)) < 1e-13
    assert s[0] == pytest.approx(-8.0 * n * (n - 1.0) * q / (n - 2.0), rel=1e-13)


def sympy_scalar_curvature(g, x, pts):
    """S_g by brute force: symbolic Christoffels, symbolic derivatives,
    Ricci trace, evaluated exactly at rational points."""
    import sympy as sp

    n = len(x)
    ginv = g.inv()
    gam = [[[sum(ginv[k, l] * (sp.diff(g[j, l], x[i]) + sp.diff(g[i, l], x[j])
                               - sp.diff(g[i, j], x[l])) for l in range(n)) / 2
             for j in range(n)] for i in range(n)] for k in range(n)]
    out = []
    for pt in pts:
        at = dict(zip(x, (sp.Rational(str(v)) for v in pt)))
        total = 0
        for i in range(n):
            for j in range(n):
                rij = sum(sp.diff(gam[m][i][j], x[m]) - sp.diff(gam[m][m][j], x[i])
                          + sum(gam[m][m][l] * gam[l][i][j]
                                - gam[m][i][l] * gam[l][m][j] for l in range(n))
                          for m in range(n))
                total += ginv[i, j].subs(at) * rij.subs(at)
        out.append(float(total))
    return np.array(out)


def off_diagonal_metric():
    """A metric that is not conformally flat: off-diagonal h and mixed
    monomials, all vanishing to second order at 0.  Returns the family,
    the sympy table h and its symbols."""
    import sympy as sp

    n = 3
    x = sp.symbols("x0:3")
    entries = {(0, 0): x[2] ** 2 / 4 - x[0] * x[1] ** 2 / 10,
               (0, 1): 3 * x[0] * x[2] / 10 + x[1] ** 2 / 5,
               (1, 2): -x[0] ** 2 * x[1] / 5,
               (2, 2): x[0] * x[1] / 10}
    h_sym = sp.zeros(n, n)
    for (i, j), e in entries.items():
        h_sym[i, j] = h_sym[j, i] = e

    def to_poly(e):
        return Polynomial(n, {m: float(c) for m, c in sp.Poly(e, *x).terms()})

    met = MetricFamily(n=n, h=[[to_poly(h_sym[i, j]) for j in range(n)]
                               for i in range(n)])
    return met, h_sym, x


def test_scalar_curvature_against_sympy_off_diagonal_metric():
    import sympy as sp

    met, h_sym, x = off_diagonal_metric()
    n = met.n
    pts = np.array([[0.1, -0.2, 0.3], [0.4, 0.25, -0.15], [-0.3, 0.05, 0.2]])
    expected = sympy_scalar_curvature(sp.eye(n) + h_sym, x, pts)
    assert np.max(np.abs(scalar_curvature(met, pts) / expected - 1.0)) < 1e-14
    # g = delta and dg = 0 at the origin, so S_g(0) is
    # sum_ij (d_i d_j h_ij - d_i d_i h_jj) = -d_2 d_2 h_00 = -1/2
    assert scalar_curvature(met, np.zeros(n)) == pytest.approx(-0.5, rel=1e-14)


def reference_derivatives(metric, order, points):
    """The per-call index walk that `MetricFamily.derivatives` replaced."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros((pts.shape[0],) + (metric.n,) * (order + 2))
    values = {}         # a polynomial shared by entries is evaluated once
    for idx in np.ndindex(out.shape[1:]):
        poly = metric.h[idx[-2]][idx[-1]]
        for k in idx[:-2]:
            poly = poly.derivative(k)
        if poly.terms:
            if id(poly) not in values:
                values[id(poly)] = poly(pts)
            out[(slice(None),) + idx] = values[id(poly)]
    return out


def reference_coefficients(metric, points):
    """The three closures a, b, c that the one-pass evaluator replaced:
    each forms its own g^-1, dg and Gamma, by the index walk."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = metric.n

    def ginv_of(pts):
        return np.linalg.inv(np.eye(n) + reference_derivatives(metric, 0, pts))

    def christoffel(pts):
        ginv = ginv_of(pts)
        dg = reference_derivatives(metric, 1, pts)
        lead = np.transpose(dg, (0, 3, 1, 2))
        bracket = lead + np.swapaxes(lead, 2, 3) - dg
        return 0.5 * np.einsum("pkl,plij->pkij", ginv, bracket)

    def curvature(pts):
        ginv = ginv_of(pts)
        dg = reference_derivatives(metric, 1, pts)
        d2g = reference_derivatives(metric, 2, pts)
        gam = christoffel(pts)
        mixed = np.einsum("pml,pml->p", ginv,
                          np.einsum("pij,pmijl->pml", ginv, d2g))
        laplace = np.einsum("pij,pij->p", ginv,
                            np.einsum("pml,pijml->pij", ginv, d2g))
        a = np.einsum("pac,picb->piab", ginv, dg)
        trace_aa = np.einsum("pij,piab,pjba->p", ginv, a, a)
        drift = np.einsum("pma,pmak->pk", ginv, dg) - np.einsum("pmmk->pk", gam)
        quad = np.einsum("pij,pmil,plmj->p", ginv, gam, gam)
        return (mixed - laplace + 0.5 * trace_aa - quad
                - np.einsum("pk,pij,pkij->p", drift, ginv, gam))

    a = ginv_of(pts)
    b = -np.einsum("pjk,pijk->pi", ginv_of(pts), christoffel(pts))
    c = -(n - 2.0) / (4.0 * (n - 1.0)) * curvature(pts)
    return a, b, c


METRICS = pytest.mark.parametrize("build", [
    lambda: conformal_quadratic_metric(3, 0.3),
    lambda: conformal_quadratic_metric(4, 0.2),
    lambda: conformal_quadratic_metric(6, 0.3),
    lambda: off_diagonal_metric()[0],
], ids=["conformal-n3", "conformal-n4", "conformal-n6", "off-diagonal-n3"])


@METRICS
def test_derivative_tables_match_index_walk(build):
    met = build()
    pts = _ball_points(met.n, 1.0, 257, seed=21)
    for order in range(3):
        got = met.derivatives(order, pts)
        assert got.flags.c_contiguous
        assert np.array_equal(got, reference_derivatives(met, order, pts))


@METRICS
def test_one_pass_coefficients_match_three_closures(build):
    met = build()
    pts = _ball_points(met.n, 1.0, 4096, seed=13)
    a, b, c = conformal_operator(met).coefficients(pts)
    a_ref, b_ref, c_ref = reference_coefficients(met, pts)
    assert np.array_equal(a, a_ref)
    if met.label == "conformal-quadratic":
        # g^-1 is diagonal, so the matmul Gamma adds exact zeros only
        assert np.array_equal(b, b_ref)
        assert np.max(np.abs(c / c_ref - 1.0)) < 1e-14
    else:
        # off-diagonal g^-1: Gamma by matmul sums in another order; b
        # and S_g change sign inside the ball, so the error is measured
        # against the largest value
        assert np.max(np.abs(b - b_ref)) < 1e-14 * np.max(np.abs(b_ref))
        assert np.max(np.abs(c - c_ref)) < 1e-14 * np.max(np.abs(c_ref))
    # the public curvature is the one the evaluator uses
    cn = (met.n - 2.0) / (4.0 * (met.n - 1.0))
    assert np.array_equal(c, -cn * scalar_curvature(met, pts))


def _curvature_by_einsum(met, pts):
    """S_g with both second-derivative terms contracted by einsum over the
    dense d2g table, the reference for the sum over its nonzero entries."""
    ginv = np.linalg.inv(met.metric(pts))
    dg = met.derivatives(1, pts)
    d2g = met.derivatives(2, pts)
    gam = _christoffel(ginv, dg)
    mixed = np.einsum("pml,pml->p", ginv, np.einsum("pij,pmijl->pml", ginv, d2g))
    laplace = np.einsum("pij,pij->p", ginv, np.einsum("pml,pijml->pij", ginv, d2g))
    a = ginv[:, None] @ dg
    trace_aa = np.einsum("pij,piab,pjba->p", ginv, a, a, optimize=True)
    drift = np.einsum("pma,pmak->pk", ginv, dg) - np.einsum("pmmk->pk", gam)
    quad = np.einsum("pij,pmil,plmj->p", ginv, gam, gam, optimize=True)
    return (mixed - laplace + 0.5 * trace_aa - quad
            - np.einsum("pk,pij,pkij->p", drift, ginv, gam, optimize=True))


@METRICS
def test_d2g_matmul_matches_einsum(build):
    # the sum over the nonzero d2g entries adds in another order than the
    # dense einsum: within 1e-14 of the largest |S_g| (S_g changes sign
    # inside the ball for the off-diagonal metric)
    met = build()
    pts = _ball_points(met.n, 1.0, 1184, seed=5)
    got = scalar_curvature(met, pts)
    want = _curvature_by_einsum(met, pts)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_one_pass_memory_and_evaluations(monkeypatch):
    # bench-mesh size at n = 6: a dense d2g would be 1184 * 6^4 doubles =
    # 11.7 MiB (20.6 MiB peak with its fill).  Without it the peak is the
    # (a, b, c) of all points, twice while they are joined (0.8 MiB), and
    # a few (256, 6^3)-double temporaries of one chunk: 2.2 MiB measured
    met = conformal_quadratic_metric(6, 0.3)
    op = conformal_operator(met)
    pts = _ball_points(6, 1.0, 1184, seed=5)
    op.coefficients(pts)            # builds the derivative tables
    tracemalloc.start()
    try:
        op.coefficients(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20

    distinct = {}
    for order in range(3):
        for idx in np.ndindex((6,) * (order + 2)):
            poly = met.h[idx[-2]][idx[-1]]
            for k in idx[:-2]:
                poly = poly.derivative(k)
            if poly.terms:
                distinct[id(poly)] = 1
    calls = collections.Counter()
    evaluate = Polynomial.__call__

    def counting(self, points):
        calls[id(self)] += 1
        return evaluate(self, points)

    monkeypatch.setattr(Polynomial, "__call__", counting)
    op.evaluate(pts)                # one evaluator call
    assert calls == distinct


def test_coefficients_are_evaluated_in_bounded_chunks():
    # a mesh of three chunks and a tail: the values of one call over all
    # points, at the memory of one chunk
    op = conformal_operator(conformal_quadratic_metric(6, 0.3))
    chunk = operators.COEFFICIENT_BYTES // (8 * 6**3)
    assert chunk == 256
    pts = _ball_points(6, 1.0, 3 * chunk + 5, seed=5)
    whole = op.evaluate(pts)
    sizes = []
    evaluate = op.evaluate

    def recording(chunk):
        sizes.append(len(chunk))
        return evaluate(chunk)

    op.evaluate = recording
    tracemalloc.start()
    try:
        chunked = op.coefficients(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [chunk] * 3 + [5]
    for got, want in zip(chunked, whole):
        assert np.array_equal(got, want)
    assert peak < 48 * 2**20
    # n = 3 keeps the 2048-point chunks, so its chunk count does not grow
    assert operators.COEFFICIENT_BYTES // (8 * 3**3) == 2048


@METRICS
def test_coefficients_do_not_depend_on_the_chunk_size(build, monkeypatch):
    # byte-identical artifacts rely on every point getting the same bits
    # in any batch: from `Polynomial.__call__` and from each contraction
    met = build()
    op = conformal_operator(met)
    pts = _ball_points(met.n, 1.0, 600, seed=17)
    sizes = []
    evaluate = op.evaluate

    def recording(chunk):
        sizes.append(len(chunk))
        return evaluate(chunk)

    op.evaluate = recording
    runs = []
    for size in (1, 7, 256, 2048):
        monkeypatch.setattr(operators, "COEFFICIENT_BYTES", size * 8 * met.n**3)
        sizes.clear()
        runs.append(op.coefficients(pts))
        assert max(sizes) == min(size, len(pts))
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_fixed_contraction_order_is_einsums_own(n):
    # `_metric_terms` passes PAIRWISE instead of searching each call; the
    # search picks that order at every chunk size, so the bits are those
    # of optimize=True
    g, gam, v = np.ones((2048, n, n)), np.ones((2048, n, n, n)), np.ones((2048, n))
    for P in (1, 7, 256, 2048):
        for expr, ops in (("pij,piab,pjba->p", (g, gam, gam)),
                          ("pij,pmil,plmj->p", (g, gam, gam)),
                          ("pk,pij,pkij->p", (v, g, gam))):
            path, _ = np.einsum_path(expr, *(op[:P] for op in ops),
                                     optimize=True)
            assert path == operators.PAIRWISE


def test_metric_validation():
    n = 3
    zero = Polynomial.zero(n)
    linear = Polynomial.coordinate(n, 0)
    h = [[linear if i == j == 0 else zero for j in range(n)] for i in range(n)]
    with pytest.raises(ConfigError):
        MetricFamily(n=n, h=h)
    asym = [[zero for _ in range(n)] for _ in range(n)]
    asym[0][1] = Polynomial.radius_squared(n)
    with pytest.raises(ConfigError):
        MetricFamily(n=n, h=asym)
    with pytest.raises(ConfigError):
        conformal_quadratic_metric(5, 0.1)  # 4/(n-2) not an integer


def test_structure_constants():
    assert structure_constant(euclidean_operator(3), 1.0) == 0.0
    n = 3

    def drift_coefficients(pts):
        a, b, c = euclidean_operator(n).coefficients(pts)
        b[:, 0] = np.linalg.norm(pts, axis=1)
        return a, b, c

    drift = OperatorSpec(n=n, evaluate=drift_coefficients, label="drift")
    assert structure_constant(drift, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_conformal_structure_constant_stable():
    op = conformal_operator(conformal_quadratic_metric(3, 0.3))
    assert op.c_l is not None and np.isfinite(op.c_l)
    again = structure_constant(op, 1.0, samples=8192, seed=77)
    assert abs(again / op.c_l - 1.0) < 0.01


def test_structure_inequality_resampled():
    op = conformal_operator(conformal_quadratic_metric(3, 0.3))
    from blowlab.operators import _ball_points

    pts = _ball_points(3, 1.0, 2048, seed=1234)
    a, b, c = op.coefficients(pts)
    r = np.linalg.norm(pts, axis=1)
    lhs = (np.sum(np.abs(a - np.eye(3)), axis=(1, 2)) + r * np.sum(np.abs(b), axis=1)
           + r**2 * np.abs(c))
    assert np.all(lhs <= op.c_l * r**2 * (1.0 + 1e-9))


def test_ellipticity_within_ball():
    op = conformal_operator(conformal_quadratic_metric(3, 0.3))
    from blowlab.operators import _ball_points

    radius = 0.3
    pts = _ball_points(3, radius, 512, seed=3)
    a, _, _ = op.coefficients(pts)
    eigs = np.linalg.eigvalsh(a)
    assert np.min(eigs) >= 1.0 - op.c_l * radius**2
    assert np.min(eigs) > 0


def test_structure_constant_radius_guard():
    op = euclidean_operator(3)
    with pytest.raises(DomainError):
        structure_constant(op, 5.0)


def test_structure_constant_measured_on_first_read():
    op = conformal_operator(conformal_quadratic_metric(3, 0.3))
    assert "c_l" not in vars(op)
    assert op.c_l == structure_constant(op, 1.0)
    assert vars(op)["c_l"] == op.c_l
    assert euclidean_operator(3).c_l == 0.0


def test_import_leaves_scipy_stats_out():
    import os
    import subprocess
    import sys

    import blowlab

    src = os.path.dirname(os.path.dirname(blowlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # the import alone; a straightening map and a conformal operator built
    # on top of it; and the structure constant measured at its first read
    for work in ("import blowlab",
                 "from blowlab import build_T, sphere_surface; "
                 "build_T([sphere_surface(3, 1.0)])",
                 "from blowlab import conformal_operator, "
                 "conformal_quadratic_metric; "
                 "conformal_operator(conformal_quadratic_metric(6, 0.3))",
                 "from blowlab import conformal_operator, "
                 "conformal_quadratic_metric; "
                 "conformal_operator(conformal_quadratic_metric(3, 0.3)).c_l"):
        code = f"import sys; {work}; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "False", work


def test_indefinite_metric_rejected():
    # g = (1 - 0.3|x|^2) delta loses definiteness beyond |x| = 1.83 < 2
    r2 = Polynomial.radius_squared(3)
    zero = Polynomial.zero(3)
    h = [[-0.3 * r2 if i == j else zero for j in range(3)] for i in range(3)]
    with pytest.raises(ConfigError, match="not positive definite"):
        MetricFamily(n=3, h=h)
