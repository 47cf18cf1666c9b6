import numpy as np
import pytest

from blowlab.polynomials import Polynomial


def test_algebra_and_eval():
    r2 = Polynomial.radius_squared(3)
    pts = np.array([[1.0, 2.0, 3.0], [0.5, 0.0, -0.5]])
    assert np.allclose(r2(pts), [14.0, 0.5])
    p = (1.0 + 0.3 * r2) ** 2
    expected = (1.0 + 0.3 * np.sum(pts**2, axis=1)) ** 2
    assert np.allclose(p(pts), expected)
    q = p - Polynomial.constant(3, 1.0)
    assert q.min_degree() == 2
    assert q.degree() == 4


def test_derivatives_exact():
    x = Polynomial.coordinate(3, 0)
    y = Polynomial.coordinate(3, 1)
    p = x * x * y + 2.0 * y
    dp_dx = p.derivative(0)
    dp_dy = p.derivative(1)
    pt = np.array([1.5, -2.0, 0.3])
    assert dp_dx(pt) == pytest.approx(2 * 1.5 * -2.0)
    assert dp_dy(pt) == pytest.approx(1.5**2 + 2.0)
    hess = p.hessian()
    assert hess[0][0](pt) == pytest.approx(2 * -2.0)
    assert hess[0][1](pt) == pytest.approx(2 * 1.5)
    assert hess[2][2](pt) == pytest.approx(0.0)


def test_validation():
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1.0})
    with pytest.raises(ValueError):
        Polynomial.coordinate(2, 0) ** -1


def term_by_term(poly, pts):
    out = np.zeros(pts.shape[0])
    for exps, coeff in poly.terms.items():
        term = np.full(pts.shape[0], coeff)
        for i, e in enumerate(exps):
            if e:
                term = term * pts[:, i] ** e
        out += term
    return out


def test_vectorized_eval_equals_term_by_term():
    # same products in the same order and the same sum from zero, so the
    # values are the same floats, zero signs included
    rng = np.random.default_rng(3)
    for _ in range(200):
        dim = int(rng.integers(1, 7))
        terms = {tuple(rng.integers(0, 9, dim)): rng.normal()
                 for _ in range(int(rng.integers(0, 40)))}
        poly = Polynomial(dim, terms)
        pts = 2.0 * rng.normal(size=(int(rng.integers(1, 50)), dim))
        pts[0] = 0.0
        got, ref = poly(pts), term_by_term(poly, pts)
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))
        assert poly(pts[-1]) == term_by_term(poly, pts[-1:])[0]


def test_derivatives_are_cached():
    p = (1.0 + 0.3 * Polynomial.radius_squared(3)) ** 3
    assert p.derivative(1) is p.derivative(1)
    assert p.derivative(1).derivative(2) is p.derivative(1).derivative(2)


def test_value_does_not_depend_on_the_batch():
    # each point alone gives the float it gives inside a batch of 257, sign
    # of zero included; the batched foot-point Newton relies on this.  It
    # must go through __call__: a Python-scalar x ** e rounds differently
    # from the array ** in a few percent of points once e >= 3.
    rng = np.random.default_rng(5)
    for _ in range(60):
        dim = int(rng.integers(1, 4))
        poly = Polynomial(dim, {tuple(rng.integers(0, 9, dim)): rng.normal()
                                for _ in range(6)})
        pts = rng.uniform(-1.5, 1.5, (257, dim))
        alone = np.array([poly(p) for p in pts])
        assert alone.tobytes() == poly(pts).tobytes()
