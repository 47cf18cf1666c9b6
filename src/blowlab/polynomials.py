"""Small dense multivariate polynomials with exact calculus.

Used for graph functions of boundary hypersurfaces and for metric
perturbation entries h_ij(x).  Terms are stored sparsely as a mapping
from exponent tuples to coefficients; evaluation is vectorized over a
(P, dim) block of points, and differentiation is exact, so curvature
and foot-point computations never pay finite-difference error for the
input data itself.  Derivatives are cached on the polynomial they were
taken of.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Polynomial"]


class Polynomial:
    """Polynomial in `dim` variables, term map {(e1,..,edim): coeff}."""

    def __init__(self, dim, terms=None):
        self.dim = int(dim)
        self.terms = {}
        self._derivatives = {}
        if terms:
            for exps, coeff in terms.items():
                self._add_term(exps, coeff)

    def _add_term(self, exps, coeff):
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.dim:
            raise ValueError(f"exponent tuple {exps} does not match dim {self.dim}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        self._derivatives.clear()
        c = self.terms.get(exps, 0.0) + float(coeff)
        if c == 0.0:
            self.terms.pop(exps, None)
        else:
            self.terms[exps] = c

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, dim):
        return cls(dim)

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def coordinate(cls, dim, i):
        exps = [0] * dim
        exps[i] = 1
        return cls(dim, {tuple(exps): 1.0})

    @classmethod
    def radius_squared(cls, dim):
        p = cls(dim)
        for i in range(dim):
            exps = [0] * dim
            exps[i] = 2
            p._add_term(exps, 1.0)
        return p

    # -- algebra ----------------------------------------------------------
    def __add__(self, other):
        if np.isscalar(other):
            other = Polynomial.constant(self.dim, other)
        out = Polynomial(self.dim, dict(self.terms))
        for exps, coeff in other.terms.items():
            out._add_term(exps, coeff)
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if np.isscalar(other):
            other = Polynomial.constant(self.dim, other)
        return self + other * (-1.0)

    def __mul__(self, other):
        if np.isscalar(other):
            out = Polynomial(self.dim)
            for exps, coeff in self.terms.items():
                out._add_term(exps, coeff * other)
            return out
        out = Polynomial(self.dim)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out._add_term(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        if k != int(k) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = Polynomial.constant(self.dim, 1.0)
        for _ in range(int(k)):
            out = out * self
        return out

    # -- calculus ---------------------------------------------------------
    def derivative(self, i):
        """Exact d/dx_i, computed once per polynomial and variable."""
        if i in self._derivatives:
            return self._derivatives[i]
        out = Polynomial(self.dim)
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            out._add_term(tuple(new), coeff * exps[i])
        self._derivatives[i] = out
        return out

    def gradient(self):
        return [self.derivative(i) for i in range(self.dim)]

    def hessian(self):
        grads = self.gradient()
        return [[grads[i].derivative(j) for j in range(self.dim)] for i in range(self.dim)]

    # -- queries ----------------------------------------------------------
    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def min_degree(self):
        if not self.terms:
            return -1
        return min(sum(e) for e in self.terms)

    def __call__(self, points):
        """Evaluate at points of shape (dim,) or (P, dim).

        Every term coeff * x_0^e_0 * x_1^e_1 * ... reads one table of the
        coordinate powers that occur, and the terms are summed from zero in
        order, so each value is the same float as the term-by-term sum.
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dim {pts.shape[1]}, expected {self.dim}")
        out = np.zeros(pts.shape[0])
        if self.terms:
            exps = np.array(list(self.terms))
            powers = np.ones((self.dim, exps.max() + 1, pts.shape[0]))
            for i in range(self.dim):
                for e in set(exps[:, i].tolist()) - {0}:
                    powers[i, e] = pts[:, i] ** e
            coeffs = np.array(list(self.terms.values()))
            terms = np.repeat(coeffs[:, None], len(pts), axis=1)
            for i in range(self.dim):
                terms *= powers[i, exps[:, i]]
            for term in terms:      # in order; a reduction may pair terms up
                out += term
        return out[0] if single else out

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exps) if e) or "1"
            bits.append(f"{self.terms[exps]:+g}*{mono}")
        return "Polynomial(" + " ".join(bits) + ")"
