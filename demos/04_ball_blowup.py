#!/usr/bin/env python3
"""Blow-up solve on the unit ball against its closed form.

The ball admits the exact solution u_R = (2R/(R^2-|x|^2))^((n-2)/2); the
truncated radial solve must reproduce it interiorly, keep d^((n-2)/2) u
inside the two-sided growth bounds, and - because the boundary is curved -
approach the flat half-space reference at exactly first order in the
distance, no faster.
"""

import numpy as np

from blowlab import (
    DomainSpec2D,
    SolveConfig,
    compare_to_cone,
    euclidean_operator,
    exact_ball,
    fit_rate,
    growth_check,
    level_fields,
    monotone_check,
    solve,
)

dom = DomainSpec2D("ball", aperture=np.pi, r_max=1.0)
cfg = SolveConfig(schedule=(1e2, 1e3, 1e4), bracket_tol=1.0, n_eta=200,
                  eta_grading=2.0)
op = euclidean_operator(3)
fld = solve(dom, op, 3, cfg)

r = fld.t
exact = (2.0 / (1.0 - r**2)) ** 0.5
mask = r <= 0.7
print(f"interior error vs exact (|x| <= 0.7): "
      f"{np.max(np.abs(fld.u[mask, 0] / exact[mask] - 1.0)):.2e}")
print(f"u(0) = {fld.u[0, 0]:.8f}  exact sqrt(2) = {exact_ball(3, 1.0, np.zeros(3)):.8f}")

lo, hi = growth_check(fld)
print(f"growth bounds near the wall: {lo:.4f} <= d^(1/2) u <= {hi:.4f} "
      f"(upper cap 2^(1/2)*1.05 = {2**0.5*1.05:.4f})")

rep = monotone_check(level_fields(fld, op, cfg))
print(f"truncation monotone: {rep['monotone']}; interior increments "
      f"{['%.2e' % x for x in rep['increments']]}")

ratio = compare_to_cone(fld)
fit = fit_rate(ratio, 2.0**-9, 2.0**-2)
print(f"|d^(1/2) u - 1| ~ C d^alpha: alpha = {fit.alpha_hat:.4f}, "
      f"C = {fit.c_hat:.3f}, R^2 = {fit.r_squared:.5f}")
print("first order in d and not better: the curved wall keeps the rate at 1")
