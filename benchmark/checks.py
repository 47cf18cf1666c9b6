"""Correctness checks of the workloads' outputs.

Every check compares against a closed form, an independently computed
quantity, or a property the method must have; none compares against a
stored copy of an earlier output.  Each returns a list of failure messages
(empty when the check passes).  The pipeline checks read the artifacts as
text and use only the standard library.
"""

import hashlib
import json
import math
import os
import re

# -- tolerances (the README states and motivates each) ----------------------
ALPHA_SLACK = 0.2            # alpha_hat >= predicted - slack (the verify rule)
ALPHA_AGREE = 1e-9           # program alpha_hat against the refit here
BRACKET_MAX = 1e-3           # max (u_high - u) / u over the interior window
W_PROFILE_TOL = 0.1          # |w / g - 1| on the window, >= W_WALL_GAP from the wall
W_WALL_GAP = 0.2             # radians
EIGEN_TOL = 1e-4             # half-sphere lambda1 and mu1 against closed form
PROFILE_TOL = 5e-4           # half-sphere g against (cos theta)^-(n-2)/2
PROFILE_WALL_GAP = 0.1       # radians kept clear of the blow-up wall
N3_LOWER_BOUND = 0.75
MU_TOL = 1e-12
RAYLEIGH_TOL = 1e-9
MARGIN_TOL = 1e-9
BALL_TOL = 1e-4              # ball-n3 field against (2R/(R^2-r^2))^((n-2)/2)
BALL_R_MAX = 0.9             # "away from the wall": r <= 0.9 R


def _rel(a, b):
    return abs(a / b - 1.0)


# -- cone-n6-pair -----------------------------------------------------------
def refit_alpha(u, u_base, radii, window, r_lo, r_hi):
    """Dyadic-annulus fit of max |u/u_base - 1| against r, done here."""
    import numpy as np

    vals = np.abs(u / u_base - 1.0)[window]
    rad = radii[window]
    edges = [r_lo]
    while edges[-1] * 2.0 < r_hi * (1.0 + 1e-12):
        edges.append(edges[-1] * 2.0)
    mids, maxima = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (rad >= lo) & (rad < hi)
        mids.append(math.sqrt(lo * hi))
        maxima.append(float(np.max(vals[sel])) if np.any(sel) else float("nan"))
    return float(np.polyfit(np.log(mids), np.log(maxima), 1)[0])


def check_alpha(alpha_program, alpha_refit, predicted):
    fails = []
    if not abs(alpha_program - alpha_refit) <= ALPHA_AGREE * max(1.0, abs(alpha_refit)):
        fails.append(f"alpha_hat {alpha_program!r} differs from the refit "
                     f"{alpha_refit!r}")
    if not alpha_refit >= predicted - ALPHA_SLACK:
        fails.append(f"alpha_hat {alpha_refit:.4f} < predicted {predicted:g} "
                     f"- {ALPHA_SLACK}")
    return fails


def check_bracket(u, u_high, window, label):
    import numpy as np

    width = float(np.max((u_high[window] - u[window]) / u[window]))
    if not 0.0 <= width < BRACKET_MAX:
        return [f"{label}: bracket width {width:.3e} outside [0, {BRACKET_MAX:g})"]
    return []


def check_replay(m_euclidean, m_perturbed):
    if list(m_euclidean) != list(m_perturbed):
        return [f"perturbed solve ran levels {list(m_perturbed)} instead of "
                f"the Euclidean {list(m_euclidean)}"]
    return []


def check_t_independence(w, g, rows, cols):
    """w = r^((n-2)/2) u of the Euclidean cone field is the profile g."""
    import numpy as np

    dev = float(np.max(np.abs(w[np.ix_(rows, cols)] / g[cols][None, :] - 1.0)))
    if not dev <= W_PROFILE_TOL:
        return [f"w deviates from the 1-D profile by {dev:.3e} "
                f"(> {W_PROFILE_TOL:g})"]
    return []


# -- sweep-1d ---------------------------------------------------------------
def half_sphere_lambda1(n):
    """phi = cos^((n+2)/2) theta is the ground state: (n+2)(3n-2)/4."""
    return (n + 2.0) * (3.0 * n - 2.0) / 4.0


def check_half_sphere_eigen(n, lambda1, mu1):
    fails = []
    if not _rel(lambda1, half_sphere_lambda1(n)) <= EIGEN_TOL:
        fails.append(f"n={n}: half-sphere lambda1 {lambda1!r} against "
                     f"{half_sphere_lambda1(n)!r}")
    if not _rel(mu1, n) <= EIGEN_TOL:
        fails.append(f"n={n}: half-sphere mu1 {mu1!r} against {n}")
    return fails


def check_half_sphere_profile(n, theta, g):
    """The half-space solution x_n^-(n-2)/2 restricted to the sphere."""
    worst = 0.0
    for th, gv in zip(theta, g):
        if th <= math.pi / 2 - PROFILE_WALL_GAP:
            worst = max(worst, _rel(gv, math.cos(th) ** (-(n - 2) / 2.0)))
    if not worst <= PROFILE_TOL:
        return [f"n={n}: half-sphere profile off the closed form by {worst:.3e}"]
    return []


def check_n3_lower_bound(label, lambda1):
    if not lambda1 > N3_LOWER_BOUND:
        return [f"{label}: n=3 lambda1 {lambda1!r} <= 3/4"]
    return []


def check_nested_caps(n, apertures, lambdas):
    pairs = sorted(zip(apertures, lambdas))
    for (a0, l0), (a1, l1) in zip(pairs, pairs[1:]):
        if not (a1 > a0 and l1 < l0):
            return [f"n={n}: lambda1 not strictly decreasing over nested caps "
                    f"({a0:.4f}: {l0!r}, {a1:.4f}: {l1!r})"]
    return []


def check_mu(label, n, lambda1, mu1):
    expect = math.sqrt(((n - 2) / 2.0) ** 2 + lambda1)
    if not abs(mu1 - expect) <= MU_TOL * expect:
        return [f"{label}: mu1 {mu1!r} against sqrt(((n-2)/2)^2 + lambda1) "
                f"= {expect!r}"]
    return []


def check_rayleigh(label, quotient, lambda1):
    if not _rel(quotient, lambda1) <= RAYLEIGH_TOL:
        return [f"{label}: rayleigh(profile, phi1) = {quotient!r} against "
                f"lambda1 {lambda1!r}"]
    return []


def double_ball_margin(n, c_l, R, samples=512):
    """Worst margin of 2 u_R as a supersolution, from the closed form
    u_R = (2R / (R^2 - r^2))^m, m = (n-2)/2, on [0, R(1 - 1e-6)]."""
    import numpy as np

    m = 0.5 * (n - 2.0)
    p = (n + 2.0) / (n - 2.0)
    r = np.linspace(0.0, R * (1.0 - 1e-6), samples)
    s = R * R - r * r
    u = (2.0 * R / s) ** m
    # u' = 2 m r u / s,  u'' = u (2m/s + 4m(m+1) r^2/s^2);  Delta u_R is
    # n(n-2)/4 u_R^p, so the margin of w = 2 u_R is n(n-2)/4 (w^p - 2 u^p)
    du = 2.0 * m * r * u / s
    d2u = u * (2.0 * m / s + 4.0 * m * (m + 1.0) * r * r / (s * s))
    w, dw, d2w = 2.0 * u, 2.0 * du, 2.0 * d2u
    coef = 0.25 * n * (n - 2.0)
    slope = np.where(r > 0, np.abs(dw) / np.where(r > 0, r, 1.0), np.abs(d2w))
    hess = np.maximum(np.abs(d2w), slope)
    margin = coef * (w**p - 2.0 * u**p) - c_l * (r * r * hess + r * np.abs(dw) + w)
    return float(np.min(margin))


def check_double_ball(label, n, c_l, cert):
    fails = []
    R = float(cert.constants["R_star"])
    margin = double_ball_margin(n, c_l, R, cert.node_count)
    if not _rel(cert.margin, margin) <= MARGIN_TOL:
        fails.append(f"{label}: margin {cert.margin!r} at R*={R:g} against the "
                     f"closed-form {margin!r}")
    if not margin > 0.0:
        fails.append(f"{label}: closed-form margin {margin!r} at R*={R:g} <= 0")
    return fails


def check_certificate(label, passed, margin):
    if not (passed and margin > 0.0):
        return [f"{label}: certificate failed (margin {margin!r})"]
    return []


# -- pipeline-n3 ------------------------------------------------------------
def read_csv(path):
    """(meta dict or None, header, rows of strings)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta = None
    if lines and lines[0].startswith("# "):
        meta = json.loads(lines[0][2:])
        lines = lines[1:]
    header = lines[0].split(",")
    return meta, header, [line.split(",") for line in lines[1:]]


def check_rows_pass(path, column):
    meta, header, rows = read_csv(path)
    idx = header.index(column)
    bad = [row[0] for row in rows if row[idx] != "true"]
    if bad or not rows:
        return [f"{path}: rows not passing: {bad or 'none written'}"]
    return []


def check_ball_field(path, n=3, R=1.0):
    meta, header, rows = read_csv(path)
    ir, iu = header.index("r"), header.index("u")
    worst, count = 0.0, 0
    for row in rows:
        r, u = float(row[ir]), float(row[iu])
        if r <= BALL_R_MAX * R:
            exact = (2.0 * R / (R * R - r * r)) ** ((n - 2) / 2.0)
            worst = max(worst, _rel(u, exact))
            count += 1
    if count == 0 or not worst <= BALL_TOL:
        return [f"{path}: ball field off (2R/(R^2-r^2))^((n-2)/2) by "
                f"{worst:.3e} on {count} nodes"]
    return []


def check_eigen_csv(path):
    meta, _, _ = read_csv(path)
    return check_half_sphere_eigen(int(meta["n"]), float(meta["lambda1"]),
                                   float(meta["mu1"]))


_CELL_SPLIT = re.compile(r"(?<!\\)\|")


def table_cells(line):
    """Cells of a Markdown table row; an escaped \\| stays inside its cell."""
    return _CELL_SPLIT.split(line.strip())[1:-1]


def check_markdown_tables(path):
    """Every table row has as many cells as its header row."""
    fails = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = None
    for k, line in enumerate(lines):
        if not line.startswith("|"):
            header = None
            continue
        cells = len(table_cells(line))
        if header is None:
            header = cells
        elif cells != header:
            fails.append(f"{path}:{k + 1}: {cells} cells under a {header}-cell "
                         f"header")
    return fails


def artifact_digests(outdir):
    """relative path -> sha256 of every file under outdir."""
    digests = {}
    for base, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, outdir)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return digests


def check_rerun_identical(first, later, label):
    if first == later:
        return []
    changed = sorted(k for k in set(first) | set(later)
                     if first.get(k) != later.get(k))
    return [f"{label}: artifacts differ from the first pass: {changed}"]
