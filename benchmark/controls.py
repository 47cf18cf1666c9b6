#!/usr/bin/env python3
"""Negative controls of the benchmark's correctness checks.

    python3 benchmark/controls.py

Each check must pass on a real output of the program and fail on a
deliberately wrong copy of it (a field scaled by 1 + 1e-3, a lambda1 off by
1%, a report table with an extra cell, ...).  Takes about 15 s: one
cone-n6-pair pair, the n = 3 ball solve and a few 1-D solves.  Exits 1 if
any control does not behave.
"""

import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

RESULTS = []


def expect(name, fails, should_fail):
    ok = bool(fails) == should_fail
    RESULTS.append(ok)
    verdict = "fails" if fails else "passes"
    print(f"[{'ok' if ok else 'WRONG'}] {name}: {verdict}"
          + (f" ({fails[0]})" if fails else ""))


def cone_controls():
    w = worker.build_cone(workloads.cone_inputs(0))
    _, (base, fld, fit) = worker.cone_round(w)
    assert not worker.check_cone(w, (base, fld, fit))
    dom, n = w["domain"], w["n"]
    r = base.r
    wall_gap = (1.0 - base.eta) * dom.aperture
    rows = (r >= 4.0 * dom.r_min) & (r <= dom.r_max / 4.0)
    window = rows[:, None] & (wall_gap >= 0.05)[None, :]

    def alpha_fails(u):
        refit = checks.refit_alpha(u, base.u, fld.radii(), window, *w["fit"])
        return checks.check_alpha(fit.alpha_hat, refit, 2.0)

    expect("alpha_hat, real pair", alpha_fails(fld.u), False)
    expect("alpha_hat, perturbed field scaled by 1 + 1e-3",
           alpha_fails(fld.u * (1.0 + 1e-3)), True)
    expect("bracket width, real pair",
           checks.check_bracket(fld.u, fld.u_high, window, "perturbed"), False)
    expect("bracket width, u_high scaled by 1 + 2e-3",
           checks.check_bracket(fld.u, fld.u_high * (1.0 + 2e-3), window,
                                "perturbed"), True)
    expect("replay, real pair",
           checks.check_replay(base.m_history, fld.m_history), False)
    expect("replay, last level doubled",
           checks.check_replay(base.m_history,
                               fld.m_history[:-1] + [2 * fld.m_history[-1]]), True)

    from blowlab import SphericalDomain1D, solve_profile

    section = SphericalDomain1D("polar-sphere", 0.0, dom.aperture,
                                bc_lo="regular-pole", bc_hi="blowup")
    g = solve_profile(section, n, nodes=base.eta * dom.aperture,
                      schedule=base.m_history).g
    wfield = base.u * r[:, None] ** (0.5 * (n - 2.0))
    cols = wall_gap >= checks.W_WALL_GAP
    dev = np.max(np.abs(wfield[np.ix_(rows, cols)] / g[cols][None, :] - 1.0))
    print(f"     (w against the 1-D profile: {dev:.3e}, "
          f"tolerance {checks.W_PROFILE_TOL:g})")
    expect("t-independence, real field",
           checks.check_t_independence(wfield, g, rows, cols), False)
    expect("t-independence, w times r^0.1 (a wrong scaling exponent)",
           checks.check_t_independence(wfield * r[:, None] ** 0.1, g, rows,
                                       cols), True)
    expect("t-independence, field scaled by 1.15",
           checks.check_t_independence(wfield * 1.15, g, rows, cols), True)


def sweep_controls():
    from blowlab import (GridSpec, SphericalDomain1D, StructureClass,
                         certify_supersolution, first_eigenpair, rayleigh,
                         solve_profile)

    grid = GridSpec(count=workloads.SWEEP_NODES, grading=workloads.SWEEP_GRADING)

    def eig_of(lo, hi, n):
        bc_lo = "regular-pole" if lo == 0.0 else "blowup"
        return first_eigenpair(solve_profile(
            SphericalDomain1D("polar-sphere", lo, hi, bc_lo=bc_lo,
                              bc_hi="blowup"), n, grid=grid))

    for n in (3, 6):
        hs = eig_of(0.0, math.pi / 2, n)
        expect(f"half-sphere eigenpair n={n}",
               checks.check_half_sphere_eigen(n, hs.lambda1, hs.mu1), False)
        expect(f"half-sphere eigenpair n={n}, lambda1 off by 1%",
               checks.check_half_sphere_eigen(n, hs.lambda1 * 1.01, hs.mu1), True)
        expect(f"half-sphere eigenpair n={n}, mu1 off by 1%",
               checks.check_half_sphere_eigen(n, hs.lambda1, hs.mu1 * 1.01), True)
        th, g = hs.profile.theta, hs.profile.g
        expect(f"half-sphere profile n={n}",
               checks.check_half_sphere_profile(n, th, g), False)
        expect(f"half-sphere profile n={n}, scaled by 1 + 1e-3",
               checks.check_half_sphere_profile(n, th, g * (1.0 + 1e-3)), True)
        expect(f"mu1 identity n={n}",
               checks.check_mu("hs", n, hs.lambda1, hs.mu1), False)
        expect(f"mu1 identity n={n}, mu1 off by 1%",
               checks.check_mu("hs", n, hs.lambda1, hs.mu1 * 1.01), True)
        expect(f"rayleigh n={n}",
               checks.check_rayleigh("hs", rayleigh(hs.profile, hs.phi),
                                     hs.lambda1), False)
        bent = hs.phi * (1.0 + 0.1 * th)
        expect(f"rayleigh n={n}, phi1 bent by 1 + 0.1 theta",
               checks.check_rayleigh("hs", rayleigh(hs.profile, bent),
                                     hs.lambda1), True)

    caps = [(a, eig_of(0.0, a, 3).lambda1) for a in (0.7, 1.0, 1.3)]
    expect("n=3 lower bound", checks.check_n3_lower_bound("cap", caps[-1][1]),
           False)
    expect("n=3 lower bound, lambda1 = 0.74",
           checks.check_n3_lower_bound("cap", 0.74), True)
    apertures, lambdas = zip(*caps)
    expect("nested caps", checks.check_nested_caps(3, apertures, lambdas), False)
    expect("nested caps, two lambda1 swapped",
           checks.check_nested_caps(3, apertures,
                                    (lambdas[1], lambdas[0], lambdas[2])), True)

    cert = certify_supersolution(StructureClass(3, 1.3), "double-ball", n=3)
    expect("double-ball margin",
           checks.check_double_ball("db", 3, 1.3, cert), False)
    expect("double-ball margin, C_L 1% off in the re-evaluation",
           checks.check_double_ball("db", 3, 1.3 * 1.01, cert), True)
    cert.margin *= 1.01
    expect("double-ball margin, margin off by 1%",
           checks.check_double_ball("db", 3, 1.3, cert), True)
    expect("certificate passed", checks.check_certificate("c", True, 1.0), False)
    expect("certificate passed, a FAIL certificate",
           checks.check_certificate("c", False, -1.0), True)


def pipeline_controls(tmp):
    from blowlab import (DomainSpec2D, GridSpec, SolveConfig, SphericalDomain1D,
                         euclidean_operator, first_eigenpair, solve,
                         solve_profile)
    from blowlab.reports import (write_csv, write_eigen_csv, write_field_csv,
                                 write_markdown_table)

    fld = solve(DomainSpec2D("ball", aperture=math.pi, r_max=1.0),
                euclidean_operator(3), 3,
                SolveConfig(schedule=(1e2, 1e3, 1e4), bracket_tol=1.0,
                            n_eta=200, eta_grading=2.0))
    path = os.path.join(tmp, "field.csv")
    write_field_csv(path, fld)
    expect("ball field", checks.check_ball_field(path), False)
    fld.u = fld.u * (1.0 + 1e-3)
    write_field_csv(path, fld)
    expect("ball field, scaled by 1 + 1e-3", checks.check_ball_field(path), True)

    eig = first_eigenpair(solve_profile(
        SphericalDomain1D("polar-sphere", 0.0, math.pi / 2,
                          bc_lo="regular-pole", bc_hi="blowup"), 3,
        grid=GridSpec(count=3200, grading=2.5)))
    path = os.path.join(tmp, "eigen.csv")
    write_eigen_csv(path, eig)
    expect("eigen.csv", checks.check_eigen_csv(path), False)
    eig.lambda1 *= 1.01
    write_eigen_csv(path, eig)
    expect("eigen.csv, lambda1 off by 1%", checks.check_eigen_csv(path), True)

    path = os.path.join(tmp, "verify.csv")
    header = ["case", "n", "predicted_form", "predicted", "measured", "passed"]
    write_csv(path, header, [("a", 3, "C", 2.0, 2.1, True)])
    expect("rows pass", checks.check_rows_pass(path, "passed"), False)
    write_csv(path, header, [("a", 3, "C", 2.0, 2.1, True),
                             ("b", 3, "C", 2.0, 1.1, False)])
    expect("rows pass, one FAIL row", checks.check_rows_pass(path, "passed"), True)

    path = os.path.join(tmp, "report.md")
    write_markdown_table(path, "t", header, [("a", 3, "C", 2.0, 2.1, True)])
    expect("markdown table", checks.check_markdown_tables(path), False)
    write_markdown_table(path, "t", header, [("a", 3, "C\\|x\\|^2", 2.0, 2.1, True)])
    expect("markdown table, escaped pipes", checks.check_markdown_tables(path),
           False)
    write_markdown_table(path, "t", header, [("a", 3, "C", 2.0, 2.1, True, "x")])
    expect("markdown table, a row with an extra cell",
           checks.check_markdown_tables(path), True)
    write_markdown_table(path, "t", header, [("a", 3, "C|x|^2", 2.0, 2.1, True)])
    expect("markdown table, unescaped C|x|^2 as report.md writes it",
           checks.check_markdown_tables(path), True)

    digests = checks.artifact_digests(tmp)
    expect("rerun identical", checks.check_rerun_identical(digests, dict(digests),
                                                           "rerun"), False)
    with open(os.path.join(tmp, "eigen.csv"), "a") as fh:
        fh.write(" ")
    expect("rerun identical, one byte appended",
           checks.check_rerun_identical(digests, checks.artifact_digests(tmp),
                                        "rerun"), True)


def main():
    cone_controls()
    sweep_controls()
    tmp = os.path.join(os.path.dirname(HERE), ".bench_work", "controls")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    pipeline_controls(tmp)
    bad = RESULTS.count(False)
    print(f"{len(RESULTS) - bad} of {len(RESULTS)} controls behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
