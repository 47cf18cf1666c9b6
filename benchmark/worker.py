"""Library workloads: cone-n6-pair and sweep-1d, in one child process.

    python3 benchmark/worker.py --workload cone-n6-pair --seed 1 \
        --seconds 20 --trace 0 --spawned-at <time.monotonic() of the parent>

Set-up runs from interpreter start to the first timed operation; then whole
rounds run until their wall times add up to --seconds, each round's outputs
checked after it.  With --setup-only the process stops after set-up.  With
--trace 1 an untraced warm-up round comes first, then the rounds alternate
untraced and traced; the per-layer figures come from the traced ones.  The last line of stdout is one JSON
object for the orchestrator (benchmark/run.py).
"""

import argparse
import json
import os
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def build_cone(inputs):
    from blowlab import (DomainSpec2D, SolveConfig, conformal_operator,
                         conformal_quadratic_metric, euclidean_operator)

    n = inputs["n"]
    return {
        "n": n,
        "domain": DomainSpec2D("meridian", aperture=inputs["aperture"],
                               r_min=inputs["r_min"], r_max=inputs["r_max"]),
        "config": SolveConfig(
            schedule=inputs["schedule"], newton_tol=inputs["newton_tol"],
            interior_tol=inputs["interior_tol"], bracket=inputs["bracket"],
            bracket_tol=inputs["bracket_tol"],
            nt_per_octave=inputs["nt_per_octave"], n_eta=inputs["n_eta"],
            eta_grading=inputs["eta_grading"]),
        "euclidean": euclidean_operator(n),
        "perturbed": conformal_operator(
            conformal_quadratic_metric(n, inputs["q"])),
        "fit": (inputs["fit_lo"], inputs["fit_hi"]),
    }


def cone_round(w):
    """One verified pair; returns (timings, output)."""
    from blowlab import compare_to_cone, fit_rate, solve

    t0 = time.perf_counter()
    base = solve(w["domain"], w["euclidean"], w["n"], w["config"])
    t1 = time.perf_counter()
    fld = solve(w["domain"], w["perturbed"], w["n"], w["config"],
                forced_schedule=base.m_history)
    t2 = time.perf_counter()
    fit = fit_rate(compare_to_cone(fld, baseline=base), *w["fit"])
    t3 = time.perf_counter()
    return {"primary": t3 - t0, "secondary": t2 - t1}, (base, fld, fit)


def check_cone(w, output):
    """Checks of one pair against quantities computed here."""
    import checks
    from blowlab import (SphericalDomain1D, first_eigenpair, regime_exponent,
                         solve_profile)

    base, fld, fit = output
    n, dom = w["n"], w["domain"]
    if "predicted" not in w:
        section = SphericalDomain1D("polar-sphere", 0.0, dom.aperture,
                                    bc_lo="regular-pole", bc_hi="blowup")
        # the predicted exponent from the section's own eigenpair, and the
        # 1-D profile on the same eta nodes escalated through the truncation
        # levels the 2-D solve ran, both solved apart from the pair
        w["predicted"] = regime_exponent(first_eigenpair(solve_profile(
            section, n, schedule=[1e2]))).exponent
        w["profile"] = solve_profile(section, n, nodes=base.eta * dom.aperture,
                                     schedule=base.m_history).g
    r = base.r
    wall_gap = (1.0 - base.eta) * dom.aperture
    rows = (r >= 4.0 * dom.r_min) & (r <= dom.r_max / 4.0)
    window = rows[:, None] & (wall_gap >= 0.05)[None, :]
    alpha = checks.refit_alpha(fld.u, base.u, fld.radii(), window, *w["fit"])
    wfield = base.u * r[:, None] ** (0.5 * (n - 2.0))
    return (checks.check_alpha(fit.alpha_hat, alpha, w["predicted"])
            + checks.check_bracket(base.u, base.u_high, window, "euclidean")
            + checks.check_bracket(fld.u, fld.u_high, window, "perturbed")
            + checks.check_replay(base.m_history, fld.m_history)
            + checks.check_t_independence(wfield, w["profile"], rows,
                                          wall_gap >= checks.W_WALL_GAP))


def build_sweep(inputs):
    from blowlab import (GridSpec, SphericalDomain1D, StructureClass,
                         build_T, euclidean_operator, sphere_surface)

    domains = []
    for d in inputs["domains"]:
        bc_lo = "regular-pole" if d["lo"] == 0.0 else "blowup"
        bc_hi = "regular-pole" if d["kind"] == "cap-complement" else "blowup"
        domains.append((d, SphericalDomain1D(
            "polar-sphere", d["lo"], d["hi"], bc_lo=bc_lo, bc_hi=bc_hi,
            label=f"{d['kind']}-n{d['n']}-{d['lo']:.4f}-{d['hi']:.4f}")))
    certs = []
    for c in inputs["certificates"]:
        if c["kind"] in ("double-ball", "graded-sum"):
            certs.append((c, StructureClass(c["n"], c["c_l"])))
        elif c["kind"] == "t-composed":
            certs.append((c, (euclidean_operator(3),
                              build_T([sphere_surface(3, c["sphere_radius"])]))))
        else:
            certs.append((c, euclidean_operator(3)))
    return {"grid": GridSpec(count=inputs["nodes"], grading=inputs["grading"]),
            "domains": domains, "certificates": certs}


def sweep_round(w):
    from blowlab import certify_supersolution, first_eigenpair, solve_profile

    eig_s, cert_s = 0.0, 0.0
    eigen = []
    for d, dom in w["domains"]:
        t0 = time.perf_counter()
        eigen.append(first_eigenpair(solve_profile(dom, d["n"], grid=w["grid"])))
        eig_s += time.perf_counter() - t0
    certs = []
    for c, obj in w["certificates"]:
        t0 = time.perf_counter()
        if c["kind"] in ("double-ball", "graded-sum"):
            cert = certify_supersolution(obj, c["kind"], n=c["n"])
        elif c["kind"] == "t-composed":
            op, tmap = obj
            cert = certify_supersolution(op, "t-composed",
                                         eigen=eigen[c["domain"]], tmap=tmap)
        else:
            cert = certify_supersolution(obj, c["kind"], eigen=eigen[c["domain"]])
        cert_s += time.perf_counter() - t0
        certs.append(cert)
    return {"primary": eig_s, "secondary": cert_s}, (eigen, certs)


def check_sweep(w, output):
    import checks
    from blowlab import rayleigh

    eigen, certs = output
    fails = []
    caps = {}
    for (d, dom), eig in zip(w["domains"], eigen):
        n, label = d["n"], dom.label
        if d["kind"] == "half-sphere":
            fails += checks.check_half_sphere_eigen(n, eig.lambda1, eig.mu1)
            fails += checks.check_half_sphere_profile(
                n, eig.profile.theta, eig.profile.g)
        if d["kind"] in ("half-sphere", "cap"):
            caps.setdefault(n, []).append((d["hi"], eig.lambda1))
        if n == 3:
            fails += checks.check_n3_lower_bound(label, eig.lambda1)
        fails += checks.check_mu(label, n, eig.lambda1, eig.mu1)
        fails += checks.check_rayleigh(
            label, rayleigh(eig.profile, eig.phi), eig.lambda1)
    for n, pairs in caps.items():
        fails += checks.check_nested_caps(n, *zip(*pairs))
    for k, ((c, _), cert) in enumerate(zip(w["certificates"], certs)):
        label = f"certificate {k} ({c['kind']})"
        fails += checks.check_certificate(label, cert.passed, cert.margin)
        if c["kind"] == "double-ball":
            fails += checks.check_double_ball(label, c["n"], c["c_l"], cert)
    return fails


def setup_pipeline(config):
    """What every CLI stage does before its first case: load the config and
    build its domains, solve configs and operators."""
    from blowlab import cli

    suite, cases = cli.load_config(config)
    for case in cases.values():
        if "profile" in case.stages:
            case.spherical_domain()
            case.grid_spec()
        if "solve" in case.stages:
            case.domain2d()
            case.solve_config()
            case.operator()


WORKLOADS = {
    "cone-n6-pair": ("cone_inputs", build_cone, cone_round, check_cone, 1),
    "sweep-1d": ("sweep_inputs", build_sweep, sweep_round, check_sweep, None),
    "pipeline-n3": None,    # set-up probes only; the run is benchmark/run.py
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--config", help="pipeline-n3: the generated config")
    args = parser.parse_args()

    sys.path.insert(0, HERE)
    import blowlab  # noqa: F401  (set-up includes the import)
    import workloads

    if args.workload == "pipeline-n3":
        setup_pipeline(args.config)
        print(json.dumps({"setup_s": time.monotonic() - args.spawned_at}))
        return 0

    inputs_of, build, run_round, check, ops_per_round = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state = build(getattr(workloads, inputs_of)(args.seed))
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    structure_constant_s = tracer.time["structure_constant"] if tracer else 0.0

    if ops_per_round is None:
        ops_per_round = len(state["domains"]) + len(state["certificates"])
    # traced runs: a warm-up round, then untraced and traced rounds in turn
    min_rounds = 3 if tracer else 1
    # rounds run until their summed wall time reaches --seconds; each
    # round's output is checked (untimed) and dropped before the next, so
    # memory does not grow with the number of rounds
    rounds, layers, fails, failed = [], [], [], 0
    while (len(rounds) < min_rounds
           or sum(r["wall"] for r in rounds) < args.seconds):
        traced = tracer is not None and len(rounds) % 2 == 1
        warmup = tracer is not None and not rounds
        if traced:
            tracer.install()
            tracer.reset()
        elif tracer is not None:
            tracer.uninstall()
        t0 = time.perf_counter()
        try:
            timings, output = run_round(state)
        except Exception:  # a round that raises fails all its operations
            traceback.print_exc()
            failed += ops_per_round
            timings, output = None, None
        wall = time.perf_counter() - t0
        rounds.append({"wall": wall, "traced": traced, "warmup": warmup,
                       "timings": timings})
        if traced:
            layer = tracer.layers()
            layer["operators.structure_constant_s"] = structure_constant_s
            layers.append(layer)
            tracer.uninstall()
        if output is not None:
            fails += check(state, output)
            output = None
    if tracer is not None:
        tracer.uninstall()

    if len(rounds) == failed // ops_per_round:
        fails.append("no round completed")
    for msg in fails:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    done = [r["timings"] for r in rounds if r["timings"] and not r["traced"]]
    result = {
        "setup_s": setup_s,
        "rounds": len(rounds),
        "attempted": ops_per_round * len(rounds),
        "failed": failed,
        "correct": not fails,
        "primary_s": [t["primary"] for t in done],
        "secondary_s": [t["secondary"] for t in done],
        "units_per_round": {"domains": len(state.get("domains", ())),
                            "certificates": len(state.get("certificates", ()))},
    }
    if tracer is not None:
        untraced = [r["wall"] for r in rounds
                    if not (r["traced"] or r["warmup"])]
        traced = [r["wall"] for r in rounds if r["traced"]]
        result["layers"] = {key: statistics.median(l[key] for l in layers)
                            for key in layers[0]} if layers else {}
        result["trace_walls"] = {"untraced": untraced, "traced": traced}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
