#!/usr/bin/env python3
"""blowlab benchmark: one command for the three workloads.

    python3 benchmark/run.py --workload cone-n6-pair --seed 1 --seconds 20 --trace 0

Workloads (see benchmark/README.md):
  cone-n6-pair  n = 6 meridian pair (Euclidean, then conformal-quadratic
                replaying its truncation schedule), through the library
  sweep-1d      1-D profiles + first eigenpairs over a seeded domain family,
                then barrier-certificate searches, through the library
  pipeline-n3   the six `blowlab` CLI stages, one process each, on a
                generated config

Run from the root of a checkout.  The program is used from source
(`src/` on PYTHONPATH); the only build step is byte-compiling it.  With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer ones.  This orchestrator uses the standard library
only; blowlab runs in child processes with the BLAS pool pinned to at most
two threads.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
DEADLINE_S = 170.0
SETUPS = 3

sys.path.insert(0, HERE)
import checks  # noqa: E402
import workloads  # noqa: E402

LAUNCH_CLI = "import sys; from blowlab.cli import main; sys.exit(main())"
PYTHON = sys.executable or "python3"


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Runner:
    """Starts children one at a time, logs their output, enforces the deadline."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def run(self, cmd, name):
        self.count += 1
        log = os.path.join(self.workdir, f"{self.count:03d}-{name}")
        with open(log + ".out", "w") as out, open(log + ".err", "w") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - t0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{name} ran past the deadline")
            wall = time.monotonic() - t0
        with open(log + ".out") as fh:
            stdout = fh.read()
        return code, wall, stdout

    def worker(self, args, name):
        """Run benchmark/worker.py; return its JSON result."""
        spawned = time.monotonic()
        code, _, stdout = self.run(
            [PYTHON, os.path.join(HERE, "worker.py"), *args,
             "--spawned-at", repr(spawned)], name)
        lines = stdout.strip().splitlines()
        if code != 0 or not lines:
            raise BenchError(f"{name} exited {code}; see {self.workdir}")
        return json.loads(lines[-1])


def peak_rss_mb():
    """Largest resident set of any child reaped so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# library workloads


def run_library(runner, args):
    res = runner.worker(["--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace)], "worker")
    rss = peak_rss_mb()
    setups = [res["setup_s"]]
    for k in range(SETUPS - 1):
        setups.append(runner.worker(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"], f"setup-{k}")["setup_s"])
    res["setup_s"] = setups
    res["peak_rss_mb"] = rss
    if args.trace:
        walls = res.pop("trace_walls")
        res["layers"].update({f"cli.stage_s.{s}": 0.0 for s in workloads.STAGES})
        res["layers"]["cli.import_s"] = 0.0
        res["layers"].update(overhead(walls["untraced"], walls["traced"]))
    return res


def overhead(untraced, traced):
    base = statistics.median(untraced)
    extra = statistics.median(traced) - base
    return {"trace.overhead_s": extra, "trace.overhead_pct": 100.0 * extra / base}


# ---------------------------------------------------------------------------
# pipeline-n3


STAGE_CHECKS = {
    "eigen": lambda out: (checks.check_eigen_csv(
        os.path.join(out, "half-sphere-n3", "eigen.csv"))
        + checks.check_eigen_csv(os.path.join(out, "half-sphere-n6", "eigen.csv"))),
    "solve": lambda out: checks.check_ball_field(
        os.path.join(out, "ball-n3", "field.csv")),
    "certify": lambda out: _each_case(out, "certificates.csv", "passed"),
    "verify": lambda out: _each_case(out, "verify.csv", "passed"),
}


def _each_case(out, name, column):
    fails, seen = [], 0
    for label in sorted(os.listdir(out)):
        path = os.path.join(out, label, name)
        if os.path.exists(path):
            seen += 1
            fails += checks.check_rows_pass(path, column)
    return fails if seen else [f"no {name} written"]


def _report_tables(out):
    """Well-formedness of the report: the operation's own output."""
    fails = []
    for name in ("report.md", "certificates.md"):
        path = os.path.join(out, name)
        fails += (checks.check_markdown_tables(path) if os.path.exists(path)
                  else [f"{name} missing"])
    return fails


def pipeline_pass(runner, cfg, k, traced):
    """Six stage processes in order.

    Returns the stage wall times, the failed operations, the wrong values
    found by the checks, the merged per-layer figures (traced passes), the
    artifact digests and the pass directory.
    """
    passdir = os.path.join(runner.workdir, f"pass-{k}")
    out = os.path.join(passdir, "out")
    os.makedirs(out)
    walls, failed, wrong, layers, imports = {}, [], [], [], []
    for stage in workloads.STAGES:
        stage_args = [stage, "--config", cfg, "--jobs", "1", "--out", out]
        if traced:
            layer_file = os.path.join(passdir, f"{stage}.layers.json")
            cmd = [PYTHON, os.path.join(HERE, "stage.py"),
                   "--layers-out", layer_file, "--", *stage_args]
        else:
            cmd = [PYTHON, "-c", LAUNCH_CLI, *stage_args]
        code, wall, _ = runner.run(cmd, f"pass{k}-{stage}")
        walls[stage] = wall
        problems = [] if code == 0 else [f"exit code {code}"]
        if stage == "report":
            problems += _report_tables(out)
        if problems:
            failed.append(f"{stage}: " + "; ".join(problems))
        if stage in STAGE_CHECKS:
            wrong += STAGE_CHECKS[stage](out)
        if traced:
            with open(layer_file) as fh:
                layer = json.load(fh)
            imports.append(layer.pop("cli.import_s"))
            layers.append(layer)
    merged = None
    if traced:
        from tracer import merge

        merged = merge(layers)
        merged["cli.import_s"] = statistics.median(imports)
        merged.update({f"cli.stage_s.{s}": walls[s] for s in workloads.STAGES})
    return walls, failed, wrong, merged, checks.artifact_digests(out), passdir


def pipeline_setup(runner, args, cfg, k):
    return runner.worker(["--workload", "pipeline-n3", "--seed", str(args.seed),
                          "--setup-only", "--config", cfg], f"setup-{k}")["setup_s"]


def run_pipeline(runner, args):
    cfg = os.path.join(runner.workdir, "cases.cfg")
    with open(cfg, "w") as fh:
        fh.write(workloads.pipeline_config(args.seed, "out"))
    passes, failures, wrong, layers = [], 0, [], []
    first_digests = None
    # passes run until their stage wall times add up to --seconds; at least
    # two, for the rerun check; traced runs: a warm-up pass, then untraced
    # and traced passes in turn
    min_passes = 3 if args.trace else 2
    k = 0
    while (k < min_passes
           or sum(sum(p["walls"].values()) for p in passes) < args.seconds):
        traced = bool(args.trace) and k % 2 == 1
        walls, failed, pass_wrong, layer, digests, passdir = pipeline_pass(
            runner, cfg, k, traced)
        for msg in failed:
            print(f"pass {k} failed operation: {msg}", file=sys.stderr)
        failures += len(failed)
        wrong += pass_wrong
        if first_digests is None:
            first_digests = digests
        else:
            wrong += checks.check_rerun_identical(first_digests, digests,
                                                  f"pass {k}")
            shutil.rmtree(passdir)
        passes.append({"walls": walls, "traced": traced,
                       "warmup": bool(args.trace) and k == 0})
        if layer is not None:
            layers.append(layer)
        k += 1
    rss = peak_rss_mb()
    setups = [pipeline_setup(runner, args, cfg, j) for j in range(SETUPS)]
    for msg in wrong:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    untraced = [p["walls"] for p in passes if not p["traced"]]
    res = {
        "setup_s": setups,
        "rounds": len(passes),
        "attempted": len(workloads.STAGES) * len(passes),
        "failed": failures,
        "correct": not wrong,
        "primary_s": [w["solve"] for w in untraced],
        "secondary_s": [sum(v for s, v in w.items() if s != "solve")
                        for w in untraced],
        "peak_rss_mb": rss,
    }
    if args.trace:
        res["layers"] = {key: statistics.median(l[key] for l in layers)
                         for key in layers[0]}
        res["layers"].update(overhead(
            [sum(p["walls"].values()) for p in passes
             if not (p["traced"] or p["warmup"])],
            [sum(p["walls"].values()) for p in passes if p["traced"]]))
    return res


# ---------------------------------------------------------------------------
# report

END_TO_END = (("setup_s", "s"), ("primary_s", "s"), ("secondary_s", "s"),
              ("peak_rss_mb", "MB"))
MEANING = {
    "cone-n6-pair": (("pair_s", "s", "primary_s",
                      "median wall time of one verified pair"),
                     ("perturbed_solve_s", "s", "secondary_s",
                      "median wall time of its perturbed-metric solve")),
    "sweep-1d": (("eigenpairs_per_s", "1/s", "primary_s",
                  "profiles + first eigenpairs per second"),
                 ("certificates_per_s", "1/s", "secondary_s",
                  "barrier-certificate searches per second")),
    "pipeline-n3": (("solve_stage_s", "s", "primary_s",
                     "wall time of the `blowlab solve` process"),
                    ("light_stages_s", "s", "secondary_s",
                     "summed wall time of profile, eigen, certify, verify, "
                     "report")),
}


def layer_unit(name):
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "B" if name == "reports.bytes_written" else "count"


def report(args, res):
    print(f"blowlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  rounds {res['rounds']}, operations attempted {res['attempted']}, "
          f"failed {res['failed']}, outputs correct: {res['correct']}")
    metrics = {}
    if args.trace:
        for name in sorted(res["layers"]):
            value, unit = res["layers"][name], layer_unit(name)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:44s} {value:.6g} {unit}")
    else:
        values = {
            "setup_s": statistics.median(res["setup_s"]),
            "primary_s": statistics.median(res["primary_s"]),
            "secondary_s": statistics.median(res["secondary_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:18s} {values[name]:.6g} {unit}")
        print(f"  setup_s is the median of {len(res['setup_s'])} set-ups; "
              f"times are medians over {len(res['primary_s'])} rounds")
        for name in ("setup_s", "primary_s", "secondary_s"):
            print(f"  {name} samples: "
                  + " ".join(f"{v:.4f}" for v in res[name]))
        units = res.get("units_per_round", {})
        per_round = {"primary_s": units.get("domains"),
                     "secondary_s": units.get("certificates")}
        for name, unit, source, what in MEANING[args.workload]:
            value = values[source]
            if unit == "1/s":
                value = per_round[source] / value
            print(f"  {name:18s} {value:.6g} {unit}  ({what})")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description="blowlab benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "blowlab", "__init__.py")):
        print(f"no blowlab sources under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(workdir, start + DEADLINE_S)
    try:
        code, _, _ = runner.run([PYTHON, "-m", "compileall", "-q", SRC, HERE],
                                   "build")
        if code != 0:
            raise BenchError("byte-compiling the sources failed")
        if args.workload == "pipeline-n3":
            res = run_pipeline(runner, args)
        else:
            res = run_library(runner, args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    report(args, res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
