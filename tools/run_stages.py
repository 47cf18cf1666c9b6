"""Run the six pipeline stages on one config, one process per stage.

    python tools/run_stages.py CONFIG OUT

Each stage (profile, eigen, solve, certify, verify, report) runs as its
own `python -m blowlab.cli STAGE --config CONFIG --out OUT`, in pipeline
order, with this checkout's `src/` first on PYTHONPATH.  Every stage runs
even when an earlier one fails.  The script prints one `STAGE exit CODE`
line per stage on stdout, and the stage's wall time and CPU time (user +
sys), start-up included, as one `STAGE took SECONDS s cpu SECONDS s` line
on stderr; it exits with the worst (largest) status.  Together with
`tools/diff_artifacts.py` it compares two checkouts' artifacts:

    python tools/run_stages.py configs/cases.cfg /tmp/new
    python tools/diff_artifacts.py /tmp/old /tmp/new

Uses the standard library only.
"""

import os
import resource
import subprocess
import sys
import time

STAGES = ("profile", "eigen", "solve", "certify", "verify", "report")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_stages(config, out):
    """Exit status of each stage, in pipeline order."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    codes = []
    for stage in STAGES:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "blowlab.cli", stage, "--config", config,
             "--out", out], env=env)
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime
               + after.ru_stime - before.ru_stime)
        print(f"{stage} exit {proc.returncode}", flush=True)
        print(f"{stage} took {wall:.3f} s cpu {cpu:.3f} s", file=sys.stderr,
              flush=True)
        codes.append(proc.returncode)
    return codes


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: run_stages.py CONFIG OUT", file=sys.stderr)
        return 2
    return max(run_stages(*argv))


if __name__ == "__main__":
    sys.exit(main())
