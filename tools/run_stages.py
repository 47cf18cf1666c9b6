"""Run the six pipeline stages on one config, one process per stage.

    python tools/run_stages.py CONFIG OUT

Each stage (profile, eigen, solve, certify, verify, report) runs as its
own `python -m blowlab.cli STAGE --config CONFIG --out OUT`, in pipeline
order, with this checkout's `src/` first on PYTHONPATH and one BLAS/OpenMP
thread (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to
1), so that the CPU time counts only useful work: the extra threads of a
default BLAS spin idle in these stages, and the artifacts do not depend on
the thread count.  Every stage runs even when an earlier one fails.  The
script prints one `STAGE exit CODE` line per stage on stdout, and the
stage's wall time, CPU time (user + sys) and peak resident set size,
start-up included, as one
`STAGE took SECONDS s cpu SECONDS s peak RSS MB MB` line on stderr; it
exits with the worst (largest) status.  The CPU time and the peak RSS are
the stage process's own, read from `os.wait4` as it is reaped.  Together
with `tools/diff_artifacts.py` it compares two checkouts' artifacts:

    python tools/run_stages.py configs/cases.cfg /tmp/new
    python tools/diff_artifacts.py /tmp/old /tmp/new

Uses the standard library only.
"""

import os
import subprocess
import sys
import time

STAGES = ("profile", "eigen", "solve", "certify", "verify", "report")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_stages(config, out):
    """Exit status of each stage, in pipeline order."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(dict.fromkeys(THREAD_VARIABLES, "1"))
    codes = []
    for stage in STAGES:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "blowlab.cli", stage, "--config", config,
             "--out", out], env=env)
        # reap it here: the usage is this process's alone, where
        # getrusage(RUSAGE_CHILDREN) holds the largest RSS of any child yet
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        rss_mb = usage.ru_maxrss / 1024.0       # Linux reports kilobytes
        print(f"{stage} exit {code}", flush=True)
        print(f"{stage} took {wall:.3f} s cpu {cpu:.3f} s peak RSS "
              f"{rss_mb:.1f} MB", file=sys.stderr, flush=True)
        codes.append(code)
    return codes


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: run_stages.py CONFIG OUT", file=sys.stderr)
        return 2
    return max(run_stages(*argv))


if __name__ == "__main__":
    sys.exit(main())
