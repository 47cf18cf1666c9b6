import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

CONFIG = """
[suite]
output = {out}

[case:tiny-profile]
stages = profile eigen
geometry = polar-sphere
theta_lo = 0.0
theta_hi = 1.5707963267948966
bc_lo = regular-pole
bc_hi = blowup
n = 3
nodes = 400
grading = 2.0
schedule = 1e2
interior_tol = 1e-8

[case:tiny-ball]
stages = solve verify
reduction = ball
n = 3
operator = euclidean
r_max = 1.0
n_eta = 200
eta_grading = 2.0
schedule = 1e2 1e3
newton_tol = 1e-10
interior_tol = 1e-8
bracket_low = 0.5
bracket_high = 2.0
bracket_tol = 1.0
fit_lo = 0.001953125
fit_hi = 0.25
predicted = 1.0
slack = 0.15
sharp_at = 1.3

[case:tiny-barrier]
stages = certify
n = 3
barrier = double-ball
c_l = 0.5
"""


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "blowlab.cli", *args],
        capture_output=True, text=True,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    cfg = base / "cases.cfg"
    out = base / "out"
    cfg.write_text(CONFIG.format(out=out))
    return base, cfg, out


def test_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[case:x]\nstages = fly\n")
    res = run_cli("profile", "--config", str(bad))
    assert res.returncode == 4
    res = run_cli("profile", "--config", str(tmp_path / "missing.cfg"))
    assert res.returncode == 4


def test_unknown_case_exit_code(workdir):
    _, cfg, _ = workdir
    res = run_cli("profile", "--config", str(cfg), "--case", "nope")
    assert res.returncode == 2


def test_missing_artifact_exit_code(workdir):
    base, cfg, out = workdir
    if out.exists():
        shutil.rmtree(out)
    res = run_cli("eigen", "--config", str(cfg), "--case", "tiny-profile")
    assert res.returncode == 3


def test_pipeline_and_idempotence(workdir):
    base, cfg, out = workdir
    assert run_cli("profile", "--config", str(cfg)).returncode == 0
    assert run_cli("eigen", "--config", str(cfg)).returncode == 0
    assert run_cli("solve", "--config", str(cfg)).returncode == 0
    assert run_cli("certify", "--config", str(cfg)).returncode == 0
    assert run_cli("verify", "--config", str(cfg)).returncode == 0
    assert run_cli("report", "--config", str(cfg)).returncode == 0

    profile_csv = (out / "tiny-profile" / "profile.csv").read_bytes()
    ratio_csv = (out / "tiny-ball" / "ratio.csv").read_bytes()
    report_md = (out / "report.md").read_bytes()

    # byte-identical rerun
    assert run_cli("profile", "--config", str(cfg)).returncode == 0
    assert run_cli("solve", "--config", str(cfg)).returncode == 0
    assert run_cli("report", "--config", str(cfg)).returncode == 0
    assert (out / "tiny-profile" / "profile.csv").read_bytes() == profile_csv
    assert (out / "tiny-ball" / "ratio.csv").read_bytes() == ratio_csv
    assert (out / "report.md").read_bytes() == report_md


def test_case_filter_reproduces_results(workdir):
    base, cfg, out = workdir
    full = (out / "tiny-ball" / "ratio.csv").read_bytes()
    res = run_cli("solve", "--config", str(cfg), "--case", "tiny-ball")
    assert res.returncode == 0
    assert (out / "tiny-ball" / "ratio.csv").read_bytes() == full


def test_parallel_jobs(workdir):
    base, cfg, out = workdir
    before = (out / "tiny-profile" / "profile.csv").read_bytes()
    res = run_cli("profile", "--config", str(cfg), "--jobs", "2")
    assert res.returncode == 0
    assert (out / "tiny-profile" / "profile.csv").read_bytes() == before


def test_report_artifacts(workdir):
    base, cfg, out = workdir
    assert (out / "report.md").exists()
    assert (out / "certificates.md").exists()
    assert (out / "tiny-ball" / "ratio.svg").exists()
    svg = (out / "tiny-ball" / "ratio.svg").read_text()
    assert svg.startswith("<svg")


UNLOCALIZED = """
[suite]
output = {out}

[case:tight-bracket]
stages = solve
reduction = meridian
n = 3
operator = euclidean
aperture = 1.0471975511965976
r_min = 0.00390625
r_max = 1.0
nt_per_octave = 4
n_eta = 32
eta_grading = 2.0
schedule = 1e2
newton_tol = 1e-10
interior_tol = 1e-8
bracket_low = 0.5
bracket_high = 2.0
bracket_tol = 1e-9
fit_lo = 0.0078125
fit_hi = 0.25
"""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_solver_failure_exit_code(tmp_path, jobs):
    # a bracket tolerance no {1/2, 2}x bracket meets raises LocalizationError
    cfg = tmp_path / "cases.cfg"
    cfg.write_text(UNLOCALIZED.format(out=tmp_path / "out"))
    res = run_cli("solve", "--config", str(cfg), "--jobs", jobs)
    assert res.returncode == 5
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver failure: LocalizationError")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_solver_failure_ends_only_its_case(tmp_path, jobs):
    # z-loose is tight-bracket with a tolerance its bracket meets, fitted
    # from the inner edge of the interior window, r = 4 r_min
    loose = (UNLOCALIZED.split("[case:tight-bracket]")[1]
             .replace("bracket_tol = 1e-9", "bracket_tol = 1.0")
             .replace("fit_lo = 0.0078125", "fit_lo = 0.015625"))
    cfg = tmp_path / "cases.cfg"
    cfg.write_text(UNLOCALIZED.format(out=tmp_path / "out")
                   + "\n[case:z-loose]" + loose)
    res = run_cli("solve", "--config", str(cfg), "--jobs", jobs)
    assert res.returncode == 5
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(
        "solver failure: LocalizationError: case tight-bracket:")
    assert lines[1].startswith("[z-loose] solve: alpha_hat=")
    assert (tmp_path / "out" / "z-loose" / "field.csv").exists()
    assert not (tmp_path / "out" / "tight-bracket" / "field.csv").exists()
