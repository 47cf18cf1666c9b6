import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from blowlab.analysis import RateFit
from blowlab.reports import read_csv, write_ratio_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_STAGES = os.path.join(ROOT, "tools", "run_stages.py")
STAGES = ("profile", "eigen", "solve", "certify", "verify", "report")

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


def run_python(*args):
    # the child finds blowlab in this checkout's src/ whether or not it is
    # installed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def run_cli(*args):
    return run_python("-m", "blowlab.cli", *args)


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


# an empty, non-numeric, non-finite or non-positive truncation schedule
BAD_SCHEDULES = ["schedule =", "schedule = abc", "schedule = nan",
                 "schedule = inf", "schedule = 0", "schedule = -100"]


def _with_setting(config, case, setting, key=None):
    """`config` with the line of `key` (by default `setting`'s key) in
    `[case:CASE]` replaced by `setting`."""
    key = key or setting.split("=")[0].strip()
    lines, section = [], None
    for line in config.splitlines():
        if line.startswith("["):
            section = line
        if section == f"[case:{case}]" and line.startswith(key + " = "):
            line = setting
        lines.append(line)
    return "\n".join(lines)


@pytest.mark.parametrize("setting", ["grading = nan", "grading = inf",
                                     "nodes = 800.5", *BAD_SCHEDULES])
def test_invalid_value_exit_code(tmp_path, setting):
    profile_case = CONFIG.split("[case:tiny-ball]")[0]
    cfg = tmp_path / "cases.cfg"
    cfg.write_text(_with_setting(profile_case, "tiny-profile", setting)
                   .format(out=tmp_path / "out"))
    res = run_cli("profile", "--config", str(cfg))
    assert res.returncode == 4
    assert "Traceback" not in res.stderr
    err = res.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


TINY_CONE = """
[case:tiny-cone]
stages = solve
reduction = meridian
aperture = 1.0
curve = 0.1
r_min = 0.0009765625
r_max = 1.0
n = 3
operator = conformal-quadratic
q = 0.3
nt_per_octave = 4
n_eta = 32
eta_grading = 2.0
schedule = 1e2
newton_tol = 1e-10
interior_tol = 1e-8
bracket_low = 0.5
bracket_high = 2.0
bracket_tol = 1.0
fit_lo = 0.00390625
fit_hi = 0.25
"""


@pytest.mark.parametrize("case, setting", [
    *(("tiny-ball", s) for s in BAD_SCHEDULES),
    ("tiny-ball", "n = 2"), ("tiny-ball", "n = 1"), ("tiny-ball", "n = 0"),
    ("tiny-cone", "n = 2"), ("tiny-cone", "n = 1"), ("tiny-cone", "n = 0"),
    ("tiny-cone", "q = nan"), ("tiny-cone", "q = inf"),
    ("tiny-cone", "curve = abc"), ("tiny-barrier", "n = 2"),
])
def test_invalid_solve_or_certify_value_exit_code(tmp_path, capsys, case,
                                                  setting):
    # in this process, through the console script's entry point: every
    # value is rejected before a solve, so an exception would end the test
    from blowlab.cli import main

    cfg = tmp_path / "cases.cfg"
    cfg.write_text(_with_setting(CONFIG + TINY_CONE, case, setting)
                   .format(out=tmp_path / "out"))
    stage = "certify" if case == "tiny-barrier" else "solve"
    assert main([stage, "--config", str(cfg), "--case", case]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


@pytest.mark.parametrize("setting", [
    "fit_lo = 0", "fit_lo = -0.01", "fit_lo = nan", "fit_lo = 0.5",
    "fit_hi = inf",
])
def test_bad_fit_window_exit_code_before_the_solve(tmp_path, capsys, setting):
    from blowlab.cli import main

    cfg = tmp_path / "cases.cfg"
    cfg.write_text(_with_setting(CONFIG, "tiny-ball", setting)
                   .format(out=tmp_path / "out"))
    assert main(["solve", "--config", str(cfg), "--case", "tiny-ball"]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: case tiny-ball: rate-fit window")
    # rejected before the 2-D solve, which writes field.csv
    assert not (tmp_path / "out" / "tiny-ball" / "field.csv").exists()


@pytest.mark.parametrize("case, setting", [
    *((case, f"{key} = {v}") for case, key in (
        ("tiny-profile", "interior_tol"), ("tiny-ball", "newton_tol"),
        ("tiny-ball", "interior_tol")) for v in ("inf", "nan", "-1", "0")),
])
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, case,
                                               setting):
    # an infinite interior_tol stopped a profile at its first level, and
    # nan or -1 turned the interior test off; an infinite newton_tol ended
    # each level after one Newton step
    from blowlab.cli import main

    cfg = tmp_path / "cases.cfg"
    cfg.write_text(_with_setting(CONFIG, case, setting)
                   .format(out=tmp_path / "out"))
    stage = "profile" if case == "tiny-profile" else "solve"
    assert main([stage, "--config", str(cfg), "--case", case]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    key = setting.split(" = ")[0]
    assert err == [f"config error: case {case}: {key} must be finite and > 0, "
                   f"got {float(setting.split(' = ')[1])}"]


# a meridian case to append to CONFIG
TINY_MERIDIAN = """
[case:tiny-meridian]
stages = solve
reduction = meridian
aperture = 1.0
r_min = 0.0078125
r_max = 1.0
n = 3
operator = euclidean
nt_per_octave = 4
n_eta = 32
eta_grading = 2.0
schedule = 1e2
newton_tol = 1e-10
interior_tol = 1e-8
bracket_low = 0.5
bracket_high = 2.0
bracket_tol = 1.0
fit_lo = 0.0078125
fit_hi = 0.25
"""


@pytest.mark.parametrize("case, setting", [
    ("tiny-profile", "grading = 1e308"), ("tiny-profile", "theta_hi = 1e-300"),
    ("tiny-profile", "schedule = 1e308"), ("tiny-ball", "r_max = 1e-300"),
    ("tiny-ball", "eta_grading = 1e308"), ("tiny-ball", "schedule = 1e308"),
    ("tiny-meridian", "aperture = 1e-300"),
    ("tiny-meridian", "eta_grading = 1e308")])
def test_collapsed_mesh_is_a_solver_failure(tmp_path, case, setting):
    # the config accepts these values.  A collapsed mesh is caught before
    # any stencil weight is formed, so in a CLI process its case ends as one
    # DomainError line, with no NumPy warning before it.  A schedule of
    # 1e308 overflows the truncated problem instead: the non-finite residual
    # norm of its first level ends it as a Newton failure of its own case,
    # again with no NumPy warning before it
    cfg = tmp_path / "cases.cfg"
    cfg.write_text(_with_setting(CONFIG + TINY_MERIDIAN, case, setting)
                   .format(out=tmp_path / "out"))
    stage = "profile" if case == "tiny-profile" else "solve"
    error = "NewtonError" if setting.startswith("schedule") else "DomainError"
    res = run_cli(stage, "--config", str(cfg), "--case", case)
    assert res.returncode == 5
    err = res.stderr
    assert "Traceback" not in err
    err = err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"solver failure: {error}: case {case}: ")


def test_library_config_error_names_its_case(tmp_path):
    # a check inside the library names the case as a cast error does,
    # and a cast error is not named twice
    cfg = tmp_path / "cases.cfg"
    for setting, reason in (("schedule = nan", "truncation schedule must"),
                            ("schedule = abc", "bad value for schedule")):
        cfg.write_text(_with_setting(CONFIG, "tiny-ball", setting)
                       .format(out=tmp_path / "out"))
        res = run_cli("solve", "--config", str(cfg))
        assert res.returncode == 4
        err = res.stderr.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: case tiny-ball: {reason}")
        assert err[0].count("tiny-ball") == 1


# an n = 4 cap to append to CONFIG: the eigen stage on a profile of its own
TINY_EIGEN = """
[case:tiny-eigen]
stages = profile eigen
geometry = polar-sphere
theta_lo = 0.0
theta_hi = 1.0
bc_lo = regular-pole
bc_hi = blowup
n = 4
nodes = 200
grading = 2.0
schedule = 1e2
interior_tol = 1e-8
"""

FUZZ_CONFIG = CONFIG + TINY_MERIDIAN + TINY_EIGEN
FUZZ_VALUES = ("", "nan", "inf", "-1", "0", "1e308", "abc", "1e-300")


def _case_options(config, case):
    """{key: value} of `[case:CASE]` in `config`."""
    body = config.split(f"[case:{case}]\n")[1].split("\n[")[0]
    return dict(line.split(" = ", 1) for line in body.splitlines()
                if " = " in line)


@pytest.mark.parametrize("case", ["tiny-profile", "tiny-eigen", "tiny-ball",
                                  "tiny-meridian", "tiny-barrier"])
def test_config_boundary_fuzz(tmp_path, capsys, case):
    # every key of the case times every value, through the console script's
    # entry point, in this process, running the stages the case lists in
    # order: a value is used, rejected (4), or ends in a failed check (1), a
    # missing upstream artifact (3) or a solver failure (5) on one stderr
    # line, with no exception and no warning
    from blowlab.cli import main

    options = _case_options(FUZZ_CONFIG, case)
    bad = []
    for key in options:
        for k, value in enumerate(FUZZ_VALUES):
            cell = tmp_path / f"{key}-{k}"
            cell.mkdir()
            cfg = cell / "cases.cfg"
            cfg.write_text(_with_setting(FUZZ_CONFIG, case, f"{key} = {value}")
                           .format(out=cell / "out"))
            for stage in options["stages"].split():
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        code = main([stage, "--config", str(cfg),
                                     "--case", case])
                    except Exception as exc:    # reported with its cell
                        code = f"{type(exc).__name__}: {exc}"
                err = capsys.readouterr().err.strip().splitlines()
                if (code not in (0, 1, 3, 4, 5) or caught
                        or (code != 0 and len(err) != 1)):
                    bad.append((key, value, stage, code, err,
                                [str(w.message) for w in caught]))
    assert bad == []


# per fuzzed case, a key of the schema that none of its stages reads
UNREAD_KEY = {"tiny-profile": "slack", "tiny-eigen": "fit_lo",
              "tiny-ball": "barrier", "tiny-meridian": "nodes",
              "tiny-barrier": "slack"}


def _with_line(config, case, line):
    """`config` with `line` first in `[case:CASE]`."""
    header = f"[case:{case}]\n"
    return config.replace(header, header + line + "\n")


@pytest.mark.parametrize("case", sorted(UNREAD_KEY))
def test_config_key_fuzz(tmp_path, capsys, case):
    # every key of the case with its last letter dropped (`n` would lose
    # its name), one unknown key, and one key that no stage of the case
    # reads, through the console script's entry point, in this process:
    # every stage the case lists exits 4 on one stderr line naming the
    # case and the key.  No cell did so before: a key with a default
    # (bc_lo, r_min, nt_per_octave, ...) took it, a required one was
    # missing under its right name, and an unknown or unread key went
    # unread
    from blowlab.cli import main

    options = _case_options(FUZZ_CONFIG, case)
    cells = [(key[:-1], _with_setting(FUZZ_CONFIG, case,
                                      f"{key[:-1]} = {value}", key=key))
             for key, value in options.items() if len(key) > 1]
    for name, value in (("tolerance", "1e-8"), (UNREAD_KEY[case], "1.0")):
        cells.append((name, _with_line(FUZZ_CONFIG, case, f"{name} = {value}")))
    bad = []
    for k, (name, config) in enumerate(cells):
        cfg = tmp_path / f"{k}.cfg"
        cfg.write_text(config.format(out=tmp_path / f"out-{k}"))
        for stage in options["stages"].split():
            code = main([stage, "--config", str(cfg), "--case", case])
            err = capsys.readouterr().err.strip().splitlines()
            if not (code == 4 and len(err) == 1
                    and err[0].startswith(f"config error: case {case}: ")
                    and f"'{name}'" in err[0]):
                bad.append((name, stage, code, err))
    assert bad == []


@pytest.mark.parametrize("case, line", [
    ("tiny-meridian", "q = 0.3"), ("tiny-ball", "aperture = 1.0"),
    ("tiny-ball", "r_min = 0.5"), ("tiny-ball", "curve = 0.1"),
    ("tiny-ball", "nt_per_octave = 4")])
def test_a_key_another_keys_value_leaves_unread_is_rejected(tmp_path, capsys,
                                                           case, line):
    # q with a Euclidean operator, and the wedge's keys in a ball case,
    # were accepted and ignored: each cell ended as the case without it
    # (the ball's with exit 0, the meridian's with its empty-annulus
    # exit 5).  Now every stage of the case exits 4 on one line naming
    # the key, before any solve
    from blowlab.cli import main

    cfg = tmp_path / "cases.cfg"
    cfg.write_text(_with_line(FUZZ_CONFIG, case, line)
                   .format(out=tmp_path / "out"))
    key = line.split(" = ")[0]
    for stage in _case_options(FUZZ_CONFIG, case)["stages"].split():
        assert main([stage, "--config", str(cfg), "--case", case]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"config error: case {case}: keys ['{key}'] are not read when ")
    assert not (tmp_path / "out" / case).exists()


def _without_key(config, case, key):
    """`config` without the line of `key` in `[case:CASE]`."""
    lines, section = [], None
    for line in config.splitlines():
        if line.startswith("["):
            section = line
        if not (section == f"[case:{case}]" and line.startswith(key + " = ")):
            lines.append(line)
    return "\n".join(lines)


@pytest.mark.parametrize("reduction", ["meridian", "cross-section"])
def test_a_wedge_without_aperture_misses_the_key(tmp_path, capsys, reduction):
    # the key defaulted to pi for every reduction: a meridian failed on
    # "meridian aperture must lie in (0, pi)" (exit 4), and a
    # cross-section solved a wedge of opening pi (its fit then failed,
    # exit 5).  Only a ball may leave it out
    from blowlab.cli import main

    config = _with_setting(_without_key(FUZZ_CONFIG, "tiny-meridian",
                                        "aperture"),
                           "tiny-meridian", f"reduction = {reduction}")
    cfg = tmp_path / "cases.cfg"
    cfg.write_text(config.format(out=tmp_path / "out"))
    assert main(["solve", "--config", str(cfg), "--case", "tiny-meridian"]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: case tiny-meridian: missing key 'aperture'"]
    assert not (tmp_path / "out" / "tiny-meridian" / "field.csv").exists()


CASES_CFG = os.path.join(ROOT, "configs", "cases.cfg")


@pytest.mark.parametrize("key, setting", [
    ("nt_per_octave", "nt_per_octav = 24"), ("r_min", "rmin = 0.001953125"),
    ("aperture", "apertur = 1.0471975511965976"), (None, "log_model = ture")])
def test_a_mistyped_key_of_cases_cfg_is_rejected_before_the_solve(
        tmp_path, capsys, key, setting):
    # cone-n6-q03 solved at nt_per_octave = 32, the default, and read
    # `ture` as False (exit 0); at r_min = 2^-8, the default, it failed on
    # an empty annulus (exit 5), and without its aperture on "meridian
    # aperture must lie in (0, pi)" (exit 4): messages without the key
    from blowlab.cli import main

    with open(CASES_CFG) as fh:
        config = fh.read()
    case = "cone-n6-q03"
    config = (_with_line(config, case, setting) if key is None
              else _with_setting(config, case, setting, key=key))
    cfg = tmp_path / "cases.cfg"
    cfg.write_text(config.replace("output = out", f"output = {tmp_path}"))
    assert main(["solve", "--config", str(cfg), "--case", case]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    name = setting.split(" = ")[0]
    assert len(err) == 1 and err[0].startswith(f"config error: case {case}: ")
    assert name in err[0]
    assert not (tmp_path / case / "field.csv").exists()


@pytest.mark.parametrize("text, value", [
    *((t, True) for t in ("1", "yes", "true", "on", "True", " YES ")),
    *((t, False) for t in ("0", "no", "false", "off", "Off"))])
def test_log_model_reads_configparsers_booleans(text, value):
    from blowlab.cli import Case

    assert Case("x", {"stages": "solve", "log_model": text}).get(
        "log_model") is value


@pytest.mark.parametrize("seed", [None, 7, 631, 640])
def test_the_benchmarked_configs_load(tmp_path, seed):
    # configs/cases.cfg (seed None) and the pipeline-n3 workload's configs:
    # every key parses, and every builder of every stage a case lists
    # builds; a config error there would fail the workload
    import importlib.util

    from blowlab.cli import load_config

    path = CASES_CFG
    if seed is not None:
        spec = importlib.util.spec_from_file_location(
            "workloads", os.path.join(ROOT, "benchmark", "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        path = tmp_path / "cases.cfg"
        path.write_text(workloads.pipeline_config(seed, str(tmp_path / "out")))
    _, cases = load_config(str(path))
    builders = {"profile": ("spherical_domain", "grid_spec"),
                "solve": ("domain2d", "solve_config", "operator")}
    for case in cases.values():
        for key in case.opt:
            case.get(key)
        for stage in case.stages:
            for builder in builders.get(stage, ()):
                getattr(case, builder)()


# the meta values the artifact fuzz sets (JSON text), and REMOVED: no key
REMOVED = None
ARTIFACT_VALUES = ('"abc"', "null", "true", "[]", "{}", "-1", "0", "1e308",
                   "NaN", REMOVED)


def _with_meta(text, key, value):
    """CSV text whose `# {json}` line sets `key` to the JSON text `value`,
    or lacks `key` when `value` is REMOVED."""
    meta_line, rest = text.split("\n", 1)
    items = [f"{json.dumps(k)}: {json.dumps(v)}"
             for k, v in json.loads(meta_line[2:]).items() if k != key]
    if value is not REMOVED:
        items.append(f"{json.dumps(key)}: {value}")
    return "# {" + ", ".join(items) + "}\n" + rest


@pytest.mark.parametrize("key, value", [
    ("n", "true"), ("n", "0"), ("n", "1e308"), ("n", "3.0"), ("n", "2")])
def test_profile_csv_needs_an_integer_dimension_of_three_or_more(
        tmp_path, capsys, key, value):
    # n reads as a JSON integer of at least 3: true (the integer 1) and 0
    # gave an eigenpair or a traceback, 1e308 an overflow
    from blowlab.cli import main

    cfg, out = tmp_path / "cases.cfg", tmp_path / "out"
    cfg.write_text(FUZZ_CONFIG.format(out=out))
    assert main(["profile", "--config", str(cfg), "--case", "tiny-eigen"]) == 0
    path = out / "tiny-eigen" / "profile.csv"
    path.write_text(_with_meta(path.read_text(), key, value))
    capsys.readouterr()
    assert main(["eigen", "--config", str(cfg), "--case", "tiny-eigen"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("artifact error: cannot read "
                                               "artifact ")
    assert "tiny-eigen/profile.csv" in err[0]
    assert not (out / "tiny-eigen" / "eigen.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("alpha_hat", "1e308"), ("alpha_hat", "NaN"), ("c_hat", "0"),
    ("c_hat", "-1")])
def test_report_draws_no_fitted_line_it_cannot_place(tmp_path, capsys, key,
                                                     value):
    # c x^alpha must be finite and positive over the plot: the report
    # wrote a broken ratio.svg under NumPy warnings
    from blowlab.cli import main

    cfg, out = tmp_path / "cases.cfg", tmp_path / "out"
    cfg.write_text(FUZZ_CONFIG.format(out=out))
    assert main(["solve", "--config", str(cfg), "--case", "tiny-ball"]) == 0
    path = out / "tiny-ball" / "ratio.csv"
    path.write_text(_with_meta(path.read_text(), key, value))
    capsys.readouterr()
    assert main(["report", "--config", str(cfg), "--case", "tiny-ball"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("report failed: cannot plot artifact ")
    assert "tiny-ball/ratio.csv" in err[0] and "fitted line" in err[0]
    assert not (out / "tiny-ball" / "ratio.svg").exists()


def test_profile_below_its_schedule_fails_and_eigen_finds_no_profile(
        tmp_path, capsys):
    # the fuzz cell `schedule = 1e-300` of tiny-eigen: the profile's search
    # finds no stop, so no profile.csv is written and the eigen stage has
    # nothing to read
    from blowlab.cli import main

    cfg = tmp_path / "cases.cfg"
    cfg.write_text(_with_setting(FUZZ_CONFIG, "tiny-eigen", "schedule = 1e-300")
                   .format(out=tmp_path / "out"))
    ends = []
    for stage in ("profile", "eigen"):
        code = main([stage, "--config", str(cfg), "--case", "tiny-eigen"])
        ends.append((code, capsys.readouterr().err.strip().splitlines()))
    (profile_code, profile_err), (eigen_code, eigen_err) = ends
    assert profile_code == 5 and len(profile_err) == 1
    assert profile_err[0].startswith("solver failure: NewtonError: case "
                                     "tiny-eigen: profile truncation search "
                                     "found no stop")
    assert eigen_code == 3 and len(eigen_err) == 1
    assert eigen_err[0].startswith("artifact error:")
    assert "tiny-eigen/profile.csv" in eigen_err[0]


def test_profile_meta_holds_the_field_only(tmp_path):
    # the profile stage writes n, domain and truncation, and no solver
    # record; a profile.csv that still holds `newton_residual` reads back
    from blowlab.cli import main
    from blowlab.profiles import profile_from_csv

    cfg, out = tmp_path / "cases.cfg", tmp_path / "out"
    cfg.write_text(CONFIG.format(out=out))
    assert main(["profile", "--config", str(cfg), "--case",
                 "tiny-profile"]) == 0
    path = out / "tiny-profile" / "profile.csv"
    meta, _, _ = read_csv(path)
    assert sorted(meta) == ["domain", "n", "truncation"]
    prof = profile_from_csv(path)
    meta_line, rest = path.read_text().split("\n", 1)
    older = tmp_path / "older.csv"
    older.write_text(meta_line[:-1] + ', "newton_residual": 5.7e-16}\n' + rest)
    back = profile_from_csv(older)
    assert back.truncation == prof.truncation and back.domain == prof.domain
    assert np.array_equal(back.g, prof.g)


CURVED_MERIDIAN = """
[suite]
output = {out}

[case:curved]
stages = solve
reduction = meridian
aperture = 1.0
curve = {curve}
r_min = 0.0078125
r_max = 1.0
n = 3
operator = euclidean
nt_per_octave = 4
n_eta = 32
eta_grading = 2.0
schedule = 1e2
newton_tol = 1e-10
interior_tol = 1e-8
bracket_low = 0.5
bracket_high = 2.0
bracket_tol = 1.0
fit_lo = 0.0078125
fit_hi = 0.25
"""


@pytest.mark.parametrize("curve", ["-2.0", "5.0"])
def test_meridian_angle_outside_zero_pi_exit_code(tmp_path, curve):
    # theta_b(1) = 1 + curve is -1 or 6: no solve, no artifact
    cfg = tmp_path / "cases.cfg"
    cfg.write_text(CURVED_MERIDIAN.format(out=tmp_path / "out", curve=curve))
    res = run_cli("solve", "--config", str(cfg))
    assert res.returncode == 4
    assert "Traceback" not in res.stderr
    err = res.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "theta_b" in err[0]
    assert not (tmp_path / "out" / "curved" / "field.csv").exists()


UNKNOWN_CONE_BARRIER = """
[suite]
output = {out}

[case:cap-cone-foo]
stages = profile certify
geometry = polar-sphere
theta_lo = 0.0
theta_hi = 1.0471975511965976
bc_lo = regular-pole
bc_hi = blowup
n = 3
nodes = 400
grading = 2.0
schedule = 1e2
interior_tol = 1e-8
barrier = cone-foo
c_l = 0.5
"""


def test_unknown_cone_barrier_exit_code(tmp_path):
    # "cone-" names a cone barrier, so certify reads the profile first and
    # only then meets the unknown case "foo"
    cfg = tmp_path / "cases.cfg"
    cfg.write_text(UNKNOWN_CONE_BARRIER.format(out=tmp_path / "out"))
    assert run_cli("profile", "--config", str(cfg)).returncode == 0
    res = run_cli("certify", "--config", str(cfg))
    assert res.returncode == 4
    assert "Traceback" not in res.stderr
    err = res.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "cone-foo" in err[0]


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


RATIO_META = ('# {"alpha_hat": 1.0, "c_hat": 1.0, "model": "power", '
              '"r_squared": 1.0, "window_hi": 0.25, "window_lo": 0.001953125}\n')

# a broken upstream artifact: the stage that reads it, the case, the file
# and what is in it
MALFORMED = {
    "truncated-meta": ("eigen", "tiny-profile", "profile.csv", '# {"n": 3'),
    "meta-without-domain": (
        "eigen", "tiny-profile", "profile.csv",
        '# {"n": 3, "newton_residual": 0.0, "truncation": 100.0}\n'
        "theta,g,rho\n0,1,1\n0.5,1,1\n1,1,1\n"),
    "unknown-geometry": (
        "eigen", "tiny-profile", "profile.csv",
        '# {"domain": {"geometry": "foo", "theta_hi": 1.0, "theta_lo": 0.0}, '
        '"n": 3, "newton_residual": 0.0, "truncation": 100.0}\n'
        "theta,g,rho\n0,1,1\n0.5,1,1\n1,1,1\n"),
    "garbage-ratio-verify": ("verify", "tiny-ball", "ratio.csv", "garbage\n"),
    "garbage-ratio-report": ("report", "tiny-ball", "ratio.csv", "garbage\n"),
    # well-formed, but no point the log-log plot can place
    "nonpositive-ratio-report": (
        "report", "tiny-ball", "ratio.csv",
        RATIO_META + "annulus_mid,max_ratio\n0.01,0\n0.02,-1\n"),
    "nonfinite-ratio-report": (
        "report", "tiny-ball", "ratio.csv",
        RATIO_META + "annulus_mid,max_ratio\n0.01,nan\ninf,0.5\n0.03,inf\n"),
}


@pytest.mark.parametrize("broken", sorted(MALFORMED))
def test_malformed_artifact_exit_code(tmp_path, broken):
    stage, case, name, text = MALFORMED[broken]
    cfg, out = tmp_path / "cases.cfg", tmp_path / "out"
    cfg.write_text(CONFIG.format(out=out))
    (out / case).mkdir(parents=True)
    (out / case / name).write_text(text)
    res = run_cli(stage, "--config", str(cfg), "--case", case)
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and f"{case}/{name}" in lines[0]


def test_pipeline_and_idempotence(workdir):
    base, cfg, out = workdir
    # the six stages, one process each
    res = run_python(RUN_STAGES, str(cfg), str(out))
    assert res.returncode == 0
    assert res.stdout.splitlines() == [f"{stage} exit 0" for stage in STAGES]
    # and each stage's wall time on its own stderr line
    took = [line.split() for line in res.stderr.splitlines()
            if line.split()[1:2] == ["took"]]
    assert [words[0] for words in took] == list(STAGES)
    assert all(float(words[2]) > 0 and words[3] == "s" for words in took)

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


# a conformal-quadratic meridian: solve takes the Euclidean field on the
# same mesh as the discrete cone reference of the perturbed one
PAIR = """
[suite]
output = {out}

[case:tiny-pair]
stages = solve verify
reduction = meridian
aperture = 1.0471975511965976
n = 3
operator = conformal-quadratic
q = 0.3
r_min = 0.001953125
r_max = 1.0
nt_per_octave = 4
n_eta = 32
eta_grading = 2.0
schedule = 1e2
newton_tol = 1e-10
interior_tol = 1e-8
bracket_low = 0.5
bracket_high = 2.0
bracket_tol = 1.0
fit_lo = 0.0078125
fit_hi = 0.25
predicted = 2.0
slack = 0.3
"""


def test_perturbed_pair_solve_and_verify(tmp_path):
    cfg, out = tmp_path / "cases.cfg", tmp_path / "out"
    cfg.write_text(PAIR.format(out=out))
    for stage in ("solve", "verify"):
        assert run_cli(stage, "--config", str(cfg)).returncode == 0
    ratio = out / "tiny-pair" / "ratio.csv"
    meta, _, _ = read_csv(ratio, {"reference": str, "alpha_hat": float,
                                  "bracket_width": float})
    assert meta["reference"] == "discrete-cone"
    assert meta["alpha_hat"] == pytest.approx(2.042102997732212, rel=1e-9)
    assert meta["bracket_width"] == pytest.approx(0.004756189835238099,
                                                  rel=1e-9)
    _, _, rows = read_csv(out / "tiny-pair" / "verify.csv", columns=("passed",))
    assert rows[0][-1] == "true"
    before = ratio.read_bytes()
    assert run_cli("solve", "--config", str(cfg)).returncode == 0
    assert ratio.read_bytes() == before


def test_run_stages_reports_cpu_time(tmp_path):
    # each stage's CPU time and peak RSS are its own process's, not a
    # running total or the largest of any stage so far
    cfg = tmp_path / "cases.cfg"
    cfg.write_text(CONFIG.split("[case:tiny-ball]")[0]
                   .format(out=tmp_path / "out"))
    # a sitecustomize on the path records the thread variables that each
    # process starts with: run_stages.py itself, then its six stages
    hook, seen = tmp_path / "hook", tmp_path / "threads.txt"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(
        "import os\n"
        f"with open({str(seen)!r}, 'a') as fh:\n"
        "    fh.write(' '.join(os.environ.get(key, '-') for key in "
        "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS'))"
        " + '\\n')\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               MKL_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
                   [SRC, str(hook)] + ([os.environ["PYTHONPATH"]]
                                       if os.environ.get("PYTHONPATH") else [])))
    res = subprocess.run([sys.executable, RUN_STAGES, str(cfg),
                          str(tmp_path / "out")], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0
    # the stages run with one BLAS/OpenMP thread, whatever the caller has
    assert seen.read_text().splitlines() == ["2 2 2"] + ["1 1 1"] * len(STAGES)
    took = [line.split() for line in res.stderr.splitlines()
            if line.split()[1:2] == ["took"]]
    assert [words[0] for words in took] == list(STAGES)
    rss = {}
    for stage, _, wall, unit, cpu_word, cpu, cpu_unit, *peak in took:
        assert (unit, cpu_word, cpu_unit) == ("s", "cpu", "s")
        assert 0 < float(cpu) <= float(wall) * os.cpu_count() + 0.01
        assert peak[:2] == ["peak", "RSS"] and peak[3] == "MB"
        rss[stage] = float(peak[2])
        assert rss[stage] > 0
    # report loads no SciPy and eigen does: a running maximum would put
    # report at or above eigen
    assert rss["report"] < rss["eigen"]


def test_run_stages_exits_with_the_worst_status(tmp_path):
    # only solve has cases, and it fails; the later stages still run
    cfg = tmp_path / "cases.cfg"
    cfg.write_text(UNLOCALIZED.format(out=tmp_path / "out"))
    res = run_python(RUN_STAGES, str(cfg), str(tmp_path / "out"))
    assert res.returncode == 5
    assert res.stdout.splitlines() == [
        f"{stage} exit {5 if stage == 'solve' else 0}" for stage in STAGES]


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


IMPORT_GUARD = """
import sys
import numpy as np
import blowlab, blowlab.cli
from blowlab import (DomainSpec2D, GridSpec, SolveConfig, SphericalDomain1D,
                     cone_solution, euclidean_operator, first_eigenpair, solve,
                     solve_profile)
solve(DomainSpec2D("meridian", aperture=np.pi / 3), euclidean_operator(3), 3,
      SolveConfig(nt_per_octave=4, n_eta=32))
cap = SphericalDomain1D("polar-sphere", 0.0, np.pi / 3, bc_lo="regular-pole")
prof = solve_profile(cap, 3, grid=GridSpec(200, 2.0))
cone_solution(prof, 0.5, 0.3)
first_eigenpair(prof)
print(" ".join(m for m in ("scipy.interpolate", "scipy.special",
                           "scipy.optimize") if m in sys.modules))
"""


def test_solves_do_not_import_heavy_scipy_modules():
    # each of these costs every CLI process a few hundred ms of import
    proc = run_python("-c", IMPORT_GUARD)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


# a cone case whose verify row takes its prediction from the eigenpair (no
# `predicted` key), a ball case with a fixed one, and a cone barrier; the
# ratio.csv of both verify cases is written by hand
LIGHT_STAGES = """
[suite]
output = {out}

[case:tiny-cone]
stages = profile eigen certify verify
geometry = polar-sphere
theta_lo = 0.0
theta_hi = 1.0471975511965976
bc_lo = regular-pole
bc_hi = blowup
n = 3
nodes = 400
grading = 2.0
schedule = 1e2
interior_tol = 1e-8
barrier = cone-quadratic
c_l = 0.0
slack = 0.3

[case:tiny-ball]
stages = verify
n = 3
predicted = 1.0
slack = 0.15
"""

SCIPY_OF_STAGE = """
import sys
from blowlab import cli
status = cli.main(sys.argv[1:])
print(status, *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def scipy_of_stage(*args):
    """Exit status of one stage run in a fresh process, and the SciPy
    modules that process loaded."""
    proc = run_python("-c", SCIPY_OF_STAGE, *args)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    status, *modules = proc.stdout.split()
    return int(status), modules


# the rate fit of both verify cases: it meets the predicted exponent 2
# of the n = 3 cap and the fixed 1 of the ball
LIGHT_FIT = RateFit(alpha_hat=2.1, c_hat=1.0, r_squared=1.0,
                    window=(2.0**-7, 0.25),
                    table=[(2.0**-k, 2.0**(-2 * k)) for k in range(7, 2, -1)])


@pytest.fixture
def light_stages(tmp_path):
    cfg, out = tmp_path / "cases.cfg", tmp_path / "out"
    cfg.write_text(LIGHT_STAGES.format(out=out))
    for case in ("tiny-cone", "tiny-ball"):
        write_ratio_csv(str(out / case / "ratio.csv"), LIGHT_FIT)
    assert run_cli("profile", "--config", str(cfg)).returncode == 0
    return cfg, out


def test_import_blowlab_loads_no_scipy():
    proc = run_python("-c", "import sys, blowlab; print(*(m for m in "
                            "sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_public_names_resolve_lazily():
    # every name the package exported when it imported its modules eagerly,
    # and level_fields
    names = (
        "BarrierCertificate RateFit RatioField StructureClass "
        "certify_supersolution compare_to_cone fit_rate verify_theorem "
        "DiffeoT GraphSurface HyperplaneFan TangentConeSpec apply_T build_T "
        "jacobian_T paraboloid_surface plane_surface signed_distance "
        "sphere_surface tangent_cone MetricFamily OperatorSpec "
        "conformal_operator conformal_quadratic_metric "
        "euclidean_operator scalar_curvature structure_constant "
        "BlowupProfile GridSpec SphericalDomain1D check_rho_bounds "
        "cone_solution graded_nodes profile_from_csv profile_to_csv "
        "solve_profile DomainSpec2D SolutionField SolveConfig exact_ball "
        "exact_halfspace growth_check level_fields monotone_check solve "
        "sum_supersolution_defect EigenResult RateForm first_eigenpair "
        "half_sphere_lambda1 rayleigh regime_exponent").split()
    code = f"""
import sys
import blowlab
names = {names!r}
# all of them are listed before any module of the package is loaded
assert sorted(blowlab.__all__) == sorted(names), blowlab.__all__
assert set(names) <= set(dir(blowlab))
assert [m for m in sys.modules if m.startswith("blowlab.")] == []
for name in names:
    exec(f"from blowlab import {{name}} as value")
    assert value.__module__.startswith("blowlab."), name
print("ok")
"""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


def test_report_and_verify_load_no_scipy(light_stages):
    cfg, out = light_stages
    assert run_cli("eigen", "--config", str(cfg)).returncode == 0
    for case in ("tiny-ball", "tiny-cone"):
        status, modules = scipy_of_stage("verify", "--config", str(cfg),
                                         "--case", case)
        assert status == 0 and modules == [], case
    status, modules = scipy_of_stage("report", "--config", str(cfg))
    assert status == 0 and modules == []


def test_solver_stages_load_no_scipy_sparse(light_stages):
    # each of them needs scipy.linalg for one banded or tridiagonal solve
    cfg, _ = light_stages
    for stage in ("profile", "eigen", "certify"):
        status, modules = scipy_of_stage(stage, "--config", str(cfg))
        assert status == 0, stage
        assert "scipy.linalg" in modules, stage
        assert not any(m.startswith("scipy.sparse") for m in modules), stage


def test_verify_reads_the_regime_from_eigen_csv(light_stages):
    from blowlab import first_eigenpair, profile_from_csv, verify_theorem
    from blowlab.reports import fmt, read_csv

    cfg, out = light_stages
    cdir = out / "tiny-cone"
    # without eigen.csv there is nothing to predict from: the profile is
    # not solved for its eigenpair again
    res = run_cli("verify", "--config", str(cfg), "--case", "tiny-cone")
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("artifact error:")
    assert "tiny-cone/eigen.csv" in lines[0]
    assert not (cdir / "verify.csv").exists()

    # with it, the row is the one the eigenpair of profile.csv predicts
    assert run_cli("eigen", "--config", str(cfg)).returncode == 0
    assert run_cli("verify", "--config", str(cfg),
                   "--case", "tiny-cone").returncode == 0
    eigen = first_eigenpair(profile_from_csv(str(cdir / "profile.csv")))
    row = verify_theorem("tiny-cone", 3, LIGHT_FIT.alpha_hat, eigen=eigen,
                         slack=0.3)
    _, header, rows = read_csv(str(cdir / "verify.csv"))
    assert header == ["case", "n", "predicted_form", "predicted", "measured",
                      "passed"]
    assert rows == [[fmt(v) for v in (row.case, row.n, row.predicted_form,
                                      row.predicted, row.measured,
                                      row.passed)]]


@pytest.mark.parametrize("mu1", ["-1", "0", "NaN", "Infinity", "0.5"])
def test_verify_needs_a_finite_mu1_above_its_floor(light_stages, capsys, mu1):
    # lambda1 > 0, so mu1 > (n - 2)/2 = 0.5 at n = 3.  Verify read the
    # regime beside mu1, so each of these gave a PASS row predicting 2
    from blowlab.cli import main

    cfg, out = light_stages
    assert main(["eigen", "--config", str(cfg), "--case", "tiny-cone"]) == 0
    path = out / "tiny-cone" / "eigen.csv"
    path.write_text(_with_meta(path.read_text(), "mu1", mu1))
    capsys.readouterr()
    assert main(["verify", "--config", str(cfg), "--case", "tiny-cone"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("artifact error: cannot read "
                                               "artifact ")
    assert "tiny-cone/eigen.csv: meta mu1 = " in err[0]
    assert not (out / "tiny-cone" / "verify.csv").exists()


def test_verify_reads_mu1_alone(light_stages, capsys):
    # the regime follows from mu1: eigen.csv without it gives the same row
    from blowlab.cli import main

    cfg, out = light_stages
    cdir = out / "tiny-cone"
    for stage in ("eigen", "verify"):
        assert main([stage, "--config", str(cfg), "--case", "tiny-cone"]) == 0
    row = (cdir / "verify.csv").read_bytes()
    (cdir / "verify.csv").unlink()
    path = cdir / "eigen.csv"
    path.write_text(_with_meta(path.read_text(), "regime", REMOVED))
    assert main(["verify", "--config", str(cfg), "--case", "tiny-cone"]) == 0
    assert (cdir / "verify.csv").read_bytes() == row


# per fuzzed case: its config, the stages that write what the readers need,
# the artifact fuzzed and the stages that read it back
ARTIFACT_READERS = {
    "tiny-profile": (FUZZ_CONFIG, ("profile",), "profile.csv", ("eigen",)),
    "tiny-eigen": (FUZZ_CONFIG, ("profile",), "profile.csv", ("eigen",)),
    "tiny-ball": (FUZZ_CONFIG, ("solve",), "ratio.csv", ("verify", "report")),
    "tiny-cone": (LIGHT_STAGES, ("profile", "eigen"), "eigen.csv",
                  ("verify",)),
}


@pytest.mark.parametrize("case", sorted(ARTIFACT_READERS))
def test_artifact_boundary_fuzz(tmp_path, capsys, case):
    # every meta key of an artifact a later stage reads back, set to each
    # value or removed, then the later stages through the console script's
    # entry point, in this process: an artifact value is used, or ends in a
    # failed check (1), a malformed artifact (3) or a solver failure (5) on
    # one stderr line, with no exception and no warning
    from blowlab.cli import main

    config, writers, name, readers = ARTIFACT_READERS[case]
    cfg, written = tmp_path / "cases.cfg", tmp_path / "out"
    cfg.write_text(config.format(out=written))
    if case == "tiny-cone":     # a cone verify case without `predicted`
        write_ratio_csv(str(written / case / "ratio.csv"), LIGHT_FIT)
    for stage in writers:
        assert main([stage, "--config", str(cfg), "--case", case]) == 0
    capsys.readouterr()
    text = (written / case / name).read_text()
    bad = []
    for key in json.loads(text.split("\n", 1)[0][2:]):
        for k, value in enumerate(ARTIFACT_VALUES):
            out = tmp_path / f"{key}-{k}"
            shutil.copytree(written, out)
            (out / case / name).write_text(_with_meta(text, key, value))
            for stage in readers:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        code = main([stage, "--config", str(cfg), "--case",
                                     case, "--out", str(out)])
                    except Exception as exc:    # reported with its cell
                        code = f"{type(exc).__name__}: {exc}"
                err = capsys.readouterr().err.strip().splitlines()
                if (code not in (0, 1, 3, 5) or caught
                        or (code != 0 and len(err) != 1)):
                    bad.append((key, value, stage, code, err,
                                [str(w.message) for w in caught]))
    assert bad == []
