import configparser
import importlib.util
import json
import os
import subprocess
import sys

from blowlab.reports import write_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "check_reference.py")
REFERENCE = os.path.join(ROOT, "configs", "cases.reference.json")

spec = importlib.util.spec_from_file_location("check_reference", SCRIPT)
check_reference = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_reference)

TOLERANCE = {"default": {"rtol": 1e-9, "reason": "test"},
             "overrides": [{"match": "*/truncation", "rtol": 0.0,
                            "reason": "test"}]}

# one artifact of each kind, as the stages write them
ARTIFACTS = {
    "cap/profile.csv": ({"n": 3, "truncation": 1600.0}, ["theta", "g"],
                        [(0.0, 1.2629687831294909)]),
    "cap/eigen.csv": ({"n": 3, "lambda1": 21.507800939260047,
                       "mu1": 4.664525800042277, "nu_hat": 2.5181722371061257,
                       "regime": "alpha-2"}, ["theta", "phi1"], [(0.0, 1.48)]),
    "cone/field.csv": ({"n": 6, "truncation": 6871947673600.0,
                        "bracket_width": 3.3860038321327236e-05},
                       ["r", "theta", "u", "d"], [(0.002, 0.0, 365394.6, 0.0017)]),
    "cone/ratio.csv": ({"alpha_hat": 2.002353850268813,
                        "bracket_width": 3.3860038321327236e-05,
                        "c_hat": 0.5944996693297343, "model": "power"},
                       ["annulus_mid", "max_ratio"], [(0.011, 7.3e-05)]),
    "cone/verify.csv": (None, ["case", "n", "predicted_form", "predicted",
                               "measured", "passed"],
                        [("cone", 6, "C|x|^2", 2.0, 2.002353850268813, True)]),
    "barrier/certificates.csv": (None, ["barrier", "region", "margin", "nodes",
                                        "passed", "constants"],
                                 [("graded-sum", "B_0.5 (ball R=1)",
                                   1.5461147496512, 512, True,
                                   "A=0.25;B=0.25;C_L=1;beta=0;r0=0.5")]),
}


def write_tree(root, edits=None):
    """The synthetic tree, with `edits` {file: (meta, rows)} replacing parts."""
    for rel, (meta, header, rows) in ARTIFACTS.items():
        meta, rows = (edits or {}).get(rel, (meta, rows))
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        write_csv(str(path), header, rows, meta=meta)
    (root / "report.md").write_text("# Verification summary\n")
    return root


def check(tmp_path, edits=None):
    """(exit status, stdout lines) of the checker on an edited tree against
    the reference of the unedited one."""
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({
        "tolerance": TOLERANCE,
        "values": check_reference.reference_values(
            str(write_tree(tmp_path / "reference")))}))
    out = write_tree(tmp_path / "out", edits)
    res = subprocess.run([sys.executable, SCRIPT, str(out), str(ref)],
                         capture_output=True, text=True)
    return res.returncode, res.stdout.strip().splitlines()


def with_meta(rel, **changes):
    meta, _, rows = ARTIFACTS[rel]
    return {rel: (dict(meta, **changes), rows)}


def test_unchanged_tree_passes(tmp_path):
    status, lines = check(tmp_path)
    count = len(check_reference.reference_values(
        str(tmp_path / "reference")))
    assert status == 0 and lines == [f"0 of {count} values moved"]


def test_pinned_values_of_each_artifact(tmp_path):
    values = check_reference.reference_values(str(write_tree(tmp_path)))
    assert values["cap/profile/truncation"] == 1600.0
    assert values["cap/eigen/regime"] == "alpha-2"
    assert values["cone/ratio/c_hat"] == 0.5944996693297343
    assert values["cone/field/truncation"] == 6871947673600.0
    assert values["cone/verify/0/passed"] == "true"
    assert values["barrier/certificates/0/constants/r0"] == 0.5
    assert values["barrier/certificates/0/nodes"] == 512


def test_float_nudged_by_1e_8_is_named(tmp_path):
    alpha = ARTIFACTS["cone/ratio.csv"][0]["alpha_hat"] * (1.0 + 1e-8)
    status, lines = check(tmp_path, with_meta("cone/ratio.csv",
                                              alpha_hat=alpha))
    assert status == 1
    assert len(lines) == 2 and lines[0].startswith("cone/ratio/alpha_hat: ")
    assert "> 1e-09" in lines[0] and lines[-1].startswith("1 of ")


def test_float_within_tolerance_passes_but_a_level_is_exact(tmp_path):
    alpha = ARTIFACTS["cone/ratio.csv"][0]["alpha_hat"] * (1.0 + 1e-12)
    assert check(tmp_path, with_meta("cone/ratio.csv", alpha_hat=alpha))[0] == 0
    status, lines = check(tmp_path, with_meta("cone/field.csv",
                                              truncation=6871947673601.0))
    assert status == 1 and lines[0].startswith("cone/field/truncation: ")


def test_changed_certificate_constant_and_verdict_are_named(tmp_path):
    rel = "barrier/certificates.csv"
    row = ARTIFACTS[rel][2][0]
    edited = row[:4] + (False, row[5].replace("B=0.25", "B=0.3"))
    status, lines = check(tmp_path, {rel: (None, [edited])})
    assert status == 1
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "barrier/certificates/0/constants/B", "barrier/certificates/0/passed"]
    assert lines[1] == "barrier/certificates/0/passed: 'true' -> 'false'"


def test_missing_artifact_and_bad_arguments_exit_2(tmp_path):
    check(tmp_path)             # writes both trees and the reference
    os.remove(tmp_path / "out" / "cone" / "ratio.csv")
    ref = str(tmp_path / "ref.json")
    for args in ([str(tmp_path / "out"), ref], [str(tmp_path / "out")],
                 [str(tmp_path / "nowhere"), ref],
                 [str(tmp_path / "reference"), str(tmp_path / "none.json")]):
        res = subprocess.run([sys.executable, SCRIPT, *args],
                             capture_output=True, text=True)
        assert res.returncode == 2, args
        assert len(res.stderr.strip().splitlines()) == 1


def test_committed_reference_pins_every_case_of_the_config():
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    parser = configparser.ConfigParser()
    parser.read(os.path.join(ROOT, "configs", "cases.cfg"))
    labels = {s.split(":", 1)[1] for s in parser.sections()
              if s.startswith("case:")}
    assert {name.split("/")[0] for name in ref["values"]} == labels
    rules = [ref["tolerance"]["default"], *ref["tolerance"]["overrides"]]
    assert all(rule["reason"] and rule["rtol"] >= 0 for rule in rules)
