import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                      "diff_artifacts.py")


def run_diff(a, b):
    res = subprocess.run([sys.executable, SCRIPT, str(a), str(b)],
                         capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    verdicts = dict(line.split(None, 1) for line in lines[:-1])
    return res.returncode, verdicts, lines[-1]


def write_tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_reports_same_changed_and_missing_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_tree(a, {"case/field.csv": "r,u\n0.5,1.234567890123\n",
                   "case/eigen.csv": "lambda1\n21.507801\n",
                   "case/only_a.csv": "x\n1\n"})
    write_tree(b, {"case/field.csv": "r,u\n0.5,1.234567890124\n",
                   "case/eigen.csv": "lambda1\n21.507801\n",
                   "only_b.md": "# report\n"})
    status, verdicts, summary = run_diff(a, b)
    assert status == 1
    assert verdicts["case/eigen.csv"] == "same"
    assert verdicts["case/only_a.csv"] == "missing in B"
    assert verdicts["only_b.md"] == "missing in A"
    worst = (1.234567890124 - 1.234567890123) / 1.234567890124
    assert verdicts["case/field.csv"] == f"differs, max relative change {worst:.3e}"
    assert summary == "1 of 4 files same"


def test_identical_trees_exit_zero(tmp_path):
    files = {"x/a.csv": "1,2\n", "b.md": "nan inf -inf\n"}
    write_tree(tmp_path / "a", files)
    write_tree(tmp_path / "b", files)
    status, verdicts, summary = run_diff(tmp_path / "a", tmp_path / "b")
    assert status == 0
    assert set(verdicts.values()) == {"same"}
    assert summary == "2 of 2 files same"


def test_unpaired_numbers_and_binary_files_differ(tmp_path):
    write_tree(tmp_path / "a", {"rows.csv": "1\n2\n"})
    write_tree(tmp_path / "b", {"rows.csv": "1\n2\n3\n"})
    (tmp_path / "a" / "blob.bin").write_bytes(b"\xff\x00")
    (tmp_path / "b" / "blob.bin").write_bytes(b"\xff\x01")
    status, verdicts, _ = run_diff(tmp_path / "a", tmp_path / "b")
    assert status == 1
    assert verdicts == {"blob.bin": "differs", "rows.csv": "differs"}


def test_meta_line_is_judged_apart_from_the_data(tmp_path):
    # a Newton residual in the meta line moves by 1e-4 while the profile
    # values move by 2e-13: the data's own change must still show
    meta = '# {{"n": 3, "newton_residual": {}, "truncation": 1600.0}}\n'
    rows = "theta,g\n0,{}\n1,2.5\n"
    write_tree(tmp_path / "a", {
        "moved.csv": meta.format(5.0e-16) + rows.format("1.0000000000000"),
        "meta.csv": meta.format(5.0e-16) + rows.format("1.0"),
        "data.csv": meta.format(5.0e-16) + rows.format("1.0"),
        "keys.csv": meta.format(5.0e-16) + rows.format("1.0")})
    write_tree(tmp_path / "b", {
        "moved.csv": meta.format(5.0005e-16) + rows.format("1.0000000000002"),
        "meta.csv": meta.format(5.0005e-16) + rows.format("1.0"),
        "data.csv": meta.format(5.0e-16) + rows.format("1.0000000000002"),
        "keys.csv": '# {"n": 3}\n' + rows.format("1.0")})
    status, verdicts, summary = run_diff(tmp_path / "a", tmp_path / "b")
    assert status == 1 and summary == "0 of 4 files same"
    data = f"{(1.0000000000002 - 1.0) / 1.0000000000002:.3e}"
    residual = f"{(5.0005e-16 - 5.0e-16) / 5.0005e-16:.3e}"
    assert verdicts["moved.csv"] == (f"differs, data max relative change "
                                     f"{data}, meta max relative change "
                                     f"{residual}")
    assert verdicts["meta.csv"] == (f"differs, data same, meta max relative "
                                    f"change {residual}")
    assert verdicts["data.csv"] == (f"differs, data max relative change "
                                    f"{data}, meta same")
    assert verdicts["keys.csv"] == "differs, data same, meta differs"
