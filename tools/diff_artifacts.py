"""Compare two artifact trees file by file.

    python tools/diff_artifacts.py A B

For every file under A or B (paths relative to each root) it prints one
line: `same` when the sha256 values agree, `missing in A` or `missing in
B` when the file exists on one side only, and otherwise the largest
relative change |a - b| / max(|a|, |b|) over the numbers of the file,
paired in reading order.  A file whose numbers do not pair up (different
counts, or bytes that are not UTF-8 text) is reported as `differs`.  The
exit status is 0 when every file is the same and 1 otherwise.

Uses the standard library only.
"""

import hashlib
import math
import os
import re
import sys

NUMBER = re.compile(
    r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
    r"|(?<![a-z])[-+]?(?:nan|inf(?:inity)?)(?![a-z])",
    re.IGNORECASE,
)


def tree_files(root):
    """Paths of the files under `root`, relative to it, with / separators."""
    found = set()
    for base, _, names in os.walk(root):
        for name in names:
            rel = os.path.relpath(os.path.join(base, name), root)
            found.add(rel.replace(os.sep, "/"))
    return found


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def numbers(path):
    """Numbers of a text file in reading order, or None for binary files."""
    with open(path, "rb") as fh:
        try:
            text = fh.read().decode("utf-8")
        except UnicodeDecodeError:
            return None
    return [float(tok) for tok in NUMBER.findall(text)]


def relative_change(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(path_a, path_b):
    """One-line verdict for a file present in both trees."""
    if sha256(path_a) == sha256(path_b):
        return "same"
    xs, ys = numbers(path_a), numbers(path_b)
    if xs is None or ys is None or len(xs) != len(ys):
        return "differs"
    worst = max((relative_change(x, y) for x, y in zip(xs, ys)), default=0.0)
    return f"differs, max relative change {worst:.3e}"


def diff_trees(root_a, root_b):
    """(relative path, verdict) for every file under either root."""
    files_a, files_b = tree_files(root_a), tree_files(root_b)
    rows = []
    for rel in sorted(files_a | files_b):
        if rel not in files_a:
            rows.append((rel, "missing in A"))
        elif rel not in files_b:
            rows.append((rel, "missing in B"))
        else:
            rows.append((rel, compare(os.path.join(root_a, rel),
                                      os.path.join(root_b, rel))))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(os.path.isdir(p) for p in argv):
        print("usage: diff_artifacts.py A B  (two directories)", file=sys.stderr)
        return 2
    rows = diff_trees(*argv)
    width = max((len(rel) for rel, _ in rows), default=0)
    for rel, verdict in rows:
        print(f"{rel:<{width}}  {verdict}")
    same = sum(verdict == "same" for _, verdict in rows)
    print(f"{same} of {len(rows)} files same")
    return 0 if same == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
