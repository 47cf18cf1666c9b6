"""Compare two artifact trees file by file.

    python tools/diff_artifacts.py A B

For every file under A or B (paths relative to each root) it prints one
line: `same` when the sha256 values agree, `missing in A` or `missing in
B` when the file exists on one side only, and otherwise the largest
relative change |a - b| / max(|a|, |b|) over the numbers of the file,
paired in reading order.  A file whose numbers do not pair up (different
counts, or bytes that are not UTF-8 text) is reported as `differs`.  A
file that opens with a `# {json}` meta line, as the CSV artifacts do, is
judged in two parts, `data ...` and `meta ...`, each `same`, its largest
relative change or `differs`, so that a change of the meta line, such as
a key that one side lacks, does not hide how far the data moved.  The
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


def split_text(path):
    """(meta line or None, rest) of a UTF-8 file, or None for binary files."""
    with open(path, "rb") as fh:
        try:
            text = fh.read().decode("utf-8")
        except UnicodeDecodeError:
            return None
    if text.startswith("# {"):
        meta, _, rest = text.partition("\n")
        return meta, rest
    return None, text


def relative_change(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def change(text_a, text_b):
    """`same`, the largest relative change of the numbers, or `differs`."""
    if text_a == text_b:
        return "same"
    xs = [float(tok) for tok in NUMBER.findall(text_a or "")]
    ys = [float(tok) for tok in NUMBER.findall(text_b or "")]
    if len(xs) != len(ys):
        return "differs"
    worst = max((relative_change(x, y) for x, y in zip(xs, ys)), default=0.0)
    return f"max relative change {worst:.3e}"


def compare(path_a, path_b):
    """One-line verdict for a file present in both trees."""
    if sha256(path_a) == sha256(path_b):
        return "same"
    parts_a, parts_b = split_text(path_a), split_text(path_b)
    if parts_a is None or parts_b is None:
        return "differs"
    (meta_a, data_a), (meta_b, data_b) = parts_a, parts_b
    data = change(data_a, data_b)
    if meta_a is None and meta_b is None:
        return "differs" if data == "differs" else f"differs, {data}"
    return f"differs, data {data}, meta {change(meta_a, meta_b)}"


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
