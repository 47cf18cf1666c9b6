"""Compare the verified scalars of an output tree with a committed reference.

    python tools/check_reference.py OUT REF

OUT is the output directory of the six pipeline stages (for instance of
`tools/run_stages.py configs/cases.cfg OUT`), and REF a reference such as
`configs/cases.reference.json`.  The scalars are read per case directory
of OUT:

- `profile.csv`: the profile's `truncation`
- `eigen.csv`: `lambda1`, `mu1`, `nu_hat` and `regime`
- `ratio.csv`: `alpha_hat`, `c_hat` and `bracket_width`
- `field.csv`: the field's `truncation`
- `certificates.csv`: each row's barrier, region, margin, nodes, verdict
  and every constant
- `verify.csv`: every cell of every row

and named `CASE/FILE/KEY`, with the row number after FILE in a table, for
instance `cone-n6-q03/ratio/alpha_hat` or
`barrier-graded-n6/certificates/0/constants/A`.

Strings, verdicts and nulls compare exactly.  A number compares by
relative change |a - b| / max(|a|, |b|) against REF's default tolerance,
or against the first override whose `match` pattern (`fnmatch`) fits its
name; each tolerance states its reason.  The script prints one line per
value that moved (changed, missing from OUT, or not in REF) and a count.
It exits 0 when nothing moved, 1 when something did, and 2 on bad
arguments, an unreadable REF, or a missing artifact (a file of OUT that
REF has values from).

`reference_values(OUT)` returns the values of a tree as REF stores them;
a change that moves a pinned value replaces REF's `values` with them.

Uses the standard library only.
"""

import csv
import fnmatch
import json
import math
import os
import sys

# meta keys read from each CSV artifact's `# {json}` line
META_KEYS = {
    "profile": ("truncation",),
    "eigen": ("lambda1", "mu1", "nu_hat", "regime"),
    "ratio": ("alpha_hat", "c_hat", "bracket_width"),
    "field": ("truncation",),
}
# artifacts read row by row
TABLES = ("certificates", "verify")


class ArtifactError(Exception):
    """A file of the tree that cannot be read."""


def _cell(text):
    """A CSV cell as a number where it reads as one, else the string."""
    try:
        return float(text)
    except ValueError:
        return text


def _read(path):
    """(meta, rows as dicts) of a CSV artifact."""
    try:
        with open(path, newline="") as fh:
            lines = fh.read().splitlines()
        meta = {}
        if lines and lines[0].startswith("# "):
            meta = json.loads(lines.pop(0)[2:])
        return meta, list(csv.DictReader(lines))
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from None


def reference_values(out):
    """{name: value} of every scalar the output tree `out` pins."""
    values = {}
    for case in sorted(os.listdir(out)):
        cdir = os.path.join(out, case)
        if not os.path.isdir(cdir):
            continue
        for stem, keys in META_KEYS.items():
            path = os.path.join(cdir, stem + ".csv")
            if os.path.exists(path):
                meta = _read(path)[0]
                for key in keys:
                    if key not in meta:
                        raise ArtifactError(f"{path} has no {key!r}")
                    values[f"{case}/{stem}/{key}"] = meta[key]
        for stem in TABLES:
            path = os.path.join(cdir, stem + ".csv")
            if not os.path.exists(path):
                continue
            for i, row in enumerate(_read(path)[1]):
                for key, text in row.items():
                    name = f"{case}/{stem}/{i}/{key}"
                    if key == "constants":
                        for pair in text.split(";"):
                            const, _, value = pair.partition("=")
                            values[f"{name}/{const}"] = _cell(value)
                    else:
                        values[name] = _cell(text)
    return values


def _artifact(name):
    """The artifact path, relative to the tree, that a value comes from."""
    case, stem = name.split("/")[:2]
    return os.path.join(case, stem + ".csv")


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def relative_change(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not all(map(math.isfinite, (a, b))):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def tolerance(name, spec):
    """The relative tolerance REF's `tolerance` block gives a value."""
    for rule in spec.get("overrides", ()):
        if fnmatch.fnmatchcase(name, rule["match"]):
            return rule["rtol"]
    return spec["default"]["rtol"]


def moved_values(out, ref):
    """(name, message) for each value of `out` that moved from `ref`."""
    pinned = ref["values"]
    for rel in sorted({_artifact(name) for name in pinned}):
        if not os.path.isfile(os.path.join(out, rel)):
            raise ArtifactError(f"missing artifact {rel}")
    found = reference_values(out)
    moved = []
    for name in sorted(set(pinned) | set(found)):
        if name not in found:
            moved.append((name, f"{pinned[name]!r} -> missing"))
        elif name not in pinned:
            moved.append((name, f"not in the reference -> {found[name]!r}"))
        else:
            old, new = pinned[name], found[name]
            if _is_number(old) and _is_number(new):
                change = relative_change(old, new)
                rtol = tolerance(name, ref["tolerance"])
                if not change <= rtol:
                    moved.append((name, f"{old!r} -> {new!r} (relative "
                                        f"change {change:.3e} > {rtol:g})"))
            elif old != new:
                moved.append((name, f"{old!r} -> {new!r}"))
    return moved, len(pinned)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not os.path.isdir(argv[0]):
        print("usage: check_reference.py OUT REF  (OUT a directory)",
              file=sys.stderr)
        return 2
    out, ref_path = argv
    try:
        with open(ref_path) as fh:
            ref = json.load(fh)
        moved, count = moved_values(out, ref)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot read reference {ref_path}: {exc}", file=sys.stderr)
        return 2
    except ArtifactError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 2
    for name, message in moved:
        print(f"{name}: {message}")
    print(f"{len(moved)} of {count} values moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
