"""Deterministic CSV / Markdown / SVG artifact writers, and the CSV reader.

All floats are formatted through one repr so byte-identical reruns stay
byte-identical; no timestamps or environment details enter the files.
The SVG log-log plots are generated markup with no plotting dependency.
A CSV artifact is an optional `# {json}` metadata line, a header line and
comma-separated rows; `read_csv` reads every one of them back.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import DomainError, MissingArtifactError

__all__ = [
    "fmt",
    "write_csv",
    "read_csv",
    "write_markdown_table",
    "write_ratio_csv",
    "write_eigen_csv",
    "write_field_csv",
    "write_loglog_svg",
]


def fmt(x):
    """Stable float formatting for artifacts."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    return str(x)


def _write_lines(path, header, lines, meta):
    """A CSV artifact: the meta line, the header and the given row lines."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        if meta is not None:
            fh.write("# " + json.dumps(meta, sort_keys=True, default=fmt) + "\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def write_csv(path, header, rows, meta=None, row_format=None):
    """A CSV artifact of `rows`, each value through `fmt`; or, with
    `row_format`, each row through that one `%` format of a whole line.
    For a Python float "%.12g" gives the bytes of `fmt`, so a float row
    from `tolist()` needs one format instead of one per value."""
    if row_format is None:
        lines = (",".join(fmt(v) for v in row) + "\n" for row in rows)
    else:
        lines = (row_format % tuple(row) for row in rows)
    _write_lines(path, header, lines, meta)


def read_csv(path, meta_keys=None, columns=(), numeric=False):
    """(meta, header, rows) of a CSV artifact, rows as lists of strings.

    `meta` is the `# {json}` line ({} without one).  It must hold every key
    of the mapping `meta_keys`, each value converted by the type the key
    maps to (`float`, `str`, `dict`, `operator.index` for a JSON integer, or
    a callable raising TypeError or ValueError).  `header` must name every
    one of `columns`.  With `numeric` the rows come as one float array, one
    column per header field.  A file that cannot be read this way raises
    MissingArtifactError naming it, a missing file included.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
        has_meta = bool(lines) and lines[0].startswith("# ")
        meta = dict(json.loads(lines.pop(0)[2:])) if has_meta else {}
        header, *rows = (line.split(",") for line in lines)
        missing = ([key for key in meta_keys or {} if key not in meta]
                   + [col for col in columns if col not in header])
        if missing or any(len(row) != len(header) for row in rows):
            raise ValueError(f"missing fields {missing}" if missing
                             else "a row does not match the header")
        for key, kind in (meta_keys or {}).items():
            try:
                meta[key] = kind(meta[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"meta {key} = {meta[key]!r}: {exc}") from None
        if numeric:
            rows = np.array(rows, dtype=float).reshape(len(rows), len(header))
    except (OSError, TypeError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise MissingArtifactError(
            f"cannot read artifact {path}: {reason}") from None
    return meta, header, rows


def _cell(x):
    """A Markdown table cell: a literal `|` must not end the cell."""
    return fmt(x).replace("|", r"\|")


def write_markdown_table(path, title, header, rows, preamble=""):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# {title}\n\n")
        if preamble:
            fh.write(preamble.rstrip() + "\n\n")
        fh.write("| " + " | ".join(_cell(h) for h in header) + " |\n")
        fh.write("|" + "|".join("---" for _ in header) + "|\n")
        for row in rows:
            fh.write("| " + " | ".join(_cell(v) for v in row) + " |\n")


def write_ratio_csv(path, fit, meta=None):
    base = dict(meta or {})
    base.update({
        "alpha_hat": fit.alpha_hat,
        "c_hat": fit.c_hat,
        "r_squared": fit.r_squared,
        "model": fit.model,
        "window_lo": fit.window[0],
        "window_hi": fit.window[1],
    })
    write_csv(path, ["annulus_mid", "max_ratio"], fit.table, meta=base)


def write_eigen_csv(path, eigen):
    meta = {"n": eigen.n, "lambda1": eigen.lambda1, "mu1": eigen.mu1,
            "regime": eigen.regime, "nu_hat": eigen.nu_hat}
    rows = np.column_stack([eigen.profile.theta, eigen.phi]).tolist()
    write_csv(path, ["theta", "phi1"], rows, meta=meta,
              row_format="%.12g,%.12g\n")


def write_field_csv(path, fld):
    meta = {"n": fld.n, "operator": fld.operator_label,
            "reduction": fld.domain.reduction, "truncation": fld.truncation,
            "bracket_width": fld.bracket_width}
    # one row per node, in the row-major order of u
    rows = np.column_stack(
        [x.ravel() for x in (fld.radii(), fld.theta, fld.u, fld.d)]).tolist()
    write_csv(path, ["r", "theta", "u", "d"], rows, meta=meta,
              row_format="%.12g,%.12g,%.12g,%.12g\n")


def write_loglog_svg(path, label, xs, ys, title="", fitted=None):
    """Minimal hand-emitted log-log scatter of max ratio against r, one
    series named `label`, and an optional fitted line.

    fitted: (alpha, c) power law drawn across the x-range.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    # finite positive points only: NaN fails both comparisons
    pts = [(x, y) for x, y in zip(xs, ys)
           if 0 < x < np.inf and 0 < y < np.inf]
    if not pts:
        raise DomainError(f"{label}: no finite positive point to plot")
    lx = [np.log10(p[0]) for p in pts]
    ly = [np.log10(p[1]) for p in pts]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    if x1 - x0 < 1e-9:
        x1 = x0 + 1.0
    if y1 - y0 < 1e-9:
        y1 = y0 + 1.0
    pad = 0.06
    x0, x1 = x0 - pad * (x1 - x0), x1 + pad * (x1 - x0)
    y0, y1 = y0 - pad * (y1 - y0), y1 + pad * (y1 - y0)
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 40, 50

    def sx(v):
        return ml + (np.log10(v) - x0) / (x1 - x0) * (width - ml - mr)

    def sy(v):
        return height - mb - (np.log10(v) - y0) / (y1 - y0) * (height - mt - mb)

    color = "#1f6fb2"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
    ]
    # decade grid
    for dec in range(int(np.floor(x0)), int(np.ceil(x1)) + 1):
        if x0 <= dec <= x1:
            px = sx(10.0**dec)
            parts.append(f'<line x1="{px:.1f}" y1="{mt}" x2="{px:.1f}" '
                         f'y2="{height-mb}" stroke="#dddddd"/>')
            parts.append(f'<text x="{px:.1f}" y="{height-mb+16}" text-anchor="middle" '
                         f'font-family="monospace" font-size="11">1e{dec}</text>')
    for dec in range(int(np.floor(y0)), int(np.ceil(y1)) + 1):
        if y0 <= dec <= y1:
            py = sy(10.0**dec)
            parts.append(f'<line x1="{ml}" y1="{py:.1f}" x2="{width-mr}" '
                         f'y2="{py:.1f}" stroke="#dddddd"/>')
            parts.append(f'<text x="{ml-6}" y="{py+4:.1f}" text-anchor="end" '
                         f'font-family="monospace" font-size="11">1e{dec}</text>')
    parts.append(f'<rect x="{ml}" y="{mt}" width="{width-ml-mr}" '
                 f'height="{height-mt-mb}" fill="none" stroke="#333333"/>')
    parts.append(f'<text x="{width/2:.1f}" y="{height-10}" text-anchor="middle" '
                 f'font-family="monospace" font-size="12">r</text>')
    parts.append(f'<text x="16" y="{height/2:.1f}" text-anchor="middle" '
                 f'font-family="monospace" font-size="12" '
                 f'transform="rotate(-90 16 {height/2:.1f})">max ratio</text>')

    if fitted is not None:
        alpha, c = fitted
        fit_xs = np.logspace(x0 + 0.02, x1 - 0.02, 32)
        with np.errstate(all="ignore"):
            fit_ys = [c * x**alpha for x in fit_xs]
        if not all(0 < y < np.inf for y in fit_ys):
            raise DomainError(f"{label}: the fitted line {c:g} x^{alpha:g} is "
                              f"not finite and positive over the plot")
        path_d = " ".join(
            ("M" if i == 0 else "L") + f"{sx(x):.1f},{sy(y):.1f}"
            for i, (x, y) in enumerate(zip(fit_xs, fit_ys))
        )
        parts.append(f'<path d="{path_d}" fill="none" stroke="#888888" '
                     f'stroke-dasharray="5,4"/>')
        parts.append(f'<text x="{width-mr-8}" y="{mt+16}" text-anchor="end" '
                     f'font-family="monospace" font-size="11">slope {alpha:.3f}</text>')

    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3.5" '
                     f'fill="{color}"/>')
    parts.append(f'<text x="{ml+10}" y="{mt+16}" font-family="monospace" '
                 f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
