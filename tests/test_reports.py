import re
from types import SimpleNamespace

import numpy as np
import pytest

from blowlab.analysis import RateFit
from blowlab.errors import DomainError, MissingArtifactError
from blowlab.profiles import (
    SphericalDomain1D,
    profile_from_csv,
    profile_to_csv,
)
from blowlab.reports import (
    fmt,
    read_csv,
    write_csv,
    write_eigen_csv,
    write_field_csv,
    write_loglog_svg,
    write_markdown_table,
    write_ratio_csv,
)
from blowlab.solver import DomainSpec2D, SolutionField


def _cells(line):
    """Cells of a Markdown table row; `\\|` stays inside its cell."""
    return re.split(r"(?<!\\)\|", line.strip())[1:-1]


def test_markdown_cells_escape_pipes(tmp_path):
    path = tmp_path / "table.md"
    header = ["case", "form", "alpha", "verdict"]
    rows = [["meridian", "C|x|^2", 2.0, "PASS"], ["ball-n3", "C|x|^1", 1.0, "FAIL"]]
    write_markdown_table(str(path), "rows", header, rows)
    table = [line for line in path.read_text().splitlines() if line.startswith("|")]
    assert len(table) == 2 + len(rows)
    for line in table:
        assert len(_cells(line)) == len(header), line
    assert _cells(table[2])[1].strip() == r"C\|x\|^2"


def _strings(rows):
    return [[fmt(v) for v in row] for row in rows]


def test_every_artifact_reads_back_through_one_reader(tmp_path,
                                                      cap_pi3_n3_profile):
    prof = cap_pi3_n3_profile
    path = str(tmp_path / "profile.csv")
    profile_to_csv(prof, path)
    meta, header, data = read_csv(path, numeric=True)
    assert header == ["theta", "g", "rho"]
    assert meta == {"n": 3, "domain": prof.domain.as_dict(),
                    "truncation": prof.truncation}
    assert np.array_equal(data, np.column_stack([prof.theta, prof.g, prof.rho]))
    back = profile_from_csv(path)
    assert np.array_equal(back.g, prof.g) and back.domain == prof.domain

    theta = np.linspace(0.0, 1.0, 7)
    eigen = SimpleNamespace(n=3, lambda1=4.1, mu1=2.2, regime="power",
                            nu_hat=2.5, profile=SimpleNamespace(theta=theta),
                            phi=np.cos(theta))
    path = str(tmp_path / "eigen.csv")
    write_eigen_csv(path, eigen)
    meta, header, rows = read_csv(path)
    assert meta == {"n": 3, "lambda1": 4.1, "mu1": 2.2, "regime": "power",
                    "nu_hat": 2.5}
    assert header == ["theta", "phi1"]
    assert rows == _strings(zip(theta, eigen.phi))

    fit = RateFit(alpha_hat=1.0625, c_hat=0.5, r_squared=0.9990234375,
                  window=(2.0**-9, 0.25), table=[(0.1, 0.02), (0.2, 0.04)],
                  model="power-log")
    path = str(tmp_path / "ratio.csv")
    write_ratio_csv(path, fit, meta={"reference": "discrete-cone",
                                     "bracket_width": 0.003})
    meta, header, data = read_csv(path, numeric=True)
    assert meta == {"reference": "discrete-cone", "bracket_width": 0.003,
                    "alpha_hat": 1.0625, "c_hat": 0.5, "r_squared": 0.9990234375,
                    "model": "power-log", "window_lo": 2.0**-9, "window_hi": 0.25}
    assert header == ["annulus_mid", "max_ratio"]
    assert np.array_equal(data, fit.table)

    r = np.linspace(0.0, 0.9, 4)
    fld = SolutionField(domain=DomainSpec2D("ball", aperture=np.pi, r_max=1.0),
                        n=3, operator_label="euclidean", r=r, eta=np.zeros(1),
                        u=(1.0 + r**2)[:, None], d=(1.0 - r)[:, None],
                        truncation=100.0)
    path = str(tmp_path / "field.csv")
    write_field_csv(path, fld)
    meta, header, rows = read_csv(path)
    assert meta == {"n": 3, "operator": "euclidean", "reduction": "ball",
                    "truncation": 100.0, "bracket_width": None}
    assert header == ["r", "theta", "u", "d"]
    assert rows == _strings(zip(r, np.zeros(4), 1.0 + r**2, 1.0 - r))

    # the verify and certificate rows as `blowlab verify` / `certify` write them
    for name, header, row in (
            ("verify.csv",
             ["case", "n", "predicted_form", "predicted", "measured", "passed"],
             ("cone-n3", 3, "C|x|^4.66452", 4.664523, 4.5120001, True)),
            ("certificates.csv",
             ["barrier", "region", "margin", "nodes", "passed", "constants"],
             ("double-ball", "B_0.5", -0.25, 512, False, "C_L=2;R_star=0.5"))):
        path = str(tmp_path / name)
        write_csv(path, header, [row])
        assert read_csv(path, columns=("passed",)) == ({}, header, _strings([row]))


def test_field_writer_gives_the_bytes_of_write_csv(tmp_path):
    # one format per row must format each value as `fmt` does, the
    # values at the edges of "%.12g" included
    rng = np.random.default_rng(5)
    shape = (17, 24)
    u, d = (rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
            for _ in range(2))
    u.flat[:9] = [-0.0, 0.0, np.inf, -np.inf, np.nan, 1e300, 5e-324,
                  1.0 / 3.0, 123456789012.5]
    d.flat[:4] = [1e16, 1e-5, 0.1 + 0.2, -2.0**-1074]
    r = np.geomspace(2.0**-8, 1.0, shape[0])
    fld = SolutionField(
        domain=DomainSpec2D("meridian", aperture=np.pi / 3, r_min=2.0**-8),
        n=3, operator_label="euclidean", r=r, eta=np.linspace(0, 1, shape[1]),
        u=u, d=d, truncation=100.0, bracket_width=0.01)
    write_field_csv(str(tmp_path / "field.csv"), fld)
    meta = {"n": 3, "operator": "euclidean", "reduction": "meridian",
            "truncation": 100.0, "bracket_width": 0.01}
    rows = zip(*(x.ravel() for x in (fld.radii(), fld.theta, u, d)))
    write_csv(str(tmp_path / "expected.csv"), ["r", "theta", "u", "d"], rows,
              meta=meta)
    assert ((tmp_path / "field.csv").read_bytes()
            == (tmp_path / "expected.csv").read_bytes())


def test_profile_and_eigen_writers_give_the_bytes_of_per_value_formats(
        tmp_path):
    # one format per row must give the bytes of a format per value: `fmt`
    # for eigen.csv and 17 digits for profile.csv, edge values included
    rng = np.random.default_rng(7)
    theta, g, phi = (rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)
                     for _ in range(3))
    theta[:9] = [-0.0, 0.0, np.inf, -np.inf, np.nan, 1e300, 5e-324,
                 1.0 / 3.0, 123456789012.5]
    g[:5] = [1e300, -0.0, np.nan, -np.inf, 0.1 + 0.2]
    phi[:5] = [np.nan, 1e300, -np.inf, np.inf, -0.0]
    domain = SphericalDomain1D("polar-sphere", 0.0, 1.0)
    prof = SimpleNamespace(n=3, domain=domain, truncation=100.0,
                           theta=theta, g=g, rho=-g)
    profile_to_csv(prof, str(tmp_path / "profile.csv"))
    meta = {"n": 3, "domain": domain.as_dict(), "truncation": 100.0}
    write_csv(str(tmp_path / "profile-expected.csv"), ["theta", "g", "rho"],
              ([f"{v:.17g}" for v in row] for row in zip(theta, g, -g)),
              meta=meta)
    eigen = SimpleNamespace(n=3, lambda1=4.1, mu1=2.2, regime="power",
                            nu_hat=2.5, profile=prof, phi=phi)
    write_eigen_csv(str(tmp_path / "eigen.csv"), eigen)
    meta = {"n": 3, "lambda1": 4.1, "mu1": 2.2, "regime": "power",
            "nu_hat": 2.5}
    write_csv(str(tmp_path / "eigen-expected.csv"), ["theta", "phi1"],
              zip(theta, phi), meta=meta)
    for name in ("profile", "eigen"):
        assert ((tmp_path / f"{name}.csv").read_bytes()
                == (tmp_path / f"{name}-expected.csv").read_bytes())
    eigen_csv = (tmp_path / "eigen.csv").read_bytes()
    assert b"\n-0,nan\n0,1e+300\ninf,-inf\n" in eigen_csv


@pytest.mark.parametrize("text, problem", [
    pytest.param(None, None, id="no-file"),
    pytest.param('# {"n": 3', None, id="truncated-meta"),
    pytest.param("# [1, 2]\nannulus_mid,max_ratio\n", None, id="meta-not-a-mapping"),
    pytest.param("garbage\n",
                 "missing fields ['alpha_hat', 'annulus_mid', 'max_ratio']",
                 id="garbage"),
    pytest.param('# {"alpha_hat": 1}\nannulus_mid,max_ratio\n0.1\n',
                 "a row does not match the header", id="short-row"),
    pytest.param('# {"alpha_hat": 1}\nannulus_mid,max_ratio\n0.1,x\n', None,
                 id="not-a-number"),
    pytest.param('# {"alpha_hat": "abc"}\nannulus_mid,max_ratio\n0.1,1\n',
                 "meta alpha_hat = 'abc': could not convert", id="meta-not-a-float"),
])
def test_malformed_artifact_names_the_file(tmp_path, text, problem):
    path = tmp_path / "ratio.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(MissingArtifactError, match="ratio.csv") as info:
        read_csv(str(path), {"alpha_hat": float}, ("annulus_mid", "max_ratio"),
                 numeric=True)
    assert problem is None or problem in str(info.value)


def test_read_csv_types_the_meta_values(tmp_path):
    # each key is read as the type it maps to; a value that does not convert
    # is a malformed artifact that names the file and the key
    import operator

    path = tmp_path / "profile.csv"
    kinds = {"n": operator.index, "domain": dict, "truncation": float}
    path.write_text('# {"n": 3, "domain": {}, "truncation": 1, "x": "y"}\n'
                    "theta,g\n0,1\n")
    meta, _, _ = read_csv(str(path), kinds)
    assert meta == {"n": 3, "domain": {}, "truncation": 1.0, "x": "y"}
    assert type(meta["truncation"]) is float
    # operator.index takes a JSON integer only (true is the integer 1)
    for value in ("3.0", "1e308", "null", '"3"', "[]"):
        path.write_text(f'# {{"n": {value}, "domain": {{}}, "truncation": 1}}\n'
                        "theta,g\n0,1\n")
        with pytest.raises(MissingArtifactError, match="profile.csv: meta n = "):
            read_csv(str(path), kinds)


@pytest.mark.parametrize("fitted", [(1e308, 1.0), (float("nan"), 1.0),
                                    (1.0, 0.0), (1.0, -1.0), (1.0, np.inf)])
def test_loglog_svg_draws_only_a_fitted_line_it_can_place(tmp_path, fitted):
    # c x^alpha must be finite and positive over the plot's x-range
    path = tmp_path / "ratio.svg"
    with pytest.raises(DomainError, match="fitted line"):
        write_loglog_svg(str(path), "case", [0.01, 0.1], [1e-4, 1e-2],
                         fitted=fitted)
    assert not path.exists()
    write_loglog_svg(str(path), "case", [0.01, 0.1], [1e-4, 1e-2],
                     fitted=(2.0, 1.0))
    assert "slope 2.000" in path.read_text()
