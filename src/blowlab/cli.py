"""Config-driven experiment runner.

Subcommands stage the pipeline (profile -> eigen -> solve -> certify ->
verify -> report) over the cases of a plain-text key-value config, and
artifacts are deterministic: rerunning a stage with the same inputs
rewrites byte-identical files.  `KEYS` is the config schema: per case key,
its parser, whether a case may leave it out, and the stages that read it;
a key outside it, or one no stage of its case reads, is a config error.
A cone case without a `predicted` key takes verify's prediction from the
mu1 in the metadata of its eigen.csv, the eigen stage's artifact.

Each stage imports only the modules it runs, inside its runner and the
`Case` builders, so `report` and `verify` start without SciPy and only
`solve` loads `scipy.sparse`.

Exit codes: 0 ok, 1 failed certificate or theorem row, 2 unknown case
label, 3 missing or malformed upstream artifact, 4 malformed config, 5
solver failure (Newton divergence, bracket localization, domain or bound
failure).  A solver failure ends only its own case: the other cases still
run and write their artifacts, and the stage exits 5.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from types import SimpleNamespace

from .errors import (BlowlabError, ConfigError, DomainError,
                     MissingArtifactError)
from .reports import (
    fmt,
    read_csv,
    write_csv,
    write_eigen_csv,
    write_field_csv,
    write_loglog_svg,
    write_markdown_table,
    write_ratio_csv,
)

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_UNKNOWN_CASE = 2
EXIT_MISSING_ARTIFACT = 3
EXIT_BAD_CONFIG = 4
EXIT_SOLVER_FAILED = 5

STAGES = ("profile", "eigen", "solve", "certify", "verify", "report")


# ---------------------------------------------------------------------------
# config schema


def _parse_floats(text):
    return tuple(float(tok) for tok in text.split())


def _parse_bool(text):
    """One of configparser's spellings of a boolean (1/yes/true/on and
    0/no/false/off, in any case)."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


REQUIRED, OPTIONAL = "required", "optional"

# every case key: its parser; REQUIRED, OPTIONAL (left out, the library's
# default stands) or the value it takes when left out; and the stages that
# read it, as a `stages` line names them.  A case sets only keys that one
# of its stages reads
KEYS = {
    # the profile's spherical section and grid
    "geometry": (str, REQUIRED, "profile"),
    "theta_lo": (float, REQUIRED, "profile"),
    "theta_hi": (float, REQUIRED, "profile"),
    "bc_lo": (str, OPTIONAL, "profile"),
    "bc_hi": (str, OPTIONAL, "profile"),
    "nodes": (int, REQUIRED, "profile"),
    "grading": (float, REQUIRED, "profile"),
    "n": (int, REQUIRED, "profile solve certify verify"),
    "schedule": (_parse_floats, REQUIRED, "profile solve"),
    "interior_tol": (float, REQUIRED, "profile solve"),
    # the 2-D domain, its operator, the solve and its rate fit
    "reduction": (str, REQUIRED, "solve"),
    "aperture": (float, math.pi, "solve"),     # a ball does not read it
    "r_min": (float, OPTIONAL, "solve"),
    "r_max": (float, REQUIRED, "solve"),
    "curve": (_parse_floats, OPTIONAL, "solve"),
    "operator": (str, REQUIRED, "solve"),
    "q": (float, REQUIRED, "solve"),
    "nt_per_octave": (int, OPTIONAL, "solve"),
    "n_eta": (int, OPTIONAL, "solve"),
    "eta_grading": (float, REQUIRED, "solve"),
    "newton_tol": (float, REQUIRED, "solve"),
    "bracket_low": (float, REQUIRED, "solve"),
    "bracket_high": (float, REQUIRED, "solve"),
    "bracket_tol": (float, REQUIRED, "solve"),
    "fit_lo": (float, REQUIRED, "solve"),
    "fit_hi": (float, REQUIRED, "solve"),
    "log_model": (_parse_bool, OPTIONAL, "solve"),
    # the barrier certificate
    "barrier": (str, REQUIRED, "certify"),
    "c_l": (float, REQUIRED, "certify"),
    # the theorem row
    "predicted": (float, OPTIONAL, "verify"),
    "slack": (float, REQUIRED, "verify"),
    "sharp_at": (float, OPTIONAL, "verify"),
}


class Case:
    """One `[case:LABEL]` section: its stages, and its keys as set.

    A key outside `KEYS`, or one that none of the case's stages reads, is
    rejected here; a value is parsed when a stage reads it.
    """

    def __init__(self, label, options):
        self.label = label
        self.opt = dict(options)
        self.stages = tuple(self.opt.pop("stages", "").split())
        unknown = set(self.stages) - set(STAGES)
        if unknown:
            raise ConfigError(f"case {label}: unknown stages {sorted(unknown)}")
        unknown = [key for key in self.opt if key not in KEYS]
        if unknown:
            raise ConfigError(f"case {label}: unknown keys {unknown}")
        unread = [key for key in self.opt
                  if not set(KEYS[key][2].split()) & set(self.stages)]
        if unread:
            raise ConfigError(f"case {label}: keys {unread} are read by none "
                              f"of its stages {list(self.stages)}")

    def get(self, key):
        """The value of `key` as its parser reads it; when the case leaves
        it out, its default, or None for an OPTIONAL key."""
        parse, default, _ = KEYS[key]
        if key not in self.opt:
            if default is REQUIRED:
                raise ConfigError(f"case {self.label}: missing key {key!r}")
            return None if default is OPTIONAL else default
        try:
            return parse(self.opt[key])
        except ValueError as exc:
            raise ConfigError(f"case {self.label}: bad value for {key}: {exc}")

    def given(self, *keys, **renamed):
        """Keyword arguments from `keys`, and from `renamed` (argument name
        to key), without the OPTIONAL keys the case leaves out, so that
        those take the library's defaults."""
        pairs = [(key, key) for key in keys] + list(renamed.items())
        values = [(name, self.get(key)) for name, key in pairs]
        return {name: value for name, value in values if value is not None}

    # -- domain / operator builders ---------------------------------------
    # each builder imports the module it builds from, so that a stage
    # loads only what it runs
    def spherical_domain(self):
        from .profiles import SphericalDomain1D

        return SphericalDomain1D(
            **self.given("geometry", "theta_lo", "theta_hi", "bc_lo", "bc_hi"),
            label=self.label)

    def grid_spec(self):
        from .profiles import GridSpec

        return GridSpec(count=self.get("nodes"), grading=self.get("grading"))

    def domain2d(self):
        from .solver import DomainSpec2D

        return DomainSpec2D(**self.given("reduction", "aperture", "r_min",
                                         "r_max", "curve"))

    def operator(self):
        from .operators import (
            conformal_operator,
            conformal_quadratic_metric,
            euclidean_operator,
        )

        name = self.get("operator")
        n = self.get("n")
        if name == "euclidean":
            return euclidean_operator(n)
        if name == "conformal-quadratic":
            q = self.get("q")
            return conformal_operator(conformal_quadratic_metric(n, q))
        raise ConfigError(f"case {self.label}: unknown operator {name!r}")

    def solve_config(self):
        from .solver import SolveConfig

        return SolveConfig(
            bracket=(self.get("bracket_low"), self.get("bracket_high")),
            **self.given("schedule", "newton_tol", "interior_tol",
                         "bracket_tol", "eta_grading", "nt_per_octave",
                         "n_eta"))


def load_config(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}")
    if "suite" not in parser:
        raise ConfigError("config needs a [suite] section with an output dir")
    suite = dict(parser["suite"])
    cases = {}
    for section in parser.sections():
        if section.startswith("case:"):
            label = section.split(":", 1)[1]
            cases[label] = Case(label, parser[section])
    if not cases:
        raise ConfigError("config defines no [case:...] sections")
    return suite, cases


# ---------------------------------------------------------------------------
# stage runners (one case each)


def _case_dir(outdir, label):
    path = os.path.join(outdir, label)
    os.makedirs(path, exist_ok=True)
    return path


def _read_profile(cdir):
    from .profiles import profile_from_csv

    return profile_from_csv(os.path.join(cdir, "profile.csv"))


def run_profile(case, outdir):
    from .profiles import profile_to_csv, solve_profile

    dom = case.spherical_domain()
    prof = solve_profile(dom, case.get("n"), schedule=case.get("schedule"),
                         grid=case.grid_spec(),
                         interior_tol=case.get("interior_tol"))
    profile_to_csv(prof, os.path.join(_case_dir(outdir, case.label), "profile.csv"))
    return True, f"profile: g(lo)={prof.g[0]:.8g} M={prof.truncation:g}"


def run_eigen(case, outdir):
    from .spectral import first_eigenpair, regime_exponent

    cdir = _case_dir(outdir, case.label)
    eig = first_eigenpair(_read_profile(cdir))
    write_eigen_csv(os.path.join(cdir, "eigen.csv"), eig)
    form = regime_exponent(eig)
    write_csv(
        os.path.join(cdir, "regime.csv"),
        ["lambda1", "mu1", "regime", "predicted_form", "nu_hat"],
        [(eig.lambda1, eig.mu1, eig.regime, form.description, eig.nu_hat)],
    )
    return True, f"eigen: lambda1={eig.lambda1:.8g} mu1={eig.mu1:.6g} [{eig.regime}]"


def run_solve(case, outdir):
    from .analysis import check_fit_window, compare_to_cone, fit_rate
    from .operators import euclidean_operator
    from .solver import solve

    cdir = _case_dir(outdir, case.label)
    dom = case.domain2d()
    n = case.get("n")
    cfg = case.solve_config()
    op = case.operator()
    fit_lo, fit_hi = case.get("fit_lo"), case.get("fit_hi")
    check_fit_window(fit_lo, fit_hi)
    # every key is read before the solve, so a bad one costs no solve
    model = case.given(compare_log_model="log_model")
    if dom.reduction != "ball" and not op.is_euclidean:
        base = solve(dom, euclidean_operator(n), n, cfg)
        fld = solve(dom, op, n, cfg, forced_schedule=base.m_history)
        ratio = compare_to_cone(fld, baseline=base)
    else:
        fld = solve(dom, op, n, cfg)
        ratio = compare_to_cone(fld)
    write_field_csv(os.path.join(cdir, "field.csv"), fld)
    fit = fit_rate(ratio, fit_lo, fit_hi, **model)
    write_ratio_csv(os.path.join(cdir, "ratio.csv"), fit,
                    meta={"reference": ratio.reference,
                          "bracket_width": fld.bracket_width})
    width = "n/a" if fld.bracket_width is None else f"{fld.bracket_width:.3e}"
    return True, f"solve: alpha_hat={fit.alpha_hat:.4f} bracket_width={width}"


def _read_ratio(cdir):
    """(meta, table) of ratio.csv; table rows are (annulus_mid, max_ratio)."""
    meta, _, table = read_csv(
        os.path.join(cdir, "ratio.csv"),
        {"alpha_hat": float, "c_hat": float, "r_squared": float,
         "window_lo": float, "window_hi": float, "model": str},
        ("annulus_mid", "max_ratio"), numeric=True)
    return meta, table


def run_certify(case, outdir):
    from .analysis import StructureClass, certify_supersolution

    cdir = _case_dir(outdir, case.label)
    n = case.get("n")
    candidate = case.get("barrier")
    c_l = case.get("c_l")
    op = StructureClass(n=n, c_l=c_l)
    if candidate.startswith("cone-"):
        from .spectral import first_eigenpair

        eig = first_eigenpair(_read_profile(cdir))
        cert = certify_supersolution(op, candidate, eigen=eig)
    else:
        cert = certify_supersolution(op, candidate, n=n)
    write_csv(
        os.path.join(cdir, "certificates.csv"),
        ["barrier", "region", "margin", "nodes", "passed", "constants"],
        [(cert.label, cert.region, cert.margin, cert.node_count, cert.passed,
          ";".join(f"{k}={fmt(v)}" for k, v in sorted(cert.constants.items())))],
    )
    status = "PASS" if cert.passed else "FAIL"
    return cert.passed, f"certify: {status} margin={cert.margin:.3e}"


def _read_mu1(cdir, n):
    """mu1 of the eigen stage, from the metadata of eigen.csv.

    All that `verify_theorem` reads of an eigenpair: the regime follows
    from mu1 (`spectral.decay_regime`), and the JSON line keeps mu1 to the
    last bit, so the eigenpair is not solved again.  lambda1 > 0, so mu1 is
    finite and above (n-2)/2.
    """
    def mu1(value):
        value = float(value)
        if not 0.5 * (n - 2) < value < math.inf:      # NaN fails it too
            raise ValueError(f"need a finite mu1 > (n-2)/2 = {0.5 * (n - 2):g}")
        return value

    meta, _, _ = read_csv(os.path.join(cdir, "eigen.csv"), {"mu1": mu1})
    return SimpleNamespace(mu1=meta["mu1"])


def run_verify(case, outdir):
    from .analysis import verify_theorem

    cdir = _case_dir(outdir, case.label)
    meta, _ = _read_ratio(cdir)
    n, predicted = case.get("n"), case.get("predicted")
    row = verify_theorem(
        case.label, n, meta["alpha_hat"], predicted=predicted,
        eigen=_read_mu1(cdir, n) if predicted is None else None,
        slack=case.get("slack"), sharp_at=case.get("sharp_at"))
    write_csv(
        os.path.join(cdir, "verify.csv"),
        ["case", "n", "predicted_form", "predicted", "measured", "passed"],
        [(row.case, row.n, row.predicted_form, row.predicted, row.measured,
          row.passed)],
    )
    status = "PASS" if row.passed else "FAIL"
    return row.passed, (f"verify: predicted={row.predicted:.3g} "
                        f"measured={row.measured:.4f} {status}")


def run_report(cases, outdir):
    tables = {"verify.csv": [], "certificates.csv": []}
    failures = 0
    for label in sorted(cases):
        cdir = os.path.join(outdir, label)
        for name, rows in tables.items():
            path = os.path.join(cdir, name)
            if os.path.exists(path):
                _, header, body = read_csv(path, columns=("passed",))
                rows.extend(body)
                passed = header.index("passed")
                failures += sum(row[passed] != "true" for row in body)
        ratio_path = os.path.join(cdir, "ratio.csv")
        if os.path.exists(ratio_path):
            meta, pts = _read_ratio(cdir)
            if len(pts):
                try:
                    write_loglog_svg(
                        os.path.join(cdir, "ratio.svg"), label, pts[:, 0],
                        pts[:, 1], title=f"{label}: cone-approximation decay",
                        fitted=(meta["alpha_hat"], meta["c_hat"]),
                    )
                except DomainError as exc:
                    raise MissingArtifactError(
                        f"cannot plot artifact {ratio_path}: {exc}") from None
    write_markdown_table(
        os.path.join(outdir, "report.md"),
        "Verification summary",
        ["case", "n", "predicted form", "predicted", "measured", "passed"],
        tables["verify.csv"],
        preamble=(
            "One row per theorem case: the predicted decay exponent of the "
            "cone-approximation error against the measured annulus fit. "
            "Certificates follow."
        ),
    )
    if tables["certificates.csv"]:
        write_markdown_table(
            os.path.join(outdir, "certificates.md"),
            "Barrier certificates",
            ["barrier", "region", "margin", "nodes", "passed", "constants"],
            tables["certificates.csv"],
        )
    return failures


STAGE_RUNNERS = {
    "profile": run_profile,
    "eigen": run_eigen,
    "solve": run_solve,
    "certify": run_certify,
    "verify": run_verify,
}


def _run_stage_for_case(args):
    """Run one case; returns (label, exit status, message).

    A solver failure ends only its own case.  A missing artifact or a bad
    config entry still ends the stage: the fix lies upstream of it.
    """
    stage, case, outdir = args
    try:
        passed, message = STAGE_RUNNERS[stage](case, outdir)
    except MissingArtifactError:
        raise
    except ConfigError as exc:
        # a library check does not know the case; name it as Case.get does
        prefix = f"case {case.label}: "
        if str(exc).startswith(prefix):
            raise
        raise ConfigError(prefix + str(exc)) from exc
    except BlowlabError as exc:     # the remaining library errors come from solvers
        return case.label, EXIT_SOLVER_FAILED, (
            f"solver failure: {type(exc).__name__}: case {case.label}: {exc}")
    return case.label, EXIT_OK if passed else EXIT_FAILED_CHECK, message


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="blowlab",
        description="boundary blow-up verification pipeline",
    )
    parser.add_argument("stage", choices=STAGES)
    parser.add_argument("--config", required=True)
    parser.add_argument("--case", default=None, help="run a single case label")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default=None, help="override the output dir")
    args = parser.parse_args(argv)

    try:
        suite, cases = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    outdir = args.out or suite.get("output")
    if not outdir:
        print("config error: no output directory", file=sys.stderr)
        return EXIT_BAD_CONFIG
    os.makedirs(outdir, exist_ok=True)

    if args.case is not None:
        if args.case not in cases:
            print(f"unknown case label {args.case!r}", file=sys.stderr)
            return EXIT_UNKNOWN_CASE
        cases = {args.case: cases[args.case]}

    if args.stage == "report":
        try:
            failures = run_report(cases, outdir)
        except BlowlabError as exc:
            print(f"report failed: {exc}", file=sys.stderr)
            return EXIT_MISSING_ARTIFACT
        print(f"report written to {outdir} ({failures} failing rows)",
              file=sys.stderr)
        return EXIT_FAILED_CHECK if failures else EXIT_OK

    todo = [(args.stage, case, outdir) for label, case in sorted(cases.items())
            if args.stage in case.stages]
    if not todo:
        print(f"no cases request stage {args.stage!r}", file=sys.stderr)
        return EXIT_OK

    try:
        if args.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                results = list(pool.map(_run_stage_for_case, todo))
        else:
            results = [_run_stage_for_case(item) for item in todo]
    except MissingArtifactError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    for label, status, message in results:
        if status == EXIT_SOLVER_FAILED:
            print(message, file=sys.stderr)
        else:
            print(f"[{label}] {message}", file=sys.stderr)
    # a case's status is EXIT_OK, EXIT_FAILED_CHECK or EXIT_SOLVER_FAILED,
    # in rising severity
    return max(status for _, status, _ in results)


if __name__ == "__main__":
    sys.exit(main())
