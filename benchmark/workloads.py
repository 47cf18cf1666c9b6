"""Seeded inputs of the three workloads.

Everything here is plain data drawn from `random.Random(seed)`, so the
orchestrator (stdlib only) and the worker agree on the inputs of a seed
without passing arrays around.  The program only ever receives the
generated inputs, never the seed.
"""

import math
import random

WORKLOADS = ("cone-n6-pair", "sweep-1d", "pipeline-n3")

# -- cone-n6-pair -----------------------------------------------------------
# A mesh much coarser than configs/cases.cfg (nt_per_octave 24, n_eta 192),
# so that about ten pairs fit in one run; the truncation schedule still
# climbs through 27 levels per solve, and sparse LU is still the largest
# layer of the pair.
CONE_MESH = {
    "n": 6,
    "r_min": 2.0**-9,
    "r_max": 1.0,
    "nt_per_octave": 4,
    "n_eta": 32,
    "eta_grading": 2.0,
    "schedule": (1e2,),
    "newton_tol": 1e-10,
    "interior_tol": 1e-8,
    "bracket": (0.5, 2.0),
    "bracket_tol": 1.0,
    "fit_lo": 2.0**-7,
    "fit_hi": 0.25,
}


def cone_inputs(seed):
    """q in [0.25, 0.35] and an aperture within 3% of pi/3."""
    rng = random.Random(f"cone-n6-pair/{seed}")
    q = round(rng.uniform(0.25, 0.35), 6)
    aperture = (math.pi / 3.0) * (1.0 + rng.uniform(-0.03, 0.03))
    return {"q": q, "aperture": aperture, **CONE_MESH}


# -- sweep-1d ---------------------------------------------------------------
SWEEP_NODES = 1600
SWEEP_GRADING = 2.0
SWEEP_DIMS = (3, 4, 6)


def sweep_inputs(seed):
    """Per dimension: the half-sphere, four nested caps, three cap
    complements and three bands; then the certificate searches.

    The seed moves every domain edge and structure constant by up to 2%
    around fixed nominal values, so that each seed asks for the same
    amount of work (the same escalation levels) on different inputs.
    """
    rng = random.Random(f"sweep-1d/{seed}")

    def jitter(x):
        return x * (1.0 + rng.uniform(-0.02, 0.02))

    domains = []
    for n in SWEEP_DIMS:
        domains.append({"kind": "half-sphere", "n": n, "lo": 0.0,
                        "hi": math.pi / 2})
        for a in (0.7, 0.9, 1.1, 1.3):
            domains.append({"kind": "cap", "n": n, "lo": 0.0, "hi": jitter(a)})
        for r in (0.3, 0.4, 0.5):
            domains.append({"kind": "cap-complement", "n": n,
                            "lo": jitter(r), "hi": math.pi})
        for lo, width in ((0.3, 0.6), (0.5, 0.9), (0.8, 1.2)):
            lo = jitter(lo)
            domains.append({"kind": "band", "n": n, "lo": lo,
                            "hi": lo + jitter(width)})
    certificates = (
        [{"kind": "double-ball", "n": 3, "c_l": jitter(c)}
         for c in (0.25, 1.0, 2.0)]
        + [{"kind": "graded-sum", "n": n, "c_l": jitter(1.0)} for n in (3, 6)]
        # cone-corrected searches on the n = 3 half-sphere and the widest
        # n = 3 cap; the t-composed search straightens the unit sphere
        + [{"kind": "cone-quadratic", "domain": 0},
           {"kind": "cone-quadratic", "domain": 4},
           {"kind": "t-composed", "domain": 0, "sphere_radius": 1.0}]
    )
    return {"domains": domains, "certificates": certificates,
            "nodes": SWEEP_NODES, "grading": SWEEP_GRADING}


# -- pipeline-n3 ------------------------------------------------------------
STAGES = ("profile", "eigen", "solve", "certify", "verify", "report")

_PROFILE_KEYS = """geometry = polar-sphere
theta_lo = 0.0
theta_hi = {hi!r}
bc_lo = regular-pole
bc_hi = blowup
n = {n}
nodes = 3200
grading = {grading}
schedule = 1e2
interior_tol = 1e-8
"""


def pipeline_config(seed, output):
    """The config text of the pipeline run.

    The seed moves the cap apertures of the profile/eigen cases and the
    structure constants of the class certificates by up to 2% around
    nominal values.  The two 2-D cases (ball-n3 and the n = 3
    conformal-quadratic meridian case) are fixed: their verify rows are
    what `report.md` tabulates.
    """
    rng = random.Random(f"pipeline-n3/{seed}")

    def jitter(x):
        return x * (1.0 + rng.uniform(-0.02, 0.02))

    parts = [f"[suite]\noutput = {output}\n"]

    def case(label, stages, body):
        parts.append(f"[case:{label}]\nstages = {stages}\n{body}")

    for n in (3, 6):
        case(f"half-sphere-n{n}", "profile eigen",
             _PROFILE_KEYS.format(hi=math.pi / 2, n=n, grading=2.5))
    for n in (3, 6):
        hi = jitter(math.pi / 3.0)
        case(f"cap-n{n}", "profile eigen",
             _PROFILE_KEYS.format(hi=hi, n=n, grading=2.0))
    case("ball-n3", "solve verify", """reduction = ball
n = 3
operator = euclidean
r_max = 1.0
n_eta = 200
eta_grading = 2.0
schedule = 1e2 1e3 1e4
newton_tol = 1e-10
interior_tol = 1e-8
bracket_low = 0.5
bracket_high = 2.0
bracket_tol = 1.0
fit_lo = 0.001953125
fit_hi = 0.25
predicted = 1.0
slack = 0.1
sharp_at = 1.3
""")
    case("cone-n3-q03", "profile eigen solve verify",
         _PROFILE_KEYS.format(hi=math.pi / 3, n=3, grading=2.0) + """reduction = meridian
aperture = 1.0471975511965976
operator = conformal-quadratic
q = 0.3
r_min = 0.000244140625
r_max = 1.0
nt_per_octave = 6
n_eta = 48
eta_grading = 2.0
newton_tol = 1e-10
bracket_low = 0.5
bracket_high = 2.0
bracket_tol = 1.0
fit_lo = 0.0078125
fit_hi = 0.25
slack = 0.3
""")
    for k, c_l in enumerate((0.25, 1.0, 2.0)):
        case(f"barrier-double-ball-{k}", "certify",
             f"n = 3\nbarrier = double-ball\nc_l = {jitter(c_l)!r}\n")
    for n in (3, 6):
        case(f"barrier-graded-n{n}", "certify",
             f"n = {n}\nbarrier = graded-sum\nc_l = {jitter(1.0)!r}\n")
    case("barrier-cone-case1", "profile certify",
         _PROFILE_KEYS.format(hi=math.pi / 2, n=3, grading=2.0).replace(
             "nodes = 3200", "nodes = 1600")
         + "barrier = cone-quadratic\nc_l = 0.0\n")
    return "\n".join(parts)
