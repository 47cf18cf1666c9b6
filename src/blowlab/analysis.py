"""Barrier certification, cone comparison, rate fitting, theorem reports.

Barriers are certified pointwise: the defining differential inequality
L w <= n(n-2)/4 w^p is evaluated on a sample grid and the worst-case sign
margin recorded; free constants are searched over logarithmic grids until
the margin turns positive, so every PASS carries concrete constants.
Against a structure class (only C_L known) the perturbation terms enter
through their worst case

    |(L - Delta) w| <= C_L ( r^2 max|d2 w| + r sum|d w| + |w| ).

Cone-corrected barriers use the exact angular identities

    Delta(u_V r^2)        = n(n-2)/4 u_V^p r^2 + 4 u_V,
    Delta(r^a phi_1)      = r^(a-2) [a(a+n-2) - lambda_1 + V] phi_1,
    Delta(r^(mu-m) phi_1) = V r^(mu-m-2) phi_1,

with V = n(n+2)/(4 rho^2), so no numerical differentiation enters the
certificates.

Every barrier is a table: per radius, closed-form terms w_k on a sample
grid and one row of coefficients c per trial, w = sum_k c_k w_k; one
margin formula and one search serve them all.  The search keeps a witness,
the lowest node of the last failed full margin; failed trials tend to fail
at the same node, so the trials left are read there as one array, and only
one positive there gets its full margin.  If none passes, it runs again
over every full margin: each certificate is the exhaustive search's.

Ratio fields |u/u_V - 1| are measured inside the localization window and
their decay fitted over dyadic annuli; a solve with the Euclidean
operator on the identical mesh serves as the discrete cone reference for
perturbed-metric rate fits, cancelling the shared truncation state.
Without one, u_V is the vertex-cone profile that `compare_to_cone`
solves on the field's angular nodes, matched to its truncation state;
no other path pays for that profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "StructureClass",
    "BarrierCertificate",
    "RatioField",
    "RateFit",
    "certify_supersolution",
    "compare_to_cone",
    "fit_rate",
    "verify_theorem",
    "TheoremRow",
]


@dataclass(frozen=True)
class StructureClass:
    """Worst case over operators with the given structure constant."""

    n: int
    c_l: float

    def __post_init__(self):
        if self.n < 3:
            raise ConfigError("dimension must satisfy n >= 3")
        if not 0.0 <= self.c_l < np.inf:     # NaN fails it too
            raise ConfigError(f"structure constant must be finite and "
                              f"nonnegative, got {self.c_l}")


@dataclass
class BarrierCertificate:
    label: str
    region: str
    margin: float
    node_count: int
    passed: bool
    constants: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# closed-form radial ingredients


def _ball_profile(n, R, r):
    """u_R and its radial derivatives on |x| = r."""
    m = 0.5 * (n - 2.0)
    s = R**2 - r**2
    u = (2.0 * R / s) ** m
    du = u * m * 2.0 * r / s
    d2u = u * (2.0 * m / s + 4.0 * m * (m + 1.0) * r**2 / s**2)
    lap = 0.25 * n * (n - 2.0) * u ** ((n + 2.0) / (n - 2.0))
    return u, du, d2u, lap


def _class_of(op, n):
    if isinstance(op, StructureClass):
        return op
    return StructureClass(n=n, c_l=op.c_l)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class _Grid:
    """One radius of a barrier search: its trials are the rows c of
    `coefficients`, in search order, each the barrier w = sum_k c_k w_k.
    `basis` holds the terms w_k, then Delta w_k and, for a radial barrier,
    w_k' and w_k'', each a tuple over k of arrays of the full node shape,
    as are `r` and `rho_w`.  `names` names the constant of each column.
    """

    label: str
    region: str
    cls: StructureClass
    basis: tuple
    coefficients: np.ndarray
    names: tuple
    constants: dict             # the grid's own constants
    r: np.ndarray               # |x| at the nodes
    rho_w: np.ndarray = None    # cone barriers: rho^-2 + 1 at the nodes,
    a: float = None             # the profile's derivative constant
    c_t: float = None           # and a map T's straightening constant


def _margin(grid, rows, index):
    """The margins n(n-2)/4 w^p - Delta w - penalty of the trials `rows` of
    `grid` on the basic `index` of its nodes, and which trials have one (w
    is tested positive before any power is taken).  The penalty is the
    class's worst case, through a radial barrier's derivatives or a cone
    barrier's derivative constant A, plus a T-composed one's composition
    error.  The coefficients broadcast as (trials, 1, ...), so a trial's
    margin at a node is the same to the last bit alone or in any batch.
    """
    c = grid.coefficients[rows]
    c = c.reshape(c.shape + (1,) * np.ndim(grid.r))
    sums = []
    for terms in grid.basis:        # sum_k c_k x_k, in basis order
        sums.append(c[:, 0] * terms[0][index])
        for k in range(1, len(terms)):
            sums[-1] += c[:, k] * terms[k][index]
    has = ~np.any(sums[0] <= 0, axis=tuple(range(1, sums[0].ndim)))
    if not has.all():
        sums = [x[has] for x in sums]
    w, lap, *derivatives = sums
    n, c_l, r = grid.cls.n, grid.cls.c_l, grid.r[index]
    out = 0.25 * n * (n - 2.0) * w ** ((n + 2.0) / (n - 2.0)) - lap
    if derivatives:
        dw, d2w = derivatives
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(r > 0, np.abs(dw) / r, np.abs(d2w))
        hess_max = np.maximum(np.abs(d2w), slope)
        with np.errstate(over="ignore"):    # inf: the trial's margin fails
            return has, out - c_l * (r**2 * hess_max + r * np.abs(dw)
                                     + np.abs(w))
    if c_l > 0:     # A inflated for the correction terms
        out = out - c_l * 4.0 * grid.a * np.abs(w) * grid.rho_w[index]
    if grid.c_t is not None:
        out = out - grid.c_t * 2.0 * grid.a * np.abs(w) * grid.rho_w[index] / r
    return has, out


def _search(grids):
    """The first passing certificate of the trials of `grids()` (a `_Grid`
    per radius), in search order; if none passes, the first one with the
    best margin.  The witness is the lowest node of the last trial whose
    full margin was not positive (a NaN node first), as one-element slices,
    so that it is read through the same array arithmetic as the full margin
    (a NumPy scalar's `**` can round differently).  The trials of a grid
    not yet evaluated are read there as one array; one not positive there
    cannot pass and is dropped, and the next survivor gets its full margin,
    which passes or gives the next witness.  If none passes, the loop runs
    again without a witness, over every full margin, so a FAIL is the
    exhaustive search's best.
    """
    for exhaustive in (False, True):
        witness = best = None
        for grid in grids():
            rest = np.arange(len(grid.coefficients))   # not yet evaluated
            while rest.size:
                if witness is not None:
                    has, at = _margin(grid, rest, witness)
                    rest = rest[has][at.ravel() > 0]    # one node each
                    if not rest.size:
                        break
                k, rest = rest[0], rest[1:]
                has, full = _margin(grid, [k], slice(None))
                if not has[0]:
                    continue
                worst = float(np.min(full))
                if worst > 0.0 or best is None or worst > best.margin:
                    named = {key: c for key, c in
                             zip(grid.names, grid.coefficients[k]) if key}
                    best = BarrierCertificate(
                        grid.label, grid.region, worst, full.size, worst > 0.0,
                        {**named, **grid.constants})
                    if best.passed:
                        return best
                if not exhaustive:
                    witness = tuple(slice(i, i + 1) for i in np.unravel_index(
                        np.argmin(full[0]), full[0].shape))
    return best


def _certify_double_ball(op, n, radii=None, samples=512):
    """2 u_R supersolution with an explicitly found largest radius R*."""
    cls = _class_of(op, n)
    if radii is None:
        radii = np.geomspace(1.0, 2.0**-12, 25)

    def grids():
        for R in radii:
            r = np.linspace(0.0, R * (1.0 - 1e-6), samples)
            u, du, d2u, lap = _ball_profile(n, R, r)
            yield _Grid("double-ball", f"B_{R:g}", cls,
                        ((u,), (lap,), (du,), (d2u,)), np.array([[2.0]]),
                        (None,), {"R_star": R, "C_L": cls.c_l}, r)

    return _search(grids)


def _certify_graded_sum(op, n):
    """w = u* + A u*^beta + B u* r^2 on the unit ball (u* = u_1 exactly)."""
    cls = _class_of(op, n)
    beta = (n - 6.0) / (n - 2.0) if n >= 6 else 0.0
    a_grid = np.geomspace(0.25, 64.0, 9)
    b_grid = np.geomspace(0.25, 256.0, 11)
    r_grid = np.geomspace(0.5, 2.0**-6, 15)
    # the rows of the Cartesian product, in itertools.product's order
    A, B = (x.ravel() for x in np.meshgrid(a_grid, b_grid, indexing="ij"))
    coefficients = np.column_stack([np.ones_like(A), A, B])

    def grids():
        for r0 in r_grid:
            r = np.linspace(0.0, min(r0, 1 - 1e-6), 512)
            u, du, d2u, lap_u = _ball_profile(n, 1.0, r)
            # calculus of the three graded terms, all radial
            ub = u**beta
            dub = beta * u ** (beta - 1.0) * du
            d2ub = beta * u ** (beta - 1.0) * d2u + beta * (beta - 1.0) * u ** (
                beta - 2.0) * du**2
            lap_ub = d2ub + (n - 1.0) * np.where(
                r > 0, dub / np.maximum(r, 1e-300), d2ub)
            ur2 = u * r**2
            dur2 = du * r**2 + 2.0 * r * u
            d2ur2 = d2u * r**2 + 4.0 * r * du + 2.0 * u
            lap_ur2 = lap_u * r**2 + 4.0 * r * du + 2.0 * n * u
            yield _Grid("graded-sum", f"B_{r0:g} (ball R=1)", cls,
                        ((u, ub, ur2), (lap_u, lap_ub, lap_ur2),
                         (du, dub, dur2), (d2u, d2ub, d2ur2)),
                        coefficients, (None, "A", "B"),
                        {"beta": beta, "r0": r0, "C_L": cls.c_l}, r)

    return _search(grids)


def _cone_barrier_ingredients(eigen, r, case):
    """Delta of the correction terms via the angular identities."""
    prof = eigen.profile
    n = prof.n
    m = 0.5 * (n - 2.0)
    mask = prof.interior_mask()
    g = prof.g[mask][1:]           # drop the pole node: phi row there is BC
    rho = prof.rho[mask][1:]
    phi = eigen.phi[mask][1:]
    lam = eigen.lambda1
    mu = eigen.mu1
    V = 0.25 * n * (n + 2.0) / rho**2
    alpha = 0.5 * (6.0 - n)

    R = r[:, None]      # radii down the rows, the angular nodes across

    u_v = R ** (-m) * g
    lap_uv = 0.25 * n * (n - 2.0) * u_v ** ((n + 2.0) / (n - 2.0))
    term0 = u_v * R**2
    lap0 = lap_uv * R**2 + 4.0 * u_v
    term1 = R**alpha
    lap1 = alpha * (alpha + n - 2.0) * R ** (alpha - 2.0)
    if case == "quadratic":
        term2 = R**alpha * phi
        lap2 = R ** (alpha - 2.0) * (alpha * (alpha + n - 2.0) - lam + V) * phi
    elif case == "log":
        term2 = -(R**alpha) * np.log(R) * phi
        lap2 = -(np.log(R) * R ** (alpha - 2.0)
                 * (alpha * (alpha + n - 2.0) - lam + V) * phi
                 + (2.0 * alpha + n - 2.0) * R ** (alpha - 2.0) * phi)
    elif case == "slow":
        a2 = mu - m
        term2 = (R**a2 - R**alpha) * phi
        lap2 = (V * R ** (a2 - 2.0)
                - R ** (alpha - 2.0) * (alpha * (alpha + n - 2.0) - lam + V)) * phi
    else:
        raise ConfigError(f"unknown cone barrier case {case!r}")
    return u_v, lap_uv, term0, lap0, term1, lap1, term2, lap2, rho


def _certify_cone_corrected(op, eigen, case, samples=48,
                            a0_grid=None, k_grid=None, r_grid=None, c_t=None):
    """u_V + A0 u_V r^2 + A1 r^((6-n)/2) + A2 (case term), vertex region.

    `c_t`, the straightening constant of a map T, subtracts the composition
    error bound C_T 2 A |w| (rho^-2 + 1) / r from the margin and is
    recorded as the constant C_T (the T-composed variant).
    """
    n = eigen.n
    cls = _class_of(op, n)
    a0_grid = a0_grid if a0_grid is not None else np.geomspace(0.5, 512.0, 11)
    k_grid = k_grid if k_grid is not None else np.geomspace(1.0, 64.0, 7)
    r_grid = r_grid if r_grid is not None else np.geomspace(0.25, 2.0**-8, 12)
    A0, k1, k2 = (x.ravel() for x in np.meshgrid(
        a0_grid, k_grid, k_grid, indexing="ij"))
    coefficients = np.column_stack([np.ones_like(A0), A0, k1 * A0, k2 * A0])
    # measured derivative constant of u_V: the paper's A-bound
    # r rho |grad u_V| <= A u_V with A from the profile
    A_meas = _profile_derivative_constant(eigen.profile)
    label, constants = f"cone-{case}", {"C_L": cls.c_l}
    if c_t is not None:
        label, constants["C_T"] = f"t-composed-{case}", c_t

    def grids():
        for r0 in r_grid:
            r = np.geomspace(r0 * 2.0**-6, r0, samples)
            *terms, rho = _cone_barrier_ingredients(eigen, r, case)
            # full-shape views (no copies): any basic index of the grid
            # reads the same nodes of every ingredient
            shape = (samples, rho.size)
            *terms, r_w, rho_w = (np.broadcast_to(x, shape) for x in
                                  (*terms, r[:, None], rho**-2 + 1.0))
            yield _Grid(label, f"V cap B_{r0:g}", cls,
                        (terms[::2], terms[1::2]), coefficients,
                        (None, "A0", "A1", "A2"), {"r0": r0, **constants},
                        r_w, rho_w, A_meas, c_t)

    return _search(grids)


def _profile_derivative_constant(profile):
    """Discrete version of the bound u_V + r rho |grad u_V| <= A u_V."""
    rho = profile.rho
    g = profile.g
    dg = profile.dg
    mask = profile.interior_mask()
    m = profile.exponent
    # radial part: r|d_r u_V| = m u_V; angular: rho |dg| / g per unit u_V
    ratio = 1.0 + m * rho[mask] + rho[mask] * np.abs(dg[mask]) / g[mask]
    return float(np.max(ratio))


def _certify_t_composed(op, eigen, tmap):
    """Quadratic cone barrier composed with the straightening map.

    The straightening error costs C_T (|grad w| + |x||hess w|), which the
    profile's derivative constant turns into C_T A w (rho^-2 + 1) / r per
    node; the constant search reruns with that bound subtracted, so the
    found constants absorb the composition penalty.
    """
    from .geometry import _norm, apply_T

    # 24 unit directions, each at 0.1, 0.3 and 0.6 of r_T / 2
    v = np.random.default_rng(17).standard_normal((24, tmap.n))
    v /= _norm(v)[:, None]
    scale = np.array([0.1, 0.3, 0.6]) * 0.5 * tmap.r_T
    points = (scale[None, :, None] * v[:, None, :]).reshape(-1, tmap.n)
    worst_ct = float(np.max(_norm(apply_T(tmap, points) - points)
                            / _norm(points) ** 2))
    r_grid = np.geomspace(0.5 * tmap.r_T, 2.0**-8, 10)
    return _certify_cone_corrected(op, eigen, "quadratic", c_t=worst_ct,
                                   r_grid=r_grid)


def certify_supersolution(op, candidate, n=None, eigen=None, tmap=None, **kw):
    """Certify one of the registered barrier forms.

    candidate: "double-ball" (2 u_R), "graded-sum" (u* + A u*^beta + B u* r^2),
    "cone-quadratic" / "cone-log" / "cone-slow" (vertex corrections in the
    three decay regimes, needs `eigen`), or "t-composed" (needs `tmap`).
    Returns a certificate; a failed search is a FAIL certificate with the
    best margin found, not an exception.
    """
    if candidate in ("double-ball", "graded-sum"):
        if n is None:
            raise ConfigError(f"{candidate} candidate needs the dimension n")
        return (_certify_double_ball if candidate == "double-ball"
                else _certify_graded_sum)(op, n, **kw)
    if candidate.startswith("cone-"):
        if eigen is None:
            raise ConfigError("cone barriers need the first eigenpair")
        case = candidate.split("-", 1)[1]
        if case not in ("quadratic", "log", "slow"):
            raise ConfigError(f"unknown barrier candidate {candidate!r}")
        return _certify_cone_corrected(op, eigen, case, **kw)
    if candidate == "t-composed":
        if eigen is None or tmap is None:
            raise ConfigError("t-composed barriers need eigen data and the map")
        return _certify_t_composed(op, eigen, tmap, **kw)
    raise ConfigError(f"unknown barrier candidate {candidate!r}")


# ---------------------------------------------------------------------------
# ratio fields and rate fits


@dataclass
class RatioField:
    """|u/u_ref - 1| with the radii the decay is fitted against."""

    values: np.ndarray
    radii: np.ndarray
    reference: str

    def __post_init__(self):
        if self.values.shape != self.radii.shape:
            raise ConfigError("values and radii must align")


def _matched_profile(fld):
    """Vertex-cone profile on the field's eta nodes, at its truncation state.

    The profile is solved up to the truncation an interior column actually
    sees: wall data M r^m varies across columns, and matching the
    mid-window state keeps the comparison bias at the slow-drift level.
    """
    from .newton import GROWTH
    from .profiles import solve_profile

    dom = fld.domain
    r_geo = np.sqrt(4.0 * dom.r_min * dom.r_max / 4.0)
    tau = fld.truncation * r_geo ** (0.5 * (fld.n - 2.0))
    schedule = [100.0]
    while schedule[-1] < tau:
        schedule.append(schedule[-1] * GROWTH)
    return solve_profile(dom.section(), fld.n, nodes=fld.eta * dom.aperture,
                         schedule=schedule).g


def compare_to_cone(fld, baseline=None):
    """Cone-approximation error |u(x)/u_V(Tx) - 1| inside the window.

    Reference resolution order:
      * `baseline` SolutionField (same mesh, Euclidean operator): the
        discrete cone solution; shared truncation structure cancels.
      * ball fields: the half-space form through the distance, u_V(Tx) =
        d(x)^(-(n-2)/2) (the k = 1 tangent-plane reference; T enters
        through the signed distance, which the mesh carries).
      * otherwise the vertex-cone profile, solved here on the field's eta
        nodes up to the field's truncation state.
    """
    # a field exists only once `blowlab.solver` is loaded
    from .solver import BALL

    m = 0.5 * (fld.n - 2.0)
    if baseline is not None:
        if baseline.u.shape != fld.u.shape:
            raise ConfigError("baseline must share the mesh")
        window = fld.interior_window()
        vals = np.abs(fld.u / baseline.u - 1.0)
        return RatioField(vals[window], fld.radii()[window], "discrete-cone")
    if fld.domain.reduction == BALL:
        window = fld.interior_window() & (fld.d >= fld.d.max() * 1e-4)
        vals = np.abs(fld.d**m * fld.u - 1.0)
        return RatioField(vals[window], fld.d[window], "halfspace-distance")
    window = fld.interior_window()
    ref = fld.r[:, None] ** (-m) * _matched_profile(fld)[None, :]
    vals = np.abs(fld.u / ref - 1.0)
    return RatioField(vals[window], fld.radii()[window], "matched-profile")


@dataclass
class RateFit:
    alpha_hat: float
    c_hat: float
    r_squared: float
    window: tuple
    table: list                  # (r_mid, max_ratio) per annulus
    model: str = "power"
    residual: float = 0.0
    log_model_residual: float = field(default=None, init=False)


def check_fit_window(r_lo, r_hi):
    """Raise ConfigError unless 0 < r_lo < r_hi < inf."""
    # one chained test, so that NaN fails it
    if not 0.0 < r_lo < r_hi < np.inf:
        raise ConfigError(f"rate-fit window must satisfy 0 < fit_lo < fit_hi "
                          f"< inf, got [{r_lo}, {r_hi}]")


def fit_rate(ratio, r_lo, r_hi, compare_log_model=False):
    """LSQ fit of log(max over dyadic annulus) against log radius."""
    check_fit_window(r_lo, r_hi)
    edges = []
    e = r_lo
    while e < r_hi * (1.0 + 1e-12):
        edges.append(e)
        e *= 2.0
    if len(edges) < 5:
        raise ConfigError("need at least 4 dyadic annuli in the fit window")
    table = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (ratio.radii >= lo) & (ratio.radii < hi)
        if not np.any(sel):
            raise DomainError(f"empty annulus [{lo:g}, {hi:g})")
        table.append((float(np.sqrt(lo * hi)), float(np.max(ratio.values[sel]))))
    r_mid = np.array([t[0] for t in table])
    v = np.array([t[1] for t in table])
    if np.any(v <= 0):
        raise DomainError("ratio vanished on an annulus; nothing to fit")
    alpha, logc = np.polyfit(np.log(r_mid), np.log(v), 1)
    pred = alpha * np.log(r_mid) + logc
    ss_res = float(np.sum((np.log(v) - pred) ** 2))
    ss_tot = float(np.sum((np.log(v) - np.mean(np.log(v))) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    fit = RateFit(
        alpha_hat=float(alpha),
        c_hat=float(np.exp(logc)),
        r_squared=r2,
        window=(r_lo, r_hi),
        table=table,
        residual=ss_res,
    )
    if compare_log_model:
        basis = np.log(r_mid**2 * np.abs(np.log(r_mid)))
        logc2 = float(np.mean(np.log(v) - basis))
        res_log = float(np.sum((np.log(v) - basis - logc2) ** 2))
        fit.log_model_residual = res_log
        if res_log < ss_res:
            fit.model = "power-log"
            fit.c_hat = float(np.exp(logc2))
    return fit


# ---------------------------------------------------------------------------
# theorem verification rows


@dataclass
class TheoremRow:
    case: str
    n: int
    predicted: float
    predicted_form: str
    measured: float
    passed: bool
    sharp_check: bool = None


def verify_theorem(case, n, measured, predicted=None, eigen=None,
                   slack=0.2, sharp_at=None):
    """Assemble one verification row; PASS iff measured >= predicted - slack.

    `measured` is the fitted exponent (`RateFit.alpha_hat`); `predicted`
    overrides the spectral regime of `eigen` (for statements with a fixed
    exponent); `sharp_at` additionally asserts measured <= that value, used
    where a rate is claimed not improvable.
    """
    if predicted is None:
        if eigen is None:
            raise ConfigError("need either a predicted exponent or eigen data")
        from .spectral import regime_exponent

        form = regime_exponent(eigen)
        predicted = form.exponent
        predicted_form = form.description
    else:
        predicted_form = f"C|x|^{predicted:g}"
    passed = measured >= predicted - slack
    sharp = None
    if sharp_at is not None:
        sharp = measured <= sharp_at
        passed = passed and sharp
    return TheoremRow(
        case=case,
        n=n,
        predicted=float(predicted),
        predicted_form=predicted_form,
        measured=float(measured),
        passed=bool(passed),
        sharp_check=sharp,
    )
