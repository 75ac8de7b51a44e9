"""Quantitative bound checks and the warp-forcing deformation audit.

Every check measures a left-hand side and a right-hand side on a grid and
emits a BoundReport.  A report passes iff lhs < rhs (strict); the degenerate
lhs = rhs = 0 case passes with the `marginal` flag set.  Each lhs carries a
refinement error estimate |v_N - v_{N/2}| / 3 (plus a proportional proxy when
derivatives come from finite differences); `marginal` is set whenever the
margin is below three times that estimate, so grid under-resolution is always
visible in the output.

Check registry (run_check / available_checks):

* "lemma1.1"  blend bound      |lam g1 + (1-lam) g2 - sigma| < 4 (1+|lam|) (eps1+eps2)
* "lemma2.1"  decay constant   |e^{-2t} (sinh(t+t0)/sinh t0)^2 - 1|_{C2(R+)} < 5.2 e^{-2t0}
* "lemma2.2"  warp comparison  |g - g_nu| < 4 |1 - nu| |g|
* "lemma2.3"  sinh rewarping   |g_nu - g| and |g_nu - sigma| bounds, nu the decay profile
* "lemma3.1"  extension bound  |ext(a) - ext(b)| < 4 e^{4(1+xi)} |a - b|
* "lemma3.2"  slice extension  |ext(g_s) - sigma| < 4 e^{4(1+xi)} eps
* "theorem"   warp forcing is radially eta-close on the annulus, eta <= e^{16+6xi}(e^{-2r0}+eps)
* "all"       everything above
"""

from __future__ import annotations

import dataclasses
import json
import time
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from warpforce.model import (
    ChartModel,
    DomainError,
    Field,
    GridSpec,
    RadialMetric,
    WarpforceError,
    _fd_jet,
    ball_domain,
    c2_norm,
    difference,
    hyperbolic_model,
    interval_domain,
    profile_scalar,
)
from warpforce.manifold import (
    CenteredManifold,
    closeness_at,
    perturbed_hyperbolic,
    pullback,
    punctured_hyperbolic,
    radial_chart,
    radial_closeness,
)
from warpforce.warpcore import (
    BumpFunction,
    WarpFunction,
    apply_warp,
    blend,
    radial_slice,
    warp_force,
    warped_extension,
)

__all__ = [
    "BoundReport",
    "TheoremInstance",
    "TheoremConfig",
    "measured_with_error",
    "check_lemma_1_1",
    "check_lemma_2_1",
    "check_lemma_2_2",
    "check_lemma_2_3",
    "check_lemma_3_1",
    "check_lemma_3_2",
    "check_main_theorem",
    "run_theorem_sweep",
    "remark_decay",
    "fd_oracle_check",
    "available_checks",
    "run_check",
    "reports_to_csv_rows",
    "CSV_COLUMNS",
]

_FD_PROXY = 3e-6  # relative second-order FD truncation proxy at default step


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class BoundReport:
    """One measured inequality lhs < rhs with margin bookkeeping."""

    name: str
    params: dict
    lhs: float
    rhs: float
    passed: bool
    margin: float
    error_estimate: float
    marginal: bool
    grid: GridSpec
    derivative_source: str
    notes: str = ""

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def make_report(name: str, params: dict, lhs: float, rhs: float,
                error_estimate: float, grid: GridSpec, source: str,
                notes: str = "") -> BoundReport:
    exact_zero = lhs == 0.0 and rhs == 0.0
    passed = (lhs < rhs) or exact_zero
    margin = rhs - lhs
    marginal = exact_zero or (margin < 3.0 * error_estimate)
    return BoundReport(name=name, params=params, lhs=float(lhs),
                       rhs=float(rhs), passed=bool(passed),
                       margin=float(margin),
                       error_estimate=float(error_estimate),
                       marginal=bool(marginal), grid=grid,
                       derivative_source=source, notes=notes)


def error_report(name: str, params: dict, grid: GridSpec,
                 message: str) -> BoundReport:
    """Entry for a check that could not be evaluated (e.g. chart misfit)."""
    return BoundReport(name=name, params=params, lhs=float("nan"),
                       rhs=float("nan"), passed=False, margin=float("nan"),
                       error_estimate=float("nan"), marginal=False,
                       grid=grid, derivative_source="none",
                       notes=f"error: {message}")


CSV_COLUMNS = ["name", "lhs", "rhs", "margin", "passed", "marginal",
               "error_estimate", "derivative_source", "grid_points",
               "params", "notes"]


def reports_to_csv_rows(reports: Sequence[BoundReport]) -> list:
    rows = []
    for r in reports:
        rows.append({
            "name": r.name,
            "lhs": f"{r.lhs:.12g}",
            "rhs": f"{r.rhs:.12g}",
            "margin": f"{r.margin:.12g}",
            "passed": str(r.passed).lower(),
            "marginal": str(r.marginal).lower(),
            "error_estimate": f"{r.error_estimate:.6g}",
            "derivative_source": r.derivative_source,
            "grid_points": str(r.grid.points_per_axis),
            "params": json.dumps(r.params, sort_keys=True,
                                 separators=(",", ":"), default=float),
            "notes": r.notes,
        })
    return rows


def measured_with_error(f: Field, grid: Optional[GridSpec] = None):
    """C2 norm plus a refinement-probe error estimate."""
    spec = grid or f.grid
    full = c2_norm(f, spec)
    half = c2_norm(f, spec.halved())
    err = abs(full.value - half.value) / 3.0
    if full.derivative_source == "finite-difference":
        err += _FD_PROXY * full.value
    return full, err


# ---------------------------------------------------------------------------
# lemma checkers (instance level)


def check_lemma_2_1(t0: float) -> BoundReport:
    """Decay profile bound on the closed ray window [0, 14 + 2 t0], sampled
    at 4001 points."""
    hi = 14.0 + 2.0 * t0
    window = interval_domain(0.0, hi)
    f = difference(profile_scalar(window, WarpFunction(t0)),
                   _constant_scalar(window, 1.0), name=f"decay[t0={t0:g}]")
    grid = GridSpec(points_per_axis=4001)
    full, err = measured_with_error(f, grid)
    rhs = 5.2 * np.exp(-2.0 * t0)
    return make_report("lemma2.1", {"t0": t0, "window": [0.0, hi]},
                       full.value, rhs, err, grid, full.derivative_source)


def check_lemma_2_2(g: RadialMetric, nu, s: float = 0.0,
                    params: Optional[dict] = None) -> BoundReport:
    """|g - g_nu| < 4 |1 - nu| |g| for a positive warp profile nu."""
    spec = g.grid
    h = apply_warp(g, nu, s=s)
    full, err = measured_with_error(difference(g, h), spec)
    prof = nu.shifted(s) if s != 0.0 and hasattr(nu, "shifted") else nu
    nu_dev, nu_err = measured_with_error(
        difference(_constant_scalar(g.domain, 1.0),
                   profile_scalar(g.domain, prof)), spec)
    g_norm, g_err = measured_with_error(g, spec)
    rhs = 4.0 * nu_dev.value * g_norm.value
    # margin uncertainty: lhs probe plus rhs sensitivity to its factors
    err += 4.0 * (nu_err * g_norm.value + nu_dev.value * g_err)
    p = {"xi": g.chart.xi, "s": s, "nu_dev": nu_dev.value,
         "g_norm": g_norm.value}
    p.update(params or {})
    return make_report("lemma2.2", p, full.value, rhs, err, spec,
                       full.derivative_source)


def check_lemma_2_3(g: RadialMetric, t0: float, s: float = 0.0,
                    params: Optional[dict] = None):
    """Both sinh-rewarping bounds; returns [part-1 report, part-2 report]."""
    spec = g.grid
    xi = g.chart.xi
    nu = WarpFunction(t0)
    h = apply_warp(g, nu, s=s)
    sigma = hyperbolic_model(g.chart)
    eps, eps_err = measured_with_error(difference(g, sigma), spec)
    scale = np.exp(2.0 * (1.0 + xi))
    p = {"xi": xi, "t0": t0, "s": s, "eps": eps.value}
    p.update(params or {})

    full1, err1 = measured_with_error(difference(h, g), spec)
    rhs1 = 21.0 * (eps.value + scale) * np.exp(-2.0 * t0)
    r1 = make_report("lemma2.3(1)", p, full1.value, rhs1,
                     err1 + 21.0 * np.exp(-2.0 * t0) * eps_err,
                     spec, full1.derivative_source)

    full2, err2 = measured_with_error(difference(h, sigma), spec)
    rhs2 = 21.0 * scale * (np.exp(-2.0 * t0) + eps.value)
    r2 = make_report("lemma2.3(2)", p, full2.value, rhs2,
                     err2 + 21.0 * scale * eps_err,
                     spec, full2.derivative_source)
    return [r1, r2]


def check_lemma_3_1(a: Field, b: Field, s: float, chart: ChartModel,
                    params: Optional[dict] = None) -> BoundReport:
    """|ext(a,s) - ext(b,s)| < 4 e^{4(1+xi)} |a - b|_{C2(ball)}."""
    spec = chart.grid
    ea = warped_extension(a, s, chart)
    eb = warped_extension(b, s, chart)
    full, err = measured_with_error(difference(ea, eb), spec)
    eps_ab, eps_err = measured_with_error(difference(a, b), spec)
    factor = 4.0 * np.exp(4.0 * (1.0 + chart.xi))
    rhs = factor * eps_ab.value
    p = {"xi": chart.xi, "s": s, "eps_ab": eps_ab.value}
    p.update(params or {})
    return make_report("lemma3.1", p, full.value, rhs,
                       err + factor * eps_err, spec,
                       full.derivative_source)


def check_lemma_3_2(g: RadialMetric, s: float,
                    params: Optional[dict] = None) -> BoundReport:
    """|ext(g_s, s) - sigma| < 4 e^{4(1+xi)} eps with measured eps."""
    spec = g.grid
    ext = warped_extension(radial_slice(g, s), s, g.chart)
    sigma = hyperbolic_model(g.chart)
    eps, eps_err = measured_with_error(difference(g, sigma), spec)
    full, err = measured_with_error(difference(ext, sigma), spec)
    factor = 4.0 * np.exp(4.0 * (1.0 + g.chart.xi))
    rhs = factor * eps.value
    p = {"xi": g.chart.xi, "s": s, "eps": eps.value}
    p.update(params or {})
    return make_report("lemma3.2", p, full.value, rhs,
                       err + factor * eps_err, spec,
                       full.derivative_source)


def check_lemma_1_1(g1: RadialMetric, g2: RadialMetric, lam: Field,
                    params: Optional[dict] = None) -> BoundReport:
    """|lam g1 + (1-lam) g2 - sigma| < 4 (1 + |lam|) (eps1 + eps2)."""
    spec = g1.grid
    sigma = hyperbolic_model(g1.chart)
    eps1, e1 = measured_with_error(difference(g1, sigma), spec)
    eps2, e2 = measured_with_error(difference(g2, sigma), spec)
    lam_norm = c2_norm(lam, spec).value
    gl = blend(g1, g2, lam)
    full, err = measured_with_error(difference(gl, sigma), spec)
    rhs = 4.0 * (1.0 + lam_norm) * (eps1.value + eps2.value)
    err += 4.0 * (1.0 + lam_norm) * (e1 + e2)
    p = {"xi": g1.chart.xi, "lam_norm": lam_norm,
         "eps1": eps1.value, "eps2": eps2.value}
    p.update(params or {})
    return make_report("lemma1.1", p, full.value, rhs, err, spec,
                       full.derivative_source)


# ---------------------------------------------------------------------------
# seeded synthetic instances (n = 2 charts with analytic jets)


class _SineProfile:
    """c0 + c1 sin(om t + ph); evaluates on arrays and on Jets."""

    def __init__(self, c0, c1, om, ph):
        self.c0, self.c1, self.om, self.ph = map(float, (c0, c1, om, ph))

    def __call__(self, t):
        return self.c0 + self.c1 * np.sin(self.om * t + self.ph)

    def shifted(self, s):
        return _SineProfile(self.c0, self.c1, self.om, self.ph - self.om * s)


def _constant_scalar(domain, c: float) -> Field:
    return Field(domain, lambda p: np.full(len(p), c), analytic=True,
                 name=f"{c:g}")


def random_close_metric(chart: ChartModel, rng,
                        amplitude: float = 0.3) -> RadialMetric:
    """e^{2t} (1 + a sin(al x + be) sin(ga t + de)) dx^2 + dt^2, a < amplitude."""
    a = rng.uniform(0.02, amplitude)
    al, ga = rng.uniform(0.5, 2.0, size=2)
    be, de = rng.uniform(-np.pi, np.pi, size=2)

    def spatial(p):
        x, t = p[:, 0], p[:, 1]
        g = 1.0 + a * np.sin(al * x + be) * np.sin(ga * t + de)
        return (np.exp(2.0 * t) * g)[:, None, None]

    return RadialMetric.on_chart(chart, spatial, analytic=True,
                                 name="synthetic")


def random_lambda(chart: ChartModel, rng) -> Field:
    """Smooth [0,1]-valued field 0.5 + 0.5 sin(c0 + c1 x + c2 t)."""
    c0 = rng.uniform(-np.pi, np.pi)
    c1, c2 = rng.uniform(-1.5, 1.5, size=2)

    def fn(p):
        return 0.5 + 0.5 * np.sin(c0 + c1 * p[:, 0] + c2 * p[:, 1])

    return Field(chart.domain, fn, analytic=True, name="lambda")


def random_ball_metric(k: int, rng, base: float = 1.0) -> Field:
    """(base + u sin(p x + q)) dx^2 on the ball, u < base/2."""
    u = rng.uniform(0.0, 0.5 * base)
    pc = rng.uniform(0.5, 2.0)
    q = rng.uniform(-np.pi, np.pi)

    def fn(x):
        return (base + u * np.sin(pc * x[:, 0] + q))[:, None, None]

    return Field(ball_domain(k), fn, analytic=True, shape=(k, k),
                 name="ball-metric")


def random_warp_profile(rng) -> _SineProfile:
    """Positive profile 1 + c1 sin(om t + ph) with floor >= 0.4."""
    c1 = rng.uniform(-0.6, 0.6)
    om = rng.uniform(0.4, 1.5)
    ph = rng.uniform(-np.pi, np.pi)
    return _SineProfile(1.0, c1, om, ph)


# ---------------------------------------------------------------------------
# suite runners


_DEFAULT_T0S = (2.1, 2.5, 3.0, 4.0, 6.0, 8.0)


def _chart(xi: float, grid: Optional[GridSpec]) -> ChartModel:
    return ChartModel(n=2, xi=xi, grid=grid or GridSpec())


def _numbers(values, what: str) -> tuple:
    """A non-empty list of numbers as a tuple; ValueError otherwise."""
    if not (isinstance(values, (list, tuple)) and values and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in values)):
        raise ValueError(f"{what} must be a non-empty list of numbers, "
                         f"got {values!r}")
    return tuple(values)


def _split_counts(total: int, parts: int) -> list:
    base = total // parts
    rest = total - base * parts
    return [base + (1 if i < rest else 0) for i in range(parts)]


def _run_lemma_suite(name: str, seed: int, instances: int,
                     xi_values, grid: Optional[GridSpec]) -> list:
    """Trivial instance(s) first, then seeded random instances."""
    reports = []
    ch = _chart(1.0, grid)
    trivial = {"instance": "trivial"}
    if name == "lemma1.1":
        sigma = hyperbolic_model(ch)
        one = _constant_scalar(ch.domain, 1.0)
        reports.append(check_lemma_1_1(sigma, sigma, one, params=trivial))
    elif name == "lemma2.2":
        reports.append(check_lemma_2_2(hyperbolic_model(ch),
                                       lambda t: np.ones(len(t)),
                                       params=trivial))
    elif name == "lemma2.3":
        reports.extend(check_lemma_2_3(hyperbolic_model(ch), 4.0,
                                       params=trivial))
    elif name == "lemma3.1":
        rng0 = np.random.default_rng(seed)
        a = random_ball_metric(ch.k, rng0)
        reports.append(check_lemma_3_1(a, a, 0.0, ch, params=trivial))
    elif name == "lemma3.2":
        reports.append(check_lemma_3_2(hyperbolic_model(ch), 0.0,
                                       params=trivial))

    xi_values = _numbers(xi_values, "xi_values")
    counts = _split_counts(instances, len(xi_values))
    idx = 0
    for xi, count in zip(xi_values, counts):
        ch = _chart(float(xi), grid)
        name_key = zlib.crc32(name.encode()) & 0xFFFF
        for _ in range(count):
            rng = np.random.default_rng((seed, name_key, idx))
            p = {"instance": idx, "seed": seed}
            if name == "lemma1.1":
                g1 = random_close_metric(ch, rng)
                g2 = random_close_metric(ch, rng)
                lam = random_lambda(ch, rng)
                reports.append(check_lemma_1_1(g1, g2, lam, params=p))
            elif name == "lemma2.2":
                g = random_close_metric(ch, rng)
                nu = random_warp_profile(rng)
                s = rng.uniform(-0.5, 0.5) if rng.uniform() < 0.5 else 0.0
                reports.append(check_lemma_2_2(g, nu, s=s, params=p))
            elif name == "lemma2.3":
                g = random_close_metric(ch, rng)
                s = rng.uniform(-0.8, 0.8) if rng.uniform() < 0.5 else 0.0
                # profile argument t - s must stay above -t0 on the window
                t0_lo = max(2.2, (1.0 + ch.xi) + max(s, 0.0) + 0.3)
                t0 = rng.uniform(t0_lo, 8.0)
                reports.extend(check_lemma_2_3(g, t0, s=s, params=p))
            elif name == "lemma3.1":
                a = random_ball_metric(ch.k, rng)
                b = random_ball_metric(ch.k, rng,
                                       base=rng.uniform(0.8, 1.3))
                s = rng.uniform(-0.8 * (1 + ch.xi), 0.8 * (1 + ch.xi))
                reports.append(check_lemma_3_1(a, b, s, ch, params=p))
            elif name == "lemma3.2":
                g = random_close_metric(ch, rng)
                s = rng.uniform(-0.8 * (1 + ch.xi), 0.8 * (1 + ch.xi))
                reports.append(check_lemma_3_2(g, s, params=p))
            idx += 1
    return reports


# ---------------------------------------------------------------------------
# main theorem


@dataclass(frozen=True)
class TheoremConfig:
    """Desk-scale deformation audit configuration."""

    n: int = 2
    xi: float = 1.5
    amplitude: float = 1e-3
    sphere_mode: int = 3
    radial_center: float = 5.0
    radial_width: float = 1.5
    r_range: tuple = (0.05, 16.0)
    r0_values: tuple = (4.0, 5.0, 6.0, 7.0)
    centers_per_zone: int = 8
    seed: int = 0
    bump_delta: float = 0.05
    guard_constant: float = 1e3
    grid: GridSpec = field(default_factory=GridSpec)

    @classmethod
    def from_dict(cls, cfg: dict) -> "TheoremConfig":
        kw = dict(cfg)
        grid = kw.get("grid", GridSpec())
        if isinstance(grid, dict):
            kw["grid"] = GridSpec(**grid)
        elif not isinstance(grid, GridSpec):
            raise ValueError(f"theorem grid must be an object, got {grid!r}")
        for key in ("r_range", "r0_values"):
            if key in kw:
                kw[key] = tuple(kw[key])
        return cls(**kw)

    def to_json(self) -> dict:
        d = dataclasses.asdict(self)
        d["r_range"] = list(self.r_range)
        d["r0_values"] = list(self.r0_values)
        return d


@dataclass(frozen=True)
class TheoremInstance:
    """One warp-forcing audit at a fixed cut radius r0."""

    r0: float
    xi: float
    eps: float
    eta_max: float
    bound: float
    decay_constant: float
    guard_constant: float
    passed: bool
    reports: tuple
    case_counts: dict
    runtime_s: float
    notes: str = ""

    def to_json(self) -> dict:
        d = dataclasses.asdict(self)
        d["reports"] = list(d.pop("reports"))   # last, after the summary
        return d


def _angular_center(n: int, u: float) -> tuple:
    """Seeded draw u in [-1, 1] -> chart center on the model sphere."""
    if n == 2:
        return (float(u),)
    return (float(np.pi / 2 + 0.5 * u), float(0.8 * np.pi * u))


def theorem_centers(r0: float, xi: float, r_range, per_zone: int,
                    rng) -> list:
    """(t0, theta0, case) triples, per_zone draws in each case zone.

    Measurement charts have excess xi - 1 (radial half-width xi), so every
    center keeps [t0 - xi, t0 + xi] inside the manifold window; case-3
    centers additionally stay outside the deleted ball B_{r0 - (1+xi)}.
    """
    r_lo, r_hi = r_range
    pad = 0.05
    lo3 = max(r0 - (1.0 + xi), xi + r_lo) + pad
    hi3 = r0 + 0.5 + xi
    hi2 = r0 + 0.5 + 1.0 + xi
    hi1 = min(hi2 + 2.0, r_hi - (1.0 + xi) - pad)
    if not (lo3 < hi3 < hi2 < hi1):
        raise DomainError(
            f"cannot fit three theorem zones for r0={r0:g}, xi={xi:g} in "
            f"r window ({r_lo:g}, {r_hi:g})")
    out = []
    for case, (lo, hi) in ((3, (lo3, hi3)), (2, (hi3 + 1e-9, hi2)),
                           (1, (hi2 + 1e-9, hi1))):
        t0s = np.sort(rng.uniform(lo, hi, size=per_zone))
        for t0 in t0s:
            out.append((float(t0), float(rng.uniform(-1.0, 1.0)), case))
    return out


def check_main_theorem(manifold: CenteredManifold, r0: float, xi: float,
                       centers_per_zone: int = 8, seed: int = 0,
                       bump_delta: float = 0.05,
                       guard_constant: float = 1e3) -> TheoremInstance:
    """Audit W_{r0} g on the annulus outside B_{r0-(1+xi)}.

    Measures eps (closeness of g, excess-xi charts where they fit), deforms,
    then at every center measures eta with the excess-(xi-1) chart and checks
    eta <= e^{16+6 xi} (e^{-2 r0} + eps).  A per-sweep decay constant
    max eta/(e^{-2 r0} + eps) is recorded and compared against the
    regression guard.  Every norm samples on the manifold metric's grid.
    """
    t_start = time.perf_counter()
    if not xi > 1.0:
        raise ValueError("warp forcing audit needs excess xi > 1")
    if r0 - (1.0 + xi) <= 0.0:
        raise ValueError("r0 must exceed 1 + xi")
    g = manifold.metric
    spec = g.grid
    rng = np.random.default_rng((seed, int(r0 * 8)))
    centers = theorem_centers(r0, xi, manifold.r_range, centers_per_zone, rng)
    bump = BumpFunction(delta=bump_delta)
    W = warp_force(g, r0, bump)
    xi_m = xi - 1.0
    r_lo = manifold.r_range[0]

    # hypothesis-side closeness: full-excess charts wherever they fit
    eps = 0.0
    eps_centers = 0
    for t0, th0, _ in centers:
        if t0 - (1.0 + xi) > r_lo:
            val = closeness_at(manifold, t0, xi=xi,
                               y0=_angular_center(manifold.n, th0),
                               grid=spec).value
            eps = max(eps, val)
            eps_centers += 1
    bound = np.exp(16.0 + 6.0 * xi) * (np.exp(-2.0 * r0) + eps)
    denom = np.exp(-2.0 * r0) + eps

    reports = []
    case_counts = {1: 0, 2: 0, 3: 0}
    eta_max = 0.0
    decay_c = 0.0
    for t0, th0, case in centers:
        case_counts[case] += 1
        p = {"r0": r0, "xi": xi, "t0": t0, "theta0": th0, "case": case,
             "excess": xi_m}
        try:
            rc = radial_chart(manifold, t0, xi=xi_m,
                              y0=_angular_center(manifold.n, th0), grid=spec)
            eta, err = measured_with_error(
                difference(pullback(rc, W), hyperbolic_model(rc.chart)), spec)
            eps_c = radial_closeness(rc, g, grid=spec)
            p["eps_center"] = eps_c.value
            p["ratio"] = eta.value / denom
            notes = f"eta/(e^-2r0+eps)={eta.value / denom:.4g}"
            reports.append(make_report("theorem", p, eta.value, bound, err,
                                       spec, eta.derivative_source, notes))
            eta_max = max(eta_max, eta.value)
            decay_c = max(decay_c, eta.value / denom)
        except WarpforceError as exc:
            reports.append(error_report("theorem", p, spec, str(exc)))

    passed = all(r.passed for r in reports) and eta_max < bound
    notes = (f"eps from {eps_centers} full-excess charts; "
             f"guard {decay_c:.4g} <= {guard_constant:g}: "
             f"{'ok' if decay_c <= guard_constant else 'EXCEEDED'}")
    return TheoremInstance(
        r0=float(r0), xi=float(xi), eps=float(eps), eta_max=float(eta_max),
        bound=float(bound), decay_constant=float(decay_c),
        guard_constant=float(guard_constant), passed=bool(passed),
        reports=tuple(reports), case_counts=case_counts,
        runtime_s=time.perf_counter() - t_start, notes=notes,
    )


def run_theorem_sweep(cfg: Optional[TheoremConfig] = None) -> list:
    cfg = cfg or TheoremConfig()
    manifold = perturbed_hyperbolic(
        n=cfg.n, amplitude=cfg.amplitude, sphere_mode=cfg.sphere_mode,
        radial_center=cfg.radial_center, radial_width=cfg.radial_width,
        r_range=cfg.r_range, grid=cfg.grid)
    return [
        check_main_theorem(manifold, r0, cfg.xi,
                           centers_per_zone=cfg.centers_per_zone,
                           seed=cfg.seed, bump_delta=cfg.bump_delta,
                           guard_constant=cfg.guard_constant)
        for r0 in cfg.r0_values
    ]


# ---------------------------------------------------------------------------
# decay demonstration and FD oracle


def remark_decay(t0_values: Optional[Sequence[float]] = None,
                 grid: Optional[GridSpec] = None) -> list:
    """Radial closeness of the punctured model along a t0 sweep, on charts
    of excess 1.

    Returns rows {"t0", "eps", "ratio_to_prev", "derivative_source"}; the
    closeness degrades like e^{-2 t0} going inward, which is the reason the
    model family needs the puncture cut out.  t0_values defaults to 2.2, 3,
    ..., 9 when None; an empty sequence is a ValueError.
    """
    t0s = tuple((2.2, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)
                if t0_values is None else t0_values)
    if not t0s:
        raise ValueError("remark_decay needs at least one t0 value")
    r_hi = max(t0s) + 2.0 + 0.5     # a chart of excess 1 reaches t0 + 2
    m = punctured_hyperbolic(2, r_range=(0.05, r_hi))
    rows = []
    prev = None
    for t0 in t0s:
        eps = closeness_at(m, t0, grid=grid)
        rows.append({
            "t0": float(t0),
            "eps": eps.value,
            "ratio_to_prev": (eps.value / prev) if prev else float("nan"),
            "derivative_source": eps.derivative_source,
        })
        prev = eps.value
    return rows


def fd_oracle_check(f: Field, grid: Optional[GridSpec] = None) -> dict:
    """Finite differences vs analytic jets at the steps 4e-4, 2e-4, 1e-4.

    Fits err ~ C h^2 from the coarsest step and checks the finer steps stay
    within 1.5 C h^2 + a roundoff floor.  Returns measured errors and C.
    """
    if not f.has_jet:
        raise WarpforceError("fd_oracle_check needs an analytic jet")
    spec = grid or f.grid
    pts = f.domain.grid(spec)
    v, d1, d2 = f.jet(pts)
    scale = max(float(np.abs(d2).max()), 1.0)
    errors = {}
    steps = (4e-4, 2e-4, 1e-4)
    for h in steps:
        w, e1, e2 = _fd_jet(f, pts, dataclasses.replace(spec, fd_step=h))
        errors[h] = {
            "d1": float(np.abs(d1 - e1).max()),
            "d2": float(np.abs(d2 - e2).max()),
        }
    h0 = steps[0]
    C = {k: errors[h0][k] / h0 ** 2 for k in ("d1", "d2")}
    floor = {"d1": 1e-11 * scale / min(steps), "d2": 1e-11 * scale / min(steps) ** 2}
    ok = all(
        errors[h][k] <= 1.5 * C[k] * h ** 2 + floor[k]
        for h in steps[1:] for k in ("d1", "d2")
    )
    return {"steps": list(steps), "errors": errors, "C": C,
            "passed": bool(ok), "scale": scale}


# ---------------------------------------------------------------------------
# registry


_LEMMA_NAMES = ("lemma1.1", "lemma2.1", "lemma2.2", "lemma2.3",
                "lemma3.1", "lemma3.2")


def available_checks() -> list:
    return list(_LEMMA_NAMES) + ["theorem", "all"]


def run_check(name: str, seed: int = 0, instances: int = 100,
              xi_values=(1.0, 1.5), grid: Optional[GridSpec] = None,
              config: Optional[dict] = None) -> list:
    """Run a registry check and return its BoundReports."""
    if config is not None and not isinstance(config, dict):
        raise ValueError(f"config of {name!r} must be an object, "
                         f"got {config!r}")
    if name == "all":
        doc = config or {}
        out = []
        for nm in _LEMMA_NAMES:
            out.extend(run_check(nm, seed=seed, instances=instances,
                                 xi_values=xi_values, grid=grid,
                                 config=doc.get(nm)))
        out.extend(run_check("theorem", seed=seed, grid=grid,
                             config=doc.get("theorem")))
        return out
    if name == "lemma2.1":
        t0s = _numbers((config or {}).get("t0_values", _DEFAULT_T0S),
                       "lemma2.1 t0_values")
        return [check_lemma_2_1(t0) for t0 in t0s]
    if name in _LEMMA_NAMES:
        return _run_lemma_suite(name, seed, instances, xi_values, grid)
    if name == "theorem":
        kw = dict(config or {})
        kw.setdefault("seed", seed)
        if grid is not None:
            kw["grid"] = grid
        cfg = TheoremConfig.from_dict(kw)
        out = []
        for inst in run_theorem_sweep(cfg):
            out.extend(inst.reports)
        return out
    raise ValueError(
        f"unknown check {name!r}; available: {', '.join(available_checks())}")
