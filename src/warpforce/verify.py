"""Quantitative bound checks and the warp-forcing deformation audit.

Every check measures a left-hand side and a right-hand side on a grid and
emits a BoundReport.  A report passes iff lhs < rhs (strict); the degenerate
lhs = rhs = 0 case passes with the `marginal` flag set.  Each measured norm
carries a refinement error estimate |v_N - v_{N/2}| / 3 (plus a proportional
proxy when derivatives come from finite differences).  Every report's
error estimate follows one rule: the lhs's estimate plus err_k |d rhs / d n_k|
for every other norm n_k of the check, exact for the multilinear right-hand
sides below (see _reports; the theorem's rhs depends on none of them).
`marginal` is set whenever |margin| is below three times the report's
estimate, so a verdict that grid refinement could overturn always shows.

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
import operator
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
    _c2_norms,
    _fd_jet,
    _fd_piece,
    _numbers,
    ball_domain,
    c2_norm,
    difference,
    hyperbolic_model,
    interval_domain,
    profile_scalar,
    read_config,
)
from warpforce.manifold import (
    CenteredManifold,
    _keyword_defaults,
    closeness_at,
    manifold_from_config,
    perturbed_hyperbolic,
    pullback,
    punctured_hyperbolic,
    radial_chart,
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
    "read_document",
    "seeded_reports",
    "CONFIG",
    "report_csv_row",
    "reports_to_csv_rows",
    "CSV_COLUMNS",
]

_FD_PROXY = 3e-6  # relative second-order FD truncation proxy at model._FD_STEP


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
        """The fields in order; params copied one level deep, which is all
        the nesting a report's params have (dataclasses.asdict's deep copy
        costs more than the rest of the JSON)."""
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        d["params"] = {k: v.copy() if isinstance(v, (list, dict)) else v
                       for k, v in self.params.items()}
        d["grid"] = dataclasses.asdict(self.grid)
        return d


def make_report(name: str, params: dict, lhs: float, rhs: float,
                error_estimate: float, grid: GridSpec, source: str,
                notes: str = "") -> BoundReport:
    exact_zero = lhs == 0.0 and rhs == 0.0
    passed = (lhs < rhs) or exact_zero
    margin = rhs - lhs
    marginal = exact_zero or abs(margin) < 3.0 * error_estimate
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


def _cell(x) -> str:
    """CSV text of one value: booleans lower-case, numbers to 12 digits."""
    if isinstance(x, bool):
        return str(x).lower()
    return x if isinstance(x, str) else f"{x:.12g}"


def report_csv_row(r: BoundReport) -> dict:
    """r's row of reports.csv, keyed by CSV_COLUMNS."""
    return {
        "name": r.name,
        "lhs": _cell(r.lhs),
        "rhs": _cell(r.rhs),
        "margin": _cell(r.margin),
        "passed": _cell(r.passed),
        "marginal": _cell(r.marginal),
        "error_estimate": f"{r.error_estimate:.6g}",
        "derivative_source": r.derivative_source,
        "grid_points": str(r.grid.points_per_axis),
        "params": json.dumps(r.params, sort_keys=True,
                             separators=(",", ":"), default=float),
        "notes": r.notes,
    }


def reports_to_csv_rows(reports: Sequence[BoundReport]) -> list:
    return list(map(report_csv_row, reports))


def measured_with_error(fields: Sequence[Field], grid: GridSpec) -> list:
    """(C2 norm, refinement-probe error estimate) of each field of one
    domain, in order, on `grid`: the N-grid norms and N/2-grid probes of
    all the fields come from one walk of both grids (see
    model._c2_norms)."""
    return [(full, abs(full.value - half.value) / 3.0 + (
        _FD_PROXY * full.value
        if full.derivative_source == "finite-difference" else 0.0))
        for full, half in _c2_norms(fields, (grid, grid.halved()))]


# ---------------------------------------------------------------------------
# the report runner and the lemma checkers (instance level)


def _reports(walks: Sequence[dict], grid: GridSpec, reports: Sequence[tuple],
             fixed: dict, shown: Sequence[str] = ()) -> list:
    """The reports of one check, lemma or theorem center.

    `walks` names the check's fields, one dict per domain, each walked once
    in its order (measured_with_error: a field after the fields that
    contain it); a field named under two keys of one walk is walked once,
    and both keys get its norm.  `reports` holds a (name, lhs field, rhs)
    triple per report, rhs a function of the dict of every field's norm.
    Each report's params are `fixed`, then the norms named in `shown`.
    Its error estimate is the lhs probe error plus, for every other field
    k, err_k |rhs(n_k = 1) - rhs(n_k = 0)|: exactly err_k |d rhs / d n_k|
    for a multilinear rhs, with none of the cancellation of
    rhs(n + err) - rhs(n) when err << n."""
    norms, errs = {}, {}
    for walk in walks:
        fields = list(dict.fromkeys(walk.values()))
        measured = dict(zip(fields, measured_with_error(fields, grid)))
        for key, f in walk.items():
            norms[key], errs[key] = measured[f]
    n = {key: c2.value for key, c2 in norms.items()}
    p = fixed | {key: n[key] for key in shown}
    return [make_report(
        name, p, n[lhs], rhs(n), errs[lhs] + sum(
            err * abs(rhs(n | {key: 1.0}) - rhs(n | {key: 0.0}))
            for key, err in errs.items() if key != lhs),
        grid, norms[lhs].derivative_source) for name, lhs, rhs in reports]


def check_lemma_2_1(t0: float) -> BoundReport:
    """Decay profile bound on the closed ray window [0, 14 + 2 t0], sampled
    at 4001 points; ValueError names a t0 whose window is not finite."""
    hi = 14.0 + 2.0 * float(t0)
    if not np.isfinite(hi):
        raise ValueError(f"lemma2.1 t0 must keep the window [0, 14 + 2 t0] "
                         f"finite (got {t0:g})")
    window = interval_domain(0.0, hi)
    f = difference(profile_scalar(window, WarpFunction(t0)),
                   _constant_scalar(window, 1.0), name=f"decay[t0={t0:g}]")
    rhs = 5.2 * np.exp(-2.0 * t0)
    return _reports([{"lhs": f}], GridSpec(points_per_axis=4001),
                    [("lemma2.1", "lhs", lambda n: rhs)],
                    {"t0": t0, "window": [0.0, hi]})[0]


def check_lemma_2_2(g: RadialMetric, nu, s: float = 0.0) -> BoundReport:
    """|g - g_nu| < 4 |1 - nu| |g| for a positive warp profile nu, shifted
    by s.  A nonzero s needs nu.shifted(s), as random_warp_profile's
    profiles have; the one shifted profile serves both sides."""
    prof = nu.shifted(s) if s != 0.0 else nu
    nu_dev = difference(_constant_scalar(g.domain, 1.0),
                        profile_scalar(g.domain, prof))
    return _reports(
        [{"lhs": difference(g, apply_warp(g, prof)), "nu_dev": nu_dev,
          "g_norm": g}], g.chart.grid,
        [("lemma2.2", "lhs", lambda n: 4.0 * n["nu_dev"] * n["g_norm"])],
        {"xi": g.chart.xi, "s": s}, ("nu_dev", "g_norm"))[0]


def check_lemma_2_3(g: RadialMetric, t0: float, s: float = 0.0):
    """Both sinh-rewarping bounds; returns [part-1 report, part-2 report]."""
    h = apply_warp(g, WarpFunction(t0), s=s)
    sigma = hyperbolic_model(g.chart)
    scale, decay = np.exp(2.0 * (1.0 + g.chart.xi)), np.exp(-2.0 * t0)
    return _reports(
        [{"eps": difference(g, sigma), "lhs1": difference(h, g),
          "lhs2": difference(h, sigma)}], g.chart.grid,
        [("lemma2.3(1)", "lhs1", lambda n: 21.0 * (n["eps"] + scale) * decay),
         ("lemma2.3(2)", "lhs2", lambda n: 21.0 * scale * (decay + n["eps"]))],
        {"xi": g.chart.xi, "t0": t0, "s": s}, ("eps",))


def check_lemma_3_1(a: Field, b: Field, s: float,
                    chart: ChartModel) -> BoundReport:
    """|ext(a,s) - ext(b,s)| < 4 e^{4(1+xi)} |a - b|_{C2(ball)}."""
    ext = difference(warped_extension(a, s, chart),
                     warped_extension(b, s, chart))
    factor = 4.0 * np.exp(4.0 * (1.0 + chart.xi))
    return _reports(
        [{"lhs": ext}, {"eps_ab": difference(a, b)}], chart.grid,
        [("lemma3.1", "lhs", lambda n: factor * n["eps_ab"])],
        {"xi": chart.xi, "s": s}, ("eps_ab",))[0]


def check_lemma_3_2(g: RadialMetric, s: float) -> BoundReport:
    """|ext(g_s, s) - sigma| < 4 e^{4(1+xi)} eps with measured eps."""
    ext = warped_extension(radial_slice(g, s), s, g.chart)
    sigma = hyperbolic_model(g.chart)
    factor = 4.0 * np.exp(4.0 * (1.0 + g.chart.xi))
    return _reports(
        [{"eps": difference(g, sigma), "lhs": difference(ext, sigma)}],
        g.chart.grid, [("lemma3.2", "lhs", lambda n: factor * n["eps"])],
        {"xi": g.chart.xi, "s": s}, ("eps",))[0]


def check_lemma_1_1(g1: RadialMetric, g2: RadialMetric,
                    lam: Field) -> BoundReport:
    """|lam g1 + (1-lam) g2 - sigma| < 4 (1 + |lam|) (eps1 + eps2)."""
    sigma = hyperbolic_model(g1.chart)
    # lam after the blend that contains it, so that it is evaluated once
    return _reports(
        [{"eps1": difference(g1, sigma), "eps2": difference(g2, sigma),
          "lhs": difference(blend(g1, g2, lam), sigma), "lam_norm": lam}],
        g1.chart.grid, [("lemma1.1", "lhs", lambda n: 4.0
                         * (1.0 + n["lam_norm"]) * (n["eps1"] + n["eps2"]))],
        {"xi": g1.chart.xi}, ("lam_norm", "eps1", "eps2"))[0]


# ---------------------------------------------------------------------------
# seeded synthetic instances (n = 2 charts with analytic jets)


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hashed(words, h: int, mult: int) -> tuple:
    """SeedSequence's hash of each 32-bit word in turn, under a running
    constant h multiplied by mult at each word: (the hashed words, h)."""
    out = []
    for w in words:
        w, h = (w ^ h) * (h * mult & _M32) & _M32, h * mult & _M32
        out.append(w ^ w >> 16)
    return out, h


class _Stream:
    """The draws of numpy's default_rng(seed).uniform, bit for bit, without
    importing numpy.random: SeedSequence -> PCG64 (O'Neill, HMC-CS-2014-0905)
    -> (u >> 11) 2^-53 scaled to [low, high).  The seed is a non-negative
    int or a tuple of them, each split into little-endian 32-bit words."""

    def __init__(self, seed):
        words = []
        for v in map(operator.index,
                     seed if isinstance(seed, tuple) else (seed,)):
            if v < 0:
                raise ValueError(f"seed must be non-negative, got {seed!r}")
            words += [v >> s & _M32 for s in range(0, v.bit_length() or 1, 32)]
        pool, h = _hashed((words + [0] * 4)[:4], 0x43b0d7e5, 0x931e8875)

        def mix(dst, w):                # mix pool[dst] with hashed word w
            nonlocal h
            (w,), h = _hashed([w], h, 0x931e8875)
            r = 0xca01f9dd * pool[dst] - 0x4973f715 * w & _M32
            pool[dst] = r ^ r >> 16
        for src in range(4):
            for dst in range(4):
                if dst != src:
                    mix(dst, pool[src])
        for w in words[4:]:             # words past the pool's 4
            for dst in range(4):
                mix(dst, w)
        state, _ = _hashed(pool * 2, 0x8b51f9dd, 0x58f38ded)
        u = [state[i] | state[i + 1] << 32 for i in (0, 2, 4, 6)]
        self._inc, self._state = (u[2] << 64 | u[3]) << 1 & _M128 | 1, 0
        self._next()
        self._state = self._state + (u[0] << 64 | u[1]) & _M128
        self._next()

    def _next(self) -> int:
        """Step the 128-bit LCG and return the XSL-RR output of its state."""
        s = self._state = (self._state * 0x2360ED051FC65DA44385DF649FCCF645
                           + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def uniform(self, low=0.0, high=1.0, size=None):
        """A draw from [low, high), or a list of `size` draws in order."""
        if size is not None:
            return [self.uniform(low, high) for _ in range(size)]
        return low + (high - low) * ((self._next() >> 11) * 2.0 ** -53)


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
    """e^{2t} (1 + a sin(al x + be) sin(ga t + de)) dx^2 + dt^2, a < amplitude;
    rng, any object with numpy's uniform(low, high, size=None) (a _Stream
    or a numpy Generator), draws a, al, ga, be, de in that order."""
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
    """Smooth [0,1]-valued field 0.5 + 0.5 sin(c0 + c1 x + c2 t); rng (as for
    random_close_metric) draws c0, c1, c2."""
    c0 = rng.uniform(-np.pi, np.pi)
    c1, c2 = rng.uniform(-1.5, 1.5, size=2)

    def fn(p):
        return 0.5 + 0.5 * np.sin(c0 + c1 * p[:, 0] + c2 * p[:, 1])

    return Field(chart.domain, fn, analytic=True, name="lambda")


def random_ball_metric(k: int, rng, base: float = 1.0) -> Field:
    """(base + u sin(p x + q)) dx^2 on the ball, u < base/2; rng (as for
    random_close_metric) draws u, p, q."""
    u = rng.uniform(0.0, 0.5 * base)
    pc = rng.uniform(0.5, 2.0)
    q = rng.uniform(-np.pi, np.pi)

    def fn(x):
        return (base + u * np.sin(pc * x[:, 0] + q))[:, None, None]

    return Field(ball_domain(k), fn, analytic=True, shape=(k, k),
                 name="ball-metric")


def random_warp_profile(rng) -> _SineProfile:
    """Positive profile 1 + c1 sin(om t + ph) with floor >= 0.4; rng (as for
    random_close_metric) draws c1, om, ph."""
    c1 = rng.uniform(-0.6, 0.6)
    om = rng.uniform(0.4, 1.5)
    ph = rng.uniform(-np.pi, np.pi)
    return _SineProfile(1.0, c1, om, ph)


# ---------------------------------------------------------------------------
# suite runners


_DEFAULT_T0S = (2.1, 2.5, 3.0, 4.0, 6.0, 8.0)


def _seed(seed: int) -> int:
    """seed itself; ValueError naming it when negative, so that a config
    refuses it before any check runs (_Stream refuses it only when the
    first instance is built)."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    return seed


def _blend_trivial(ch, rng):
    sigma = hyperbolic_model(ch)
    one = _constant_scalar(ch.domain, 1.0)
    return [check_lemma_1_1(sigma, sigma, one)]


def _rewarp_seeded(ch, rng):
    g = random_close_metric(ch, rng)
    s = rng.uniform(-0.8, 0.8) if rng.uniform() < 0.5 else 0.0
    # profile argument t - s must stay above -t0 on the window
    t0_lo = max(2.2, (1.0 + ch.xi) + max(s, 0.0) + 0.3)
    return check_lemma_2_3(g, rng.uniform(t0_lo, 8.0), s=s)


def _extension_trivial(ch, rng):
    a = random_ball_metric(ch.k, rng)
    return [check_lemma_3_1(a, a, 0.0, ch)]


def _slice_shift(ch, rng) -> float:
    return rng.uniform(-0.8 * (1 + ch.xi), 0.8 * (1 + ch.xi))


# Per lemma suite, its trivial and its seeded instance: (chart, rng) -> the
# reports of one check, the rng drawn in argument order.  Each calls its
# check through the module's name at call time, which a tracer may wrap.
_SUITES = {
    "lemma1.1": (_blend_trivial, lambda ch, rng: [check_lemma_1_1(
        random_close_metric(ch, rng), random_close_metric(ch, rng),
        random_lambda(ch, rng))]),
    "lemma2.2": (lambda ch, rng: [check_lemma_2_2(
        hyperbolic_model(ch), lambda t: np.ones(len(t)))],
        lambda ch, rng: [check_lemma_2_2(
            random_close_metric(ch, rng), random_warp_profile(rng),
            s=rng.uniform(-0.5, 0.5) if rng.uniform() < 0.5 else 0.0)]),
    "lemma2.3": (lambda ch, rng: check_lemma_2_3(hyperbolic_model(ch), 4.0),
                 _rewarp_seeded),
    "lemma3.1": (_extension_trivial, lambda ch, rng: [check_lemma_3_1(
        random_ball_metric(ch.k, rng),
        random_ball_metric(ch.k, rng, base=rng.uniform(0.8, 1.3)),
        _slice_shift(ch, rng), ch)]),
    "lemma3.2": (lambda ch, rng: [check_lemma_3_2(hyperbolic_model(ch), 0.0)],
                 lambda ch, rng: [check_lemma_3_2(
                     random_close_metric(ch, rng), _slice_shift(ch, rng))]),
}


def _run_lemma_suite(name: str, seed: int, instances: int,
                     xi_values, grid: GridSpec) -> list:
    """The trivial instance first, then seeded random instances on n = 2
    charts of `grid`, split over the excess values (the first parts one
    instance longer when they do not divide evenly)."""
    reports = _SUITES[name][0](ChartModel(n=2, xi=1.0, grid=grid),
                               _Stream(seed))
    xis = [xi for xi, part in zip(xi_values, np.array_split(
        range(instances), len(xi_values))) for _ in part]
    return [dataclasses.replace(r, params=r.params | {"instance": "trivial"})
            for r in reports] + [r for idx, xi in enumerate(xis)
                                 for r in seeded_reports(name, seed, idx, xi,
                                                         grid)]


def seeded_reports(name: str, seed: int, instance: int, xi: float,
                   grid: GridSpec) -> list:
    """The reports of seeded instance `instance` of lemma suite `name`, on
    the n = 2 chart of excess xi and `grid`; each report's params name the
    instance and seed after the check's own keys, so a row rebuilds from
    its report alone."""
    rng = _Stream(
        (seed, zlib.crc32(name.encode()) & 0xFFFF, instance))
    reports = _SUITES[name][1](ChartModel(n=2, xi=float(xi), grid=grid), rng)
    return [dataclasses.replace(r, params=r.params | {"instance": instance,
                                                      "seed": seed})
            for r in reports]


# ---------------------------------------------------------------------------
# main theorem


# the settings of the manifold a TheoremConfig audits, with their defaults
_MANIFOLD = _keyword_defaults(perturbed_hyperbolic)


@dataclass(frozen=True)
class TheoremConfig:
    """Desk-scale deformation audit: the manifold it audits, and settings."""

    n: int = _MANIFOLD["n"]
    xi: float = 1.5
    amplitude: float = _MANIFOLD["amplitude"]
    sphere_mode: int = _MANIFOLD["sphere_mode"]
    radial_center: float = _MANIFOLD["radial_center"]
    radial_width: float = _MANIFOLD["radial_width"]
    r_range: tuple = _MANIFOLD["r_range"]
    r0_values: tuple = (4.0, 5.0, 6.0, 7.0)
    centers_per_zone: int = 8
    seed: int = 0
    bump_delta: float = BumpFunction().delta
    guard_constant: float = 1e3
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        _seed(self.seed)

    @classmethod
    def from_dict(cls, section: dict) -> "TheoremConfig":
        """The config a `theorem` section describes.  ValueError names an
        unknown key or a malformed value (see read_config)."""
        return cls(**read_config(section, vars(cls()), "theorem"))

    def manifold(self) -> CenteredManifold:
        """The manifold this config audits: perturbed_hyperbolic with the
        config's fields of the same names."""
        return perturbed_hyperbolic(**{k: getattr(self, k) for k in _MANIFOLD})


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
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
             if f.name != "reports"}
        d["case_counts"] = dict(self.case_counts)
        d["reports"] = [r.to_json() for r in self.reports]   # last
        return d


def _angular_center(n: int, u: float) -> tuple:
    """Seeded draw u in [-1, 1] -> chart center on the model sphere."""
    if n == 2:
        return (float(u),)
    return (float(np.pi / 2 + 0.5 * u), float(0.8 * np.pi * u))


def theorem_zones(r0: float, xi: float, r_range, per_zone: int) -> tuple:
    """The (case, lo, hi) t0 interval of each case zone, cases 3, 2, 1.

    Measurement charts have excess xi - 1 (radial half-width xi), so every
    center keeps [t0 - xi, t0 + xi] inside the manifold window; case-3
    centers additionally stay outside the deleted ball B_{r0 - (1+xi)}.
    ValueError or DomainError for arguments that check_main_theorem cannot
    audit: xi <= 1, r0 <= 1 + xi, per_zone < 1, or zones that do not fit.
    """
    if not xi > 1.0:
        raise ValueError("warp forcing audit needs excess xi > 1")
    if r0 - (1.0 + xi) <= 0.0:
        raise ValueError("r0 must exceed 1 + xi")
    if not per_zone >= 1:
        raise ValueError(f"centers_per_zone must be at least 1 "
                         f"(got {per_zone!r})")
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
    return ((3, lo3, hi3), (2, hi3 + 1e-9, hi2), (1, hi2 + 1e-9, hi1))


def theorem_centers(r0: float, xi: float, r_range, per_zone: int,
                    rng) -> list:
    """(t0, theta0, case) triples, per_zone draws in each zone of
    theorem_zones, which refuses arguments that cannot be audited."""
    out = []
    for case, lo, hi in theorem_zones(r0, xi, r_range, per_zone):
        for t0 in sorted(rng.uniform(lo, hi, size=per_zone)):
            out.append((float(t0), float(rng.uniform(-1.0, 1.0)), case))
    return out


def check_main_theorem(cfg: TheoremConfig, r0: float) -> TheoremInstance:
    """Audit W_{r0} g on the annulus outside B_{r0-(1+xi)}, g the metric of
    cfg.manifold(), with cfg's excess xi, centers per zone, seed, bump delta
    and guard constant.

    Measures eps (closeness of g, excess-xi charts where they fit), deforms,
    then at every center measures eta with the excess-(xi-1) chart and checks
    eta <= e^{16+6 xi} (e^{-2 r0} + eps), one _reports walk per center.
    Each report's eps_center is g's closeness on the same chart: eta itself
    where the chart lies beyond the bump, where W is g.  A decay constant
    max eta/(e^{-2 r0} + eps) is recorded and compared against the
    regression guard.  Every norm samples on cfg.grid.
    """
    t_start = time.perf_counter()
    manifold = cfg.manifold()
    g, xi, spec = manifold.metric, cfg.xi, cfg.grid
    rng = _Stream((cfg.seed, int(r0 * 8)))
    centers = theorem_centers(r0, xi, manifold.r_range, cfg.centers_per_zone,
                              rng)
    bump = BumpFunction(delta=cfg.bump_delta)
    W = warp_force(g, r0, bump)
    xi_m = xi - 1.0
    r_lo = manifold.r_range[0]

    # hypothesis-side closeness: full-excess charts wherever they fit.
    # np.max, unlike Python's max, keeps a NaN, which then fails the sweep.
    eps_vals = [closeness_at(manifold, t0, xi=xi,
                             y0=_angular_center(manifold.n, th0),
                             grid=spec).value
                for t0, th0, _ in centers if t0 - (1.0 + xi) > r_lo]
    eps = np.max(eps_vals, initial=0.0)
    bound = np.exp(16.0 + 6.0 * xi) * (np.exp(-2.0 * r0) + eps)
    denom = np.exp(-2.0 * r0) + eps

    reports = []
    case_counts = {1: 0, 2: 0, 3: 0}
    etas = []
    for t0, th0, case in centers:
        case_counts[case] += 1
        p = {"r0": r0, "xi": xi, "t0": t0, "theta0": th0, "case": case,
             "excess": xi_m}
        try:
            rc = radial_chart(manifold, t0, xi=xi_m,
                              y0=_angular_center(manifold.n, th0), grid=spec)
            sigma = hyperbolic_model(rc.chart)
            eta = difference(pullback(rc, W), sigma)
            # eta's walk, FD stencils included, evaluates only points with
            # t above the open chart's lower bound, and t + t0 rounds
            # monotonely.  Where the bump is 0.0 from there on, W is g at
            # each of them and eta is g's closeness on this chart, bitwise.
            floor = rc.chart.domain.bounds[-1][0] + rc.t0
            g_c = eta if bump.vanishes_from(floor - r0) \
                else difference(pullback(rc, g), sigma)
            (r,) = _reports([{"eta": eta, "eps_center": g_c}], spec,
                            [("theorem", "eta", lambda n: bound)], p,
                            ("eps_center",))
            reports.append(dataclasses.replace(
                r, params=r.params | {"ratio": r.lhs / denom},
                notes=f"eta/(e^-2r0+eps)={r.lhs / denom:.4g}"))
            etas.append(r.lhs)
        except WarpforceError as exc:
            reports.append(error_report("theorem", p, spec, str(exc)))

    eta_max = np.max(etas, initial=0.0)
    # rounding is monotone, so this is bitwise the largest eta / denom
    decay_c = eta_max / denom
    passed = all(r.passed for r in reports)
    notes = (f"eps from {len(eps_vals)} full-excess charts; "
             f"guard {decay_c:.4g} <= {cfg.guard_constant:g}: "
             f"{'ok' if decay_c <= cfg.guard_constant else 'EXCEEDED'}")
    return TheoremInstance(
        r0=float(r0), xi=float(xi), eps=float(eps), eta_max=float(eta_max),
        bound=float(bound), decay_constant=float(decay_c),
        guard_constant=float(cfg.guard_constant), passed=bool(passed),
        reports=tuple(reports), case_counts=case_counts,
        runtime_s=time.perf_counter() - t_start, notes=notes,
    )


def _auditable(cfg: TheoremConfig) -> TheoremConfig:
    """cfg, refused when its sweep has no r0, or a manifold or an r0 that
    cannot be audited (ValueError or DomainError, see theorem_zones)."""
    if not cfg.r0_values:
        raise ValueError("theorem sweep needs at least one r0 value")
    r_range = cfg.manifold().r_range
    for r0 in cfg.r0_values:
        theorem_zones(r0, cfg.xi, r_range, cfg.centers_per_zone)
    return cfg


def run_theorem_sweep(cfg: Optional[TheoremConfig] = None) -> list:
    """check_main_theorem at each of cfg's r0 values, a sweep that cannot
    be audited refused before any audit (see _auditable)."""
    cfg = _auditable(cfg or TheoremConfig())
    return [check_main_theorem(cfg, r0) for r0 in cfg.r0_values]


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
    t0s = ((2.2, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0) if t0_values is None
           else _numbers(t0_values, "t0_values"))
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


def fd_oracle_check(f: Field, grid: GridSpec) -> dict:
    """Finite differences vs analytic jets at the steps 4e-4, 2e-4, 1e-4,
    on `grid`.

    Fits err ~ C h^2 from the coarsest step and checks the finer steps stay
    within 1.5 C h^2 + a roundoff floor.  Returns measured errors and C.
    The grid is walked _fd_piece rows at a time, as a norm walks it, and
    the maxima are folded with np.maximum, which keeps a NaN.
    """
    if not f.has_jet:
        raise WarpforceError("fd_oracle_check needs an analytic jet")
    steps = (4e-4, 2e-4, 1e-4)
    scale, errors = 1.0, {h: {"d1": 0.0, "d2": 0.0} for h in steps}
    dom = f.domain
    for x, _ in dom.grid_chunks((grid,), _fd_piece(dom.dim)):
        _, d1, d2 = f.jet(x)
        scale = float(np.maximum(scale, np.abs(d2).max()))
        for h in steps:
            _, e1, e2 = _fd_jet(f, x, h)
            for k, got in (("d1", np.abs(d1 - e1)), ("d2", np.abs(d2 - e2))):
                errors[h][k] = float(np.maximum(errors[h][k], got.max()))
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


# The keys of a config document, each with the default that a run takes
# when it is absent (its kind for read_config); an absent seed leaves the
# theorem section's own.  read_document reads every document against it.
CONFIG = {"_comment": "", "seed": 0, "instances": 100,
          "xi_values": (1.0, 1.5), "grid": GridSpec(), "t0_values": (),
          "theorem": {}, "manifold": {"kind": "punctured", "n": 2},
          **{name: {} for name in _LEMMA_NAMES}}


def available_checks() -> list:
    return list(_LEMMA_NAMES) + ["theorem", "all"]


def read_document(doc: Optional[dict] = None,
                  points: Optional[int] = None) -> dict:
    """Config document `doc` ({} for the defaults) read whole, whatever
    runs next: every key of CONFIG, at its default when absent, read and
    range-checked by its own section's reader.  The first bad key or value
    is a ValueError that names it (a DomainError for theorem zones that do
    not fit the manifold, see theorem_zones).

    In the result, "theorem" is the section's TheoremConfig, whose seed and
    grid give way to the document's own, and "manifold" the section's
    CenteredManifold; "lemma2.1" holds its t0_values, the other lemma
    sections nothing, and "t0_values" is None when absent.  `points`
    (--grid N) sets the points per axis of both grids."""
    given = read_config({} if doc is None else doc, CONFIG, "top-level")
    out = CONFIG | given
    if out["instances"] < 0:
        raise ValueError(f"instances must be >= 0 (got {out['instances']})")
    out["seed"] = _seed(out["seed"])
    out["xi_values"] = _numbers(out["xi_values"], "xi_values")
    for xi in out["xi_values"]:
        if not 0.0 < xi < np.inf:
            raise ValueError(f"xi_values must be positive and finite "
                             f"(got {xi:g})")
    out["t0_values"] = _numbers(given["t0_values"], "t0_values") \
        if "t0_values" in given else None
    th = TheoremConfig.from_dict(out["theorem"])
    top = {"seed": th.seed, "grid": th.grid} | given
    theorem_grid = top["grid"]
    if points is not None:          # --grid N
        out["grid"] = dataclasses.replace(out["grid"], points_per_axis=points)
        theorem_grid = dataclasses.replace(theorem_grid,
                                           points_per_axis=points)
    out["theorem"] = _auditable(dataclasses.replace(
        th, seed=top["seed"], grid=theorem_grid))
    out["manifold"] = manifold_from_config(out["manifold"])
    for name in _LEMMA_NAMES:
        known = {"t0_values": _DEFAULT_T0S} if name == "lemma2.1" else {}
        out[name] = known | read_config(out[name], known, name)
    if not out["lemma2.1"]["t0_values"]:
        raise ValueError("lemma2.1 needs at least one t0 value")
    for t0 in out["lemma2.1"]["t0_values"]:
        if not (2.0 < t0 and np.isfinite(14.0 + 2.0 * t0)):
            raise ValueError(f"lemma2.1 t0 must exceed 2 and keep the window "
                             f"[0, 14 + 2 t0] finite (got {t0:g})")
    return out


def run_check(name: str, doc: Optional[dict] = None,
              points: Optional[int] = None,
              sweep: Optional[list] = None) -> list:
    """Run a registry check on config document `doc` and return its
    BoundReports.  Whatever the check, the whole document is read first
    (read_document), so a bad section is refused before any check runs,
    whether or not the check uses it.  `points` (--grid N) sets the points
    per axis of the grids the run samples on; under `all` the lemma suites
    then sample on the theorem's grid.  `all` runs its theorem sweep
    before any lemma but lists it last, and lemma2.1, which walks each of
    its windows once, before the suites, which walk their charts again, so
    that those charts stay in model._grid_rows' cache.  Under `theorem`
    and `all` the sweep's TheoremInstances, whose reports the run returns,
    are appended to the list `sweep` when one is given."""
    if name not in available_checks():
        raise ValueError(f"unknown check {name!r}; available: "
                         f"{', '.join(available_checks())}")
    cfg = read_document(doc, points)
    grid = cfg["theorem"].grid if name == "all" and points is not None \
        else cfg["grid"]
    instances = run_theorem_sweep(cfg["theorem"]) \
        if name in ("all", "theorem") else []
    if sweep is not None:
        sweep.extend(instances)
    lemmas = [nm for nm in _LEMMA_NAMES if name in (nm, "all")]
    decay = [check_lemma_2_1(t0) for t0 in cfg["lemma2.1"]["t0_values"]] \
        if "lemma2.1" in lemmas else []
    return [r for nm in lemmas for r in (
        decay if nm == "lemma2.1" else _run_lemma_suite(
            nm, cfg["seed"], cfg["instances"], cfg["xi_values"], grid))] + [
        r for inst in instances for r in inst.reports]
