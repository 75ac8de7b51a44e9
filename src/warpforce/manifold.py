"""Synthetic centered manifolds, radial charts, and pullbacks.

A centered manifold is given in polar form around its center: a metric
f(y, r) sigma_S + dr^2 over sphere coordinates y, on a radial window inside
r >= 0, with sigma_S the round metric of y (1 for the circle coordinate
theta, diag(1, sin^2 phi) for colatitude/longitude).  Its RadialMetric's
block is the conformal factor f alone, 1 x 1 for every n (polar_form is the
full metric); warp forcing keeps that form.  Two families, n = 2 and 3:

* punctured_hyperbolic: f = sinh^2(r);
* perturbed_hyperbolic: f = (1 + A cos(m ang) exp(-((r - rc)/rw)^2)) sinh^2 r.

A radial chart at radius t0 maps the product model B^{n-1} x I_xi into polar
coordinates by (x, t) |-> (phi1(x), t + t0) with scale c = 2 e^{-t0}, so that
the hyperbolic pullback lands near sigma = e^{2t} dx^2 + dt^2.  Its sphere
map returns phi1(x) and M(x) = Dphi1^T sigma_S Dphi1, and a pullback is
f(phi1(x), t + t0) M(x).  For n = 2 the map is affine (theta = theta0 + c x)
and pullbacks carry analytic jets; for n = 3 it is the sphere exponential
map, M in closed form, and pullbacks fall back to finite differences.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from warpforce.model import (
    C2Norm,
    ChartModel,
    Domain,
    DomainError,
    Field,
    GenerationError,
    GridSpec,
    Jet,
    RadialMetric,
    _diag,
    _embed,
    _per_run,
    c2_norm,
    difference,
    hyperbolic_model,
    read_config,
)

__all__ = [
    "CenteredManifold",
    "RadialChart",
    "punctured_hyperbolic",
    "perturbed_hyperbolic",
    "manifold_from_config",
    "radial_chart",
    "pullback",
    "polar_form",
    "radial_closeness",
    "closeness_at",
]

_POLE_PAD = 0.05


@dataclass(frozen=True)
class CenteredManifold:
    """A polar-form metric around a center, its construction params, and
    the grid its radial charts sample on by default."""

    metric: RadialMetric
    kind: str
    params: dict = field(default_factory=dict)
    grid: GridSpec = field(default_factory=GridSpec)

    @property
    def n(self) -> int:
        return self.metric.domain.dim

    @property
    def r_range(self):
        return self.metric.domain.bounds[-1]


def _sphere_domain(n: int, r_range) -> Domain:
    ok = isinstance(r_range, (list, tuple, np.ndarray)) \
        and len(r_range) == 2 and all(isinstance(v, numbers.Real)
                                      and not isinstance(v, bool)
                                      for v in r_range)
    lo, hi = map(float, r_range) if ok else (np.nan, np.nan)
    if not 0.0 <= lo < hi < np.inf:
        raise ValueError(f"r_range must be two finite numbers lo, hi with "
                         f"0 <= lo < hi, got {r_range!r}")
    if n == 2:
        return Domain(bounds=((-np.pi, np.pi), (lo, hi)),
                      axis_names=("theta", "r"))
    if n == 3:
        return Domain(
            bounds=((_POLE_PAD, np.pi - _POLE_PAD), (-np.pi, np.pi), (lo, hi)),
            axis_names=("phi", "psi", "r"),
        )
    raise ValueError("only n = 2 and n = 3 manifolds are implemented")


def punctured_hyperbolic(n: int = 2, r_range=(0.05, 16.0),
                         grid: Optional[GridSpec] = None) -> CenteredManifold:
    """Hyperbolic space minus its center: sinh^2(r) sigma_S + dr^2, the
    block sinh^2(r)."""
    dom = _sphere_domain(n, r_range)
    metric = RadialMetric(dom, lambda p: _diag([np.sinh(p[:, -1]) ** 2]),
                          analytic=True, name=f"punctured{n}d", k=1)
    return CenteredManifold(metric=metric, kind="punctured",
                            params={"n": n, "r_range": list(map(float, r_range))},
                            grid=grid or GridSpec())


def perturbed_hyperbolic(n: int = 2, amplitude: float = 1e-3,
                         sphere_mode: int = 3, radial_center: float = 5.0,
                         radial_width: float = 1.5, r_range=(0.05, 16.0),
                         grid: Optional[GridSpec] = None) -> CenteredManifold:
    """Conformal perturbation of the punctured model, the block

        f = (1 + A cos(m ang) exp(-((r-rc)/rw)^2)) sinh^2(r)

    with ang = theta (n = 2) or the longitude psi (n = 3).  |A| < 1 keeps the
    factor positive; anything else is refused.  A cos(m ang) is evaluated
    once per run of equal ang (see _per_run).
    """
    if not abs(amplitude) < 1.0:
        raise GenerationError(
            f"conformal amplitude {amplitude:g} would break positivity "
            f"(need |A| < 1)")
    if radial_width <= 0.0:
        raise GenerationError("radial_width must be positive")
    dom = _sphere_domain(n, r_range)
    ang_axis = 0 if n == 2 else 1
    A, mm, rc, rw = float(amplitude), int(sphere_mode), \
        float(radial_center), float(radial_width)

    def fn(p):
        u = (p[:, -1] - rc) / rw
        wave = _per_run(lambda y: A * np.cos(mm * y[:, 0]),
                        p[:, ang_axis:ang_axis + 1])
        factor = 1.0 + wave * np.exp(-u ** 2)
        return _diag([factor * np.sinh(p[:, -1]) ** 2])

    metric = RadialMetric(dom, fn, analytic=True, name=f"perturbed{n}d", k=1)
    params = {"n": n, "amplitude": A, "sphere_mode": mm,
              "radial_center": rc, "radial_width": rw,
              "r_range": list(map(float, r_range))}
    return CenteredManifold(metric=metric, kind="perturbed", params=params,
                            grid=grid or GridSpec())


def polar_form(g: RadialMetric) -> Field:
    """The n x n polar metric f sigma_S + dr^2 of a polar metric g with block
    f (g itself for n = 2); sin^2 phi is evaluated once per run of phi."""
    n = g.domain.dim
    if n == 2:
        return g

    def fn(p):
        f = g.spatial(p)[:, 0, 0]
        sin2 = _per_run(lambda y: np.sin(y[:, 0]) ** 2, p[:, :1])
        return _embed(_diag([f, f * sin2]), len(p), n)

    return Field(g.domain, fn, shape=(n, n), name=g.name)


_KINDS = {"punctured": punctured_hyperbolic, "perturbed": perturbed_hyperbolic}


def _keyword_defaults(build) -> dict:
    """A manifold constructor's keyword defaults, except grid."""
    return {k: p.default for k, p in inspect.signature(build).parameters.items()
            if k != "grid"}


def manifold_from_config(cfg: dict) -> CenteredManifold:
    """The manifold of a config object: its "kind" (default "punctured")
    and the keyword arguments of that kind's constructor, except grid, read
    against the constructor's defaults (see read_config)."""
    kind = (cfg if isinstance(cfg, dict) else {}).get("kind", "punctured")
    build = _KINDS.get(kind) if isinstance(kind, str) else None
    if build is None:
        raise ValueError(f"unknown manifold kind {kind!r}")
    defaults = {"kind": kind} | _keyword_defaults(build)
    kw = read_config(cfg, defaults, "manifold")
    kw.pop("kind", None)
    return build(**kw)


# ---------------------------------------------------------------------------
# radial charts


@dataclass(frozen=True)
class RadialChart:
    """Product chart (x, t) |-> (phi1(x), t + t0) into polar coordinates.

    sphere(x) returns (phi1(x), M(x)) at (m, k) points x, row by row: the
    sphere coordinates (m, k) and Dphi1^T sigma_S Dphi1 (m, k, k), or the
    affine chart's Jacobian J = c (see pullback)."""

    t0: float
    scale: float
    sphere: Callable
    affine: bool
    chart: ChartModel

    def map_points(self, pts, within: Optional[Field] = None):
        """(q, M) at chart points (m, n): the polar points, column-major at
        arrays, and M; sphere runs once per run of equal x on the exp-map
        chart.  A q outside the (box) window of the polar field `within`
        raises DomainError naming it, tested on the extremes of r and of
        the sphere coordinates that sphere evaluates."""
        k, seen = self.chart.k, []

        def sphere(x):
            seen.append(self.sphere(x))
            return seen[-1]

        x, r = pts[:, :k], pts[:, -1] + self.t0
        y, M = sphere(x) if self.affine else _per_run(sphere, x)
        if isinstance(y, Jet):
            q = np.concatenate([y, r[:, None]], axis=1)
        else:
            q = np.empty((len(r), self.chart.n), order="F")
            q[:, :-1], q[:, -1] = y, r
        if within is not None and len(q):
            h, r = np.asarray(seen[0][0]), np.asarray(r)  # h: sphere's rows
            ends = np.column_stack([[h.min(0), h.max(0)], [r.min(), r.max()]])
            if not within.domain.contains(ends).all():
                at = np.asarray(q)
                bad = at[~within.domain.contains(at)][0]
                raise DomainError(
                    f"pullback of {within.name!r} hit coordinates "
                    f"{tuple(round(float(v), 6) for v in bad)} outside its "
                    f"window")
        return q, M


def _check_window(name: str, lo: float, hi: float, wlo: float, whi: float):
    if lo < wlo or hi > whi:
        raise DomainError(
            f"chart {name} image [{lo:.4g}, {hi:.4g}] does not fit the "
            f"manifold window ({wlo:.4g}, {whi:.4g})")


def _switched(rho, cut: float, series: Callable, exact: Callable):
    """np.where(rho < cut, series(), exact(safe)), safe being rho with 1.0
    below cut; series() is evaluated only when some rho is below cut."""
    small = rho < cut
    if not small.any():
        return exact(rho)
    return np.where(small, series(), exact(np.where(small, 1.0, rho)))


def _exp_map(x, c: float, p0, e1, e2):
    """(phi1(x), M(x)) of phi1(x) = exp_p0(c (x1 e1 + x2 e2)) in
    (colatitude, longitude), as column-major (m, 2) and (m, 2, 2) arrays.
    M = Dphi1^T sigma_S Dphi1 = c^2 [beta I + gamma x x^T], the round metric
    in normal coordinates (do Carmo, Riemannian Geometry, ch. 5), with
    beta = (sin(c rho)/(c rho))^2, gamma = (1 - beta)/rho^2.  Every operation
    acts row by row, on (m,) columns: the ambient vectors u = x1 e1 + x2 e2
    and P = phi1's point in R^3 are lists of their three coordinates."""
    x1, x2 = x[:, 0], x[:, 1]
    rho = np.sqrt(x1 * x1 + x2 * x2)    # np.linalg.norm's sum, in order
    th = c * rho
    sin, cos = np.sin(th), np.cos(th)
    # s = sin(c rho)/rho, series-switched near the origin
    s = _switched(rho, 1e-6, lambda: c * (1.0 - th ** 2 / 6.0),
                  lambda r: sin / r)
    u = [x1 * a + x2 * b for a, b in zip(e1, e2)]
    P = [cos * a + s * b for a, b in zip(p0, u)]
    y = np.empty((len(x), 2), order="F")
    np.arccos(np.minimum(np.maximum(P[2], -1.0), 1.0), out=y[:, 0])
    np.arctan2(P[1], P[0], out=y[:, 1])
    # c^2 beta = s^2; c^2 gamma = (c^2 - s^2)/rho^2 cancels below th = 0.3,
    # where it is its series in w = th^2 to w^6 (the rest < 1e-17 of it)
    w = th * th
    cg = _switched(rho, 0.3 / c, lambda: c ** 4 * (1 / 3 - w * (
        2 / 45 - w * (1 / 315 - w * (2 / 14175 - w * (
            2 / 467775 - w * (4 / 42567525 - w / 638512875)))))),
        lambda r: (c * c - s * s) / (r * r))
    M = np.empty((len(x), 2, 2), order="F")
    M[:, 0, 0], M[:, 1, 1] = s * s + cg * x1 * x1, s * s + cg * x2 * x2
    M[:, 0, 1] = M[:, 1, 0] = cg * x1 * x2
    return y, M


def radial_chart(manifold: CenteredManifold, t0: float, xi: float = 1.0,
                 y0=None, grid: Optional[GridSpec] = None) -> RadialChart:
    """Chart of excess xi centered at sphere point y0, radius t0, sampling
    on `grid` (by default the manifold's).

    The map scale is c = 2 e^{-t0}, which sends the hyperbolic model onto
    sigma up to O(e^{-2 t0}).  Raises DomainError when the chart image does
    not fit inside the manifold's coordinate windows.
    """
    n = manifold.n
    g = manifold.metric
    chart = ChartModel(n=n, xi=xi, grid=grid or manifold.grid)
    c = 2.0 * np.exp(-t0)
    r_lo, r_hi = manifold.r_range
    _check_window("radial", t0 - (1.0 + xi), t0 + (1.0 + xi), r_lo, r_hi)

    if n == 2:
        theta0 = 0.0 if y0 is None else float(np.atleast_1d(y0)[0])
        (tlo, thi) = g.domain.bounds[0]
        _check_window("angular", theta0 - c, theta0 + c, tlo, thi)
        return RadialChart(t0=float(t0), scale=float(c), sphere=lambda x: (
            theta0 + c * x, np.full((len(x), 1, 1), c)), affine=True,
            chart=chart)

    if n != 3:
        raise ValueError("only n = 2 and n = 3 charts are implemented")

    phi0, psi0 = (np.pi / 2.0, 0.0) if y0 is None else map(float, y0)
    (plo, phi_hi), (qlo, qhi) = g.domain.bounds[:2]
    # conservative fit check: the exp-map image is a geodesic disc of radius c
    _check_window("colatitude", phi0 - 1.05 * c, phi0 + 1.05 * c, plo, phi_hi)
    span = 1.05 * np.arcsin(np.sin(c) / np.sin(phi0))   # the disc's half-span
    _check_window("longitude", psi0 - span, psi0 + span, qlo, qhi)

    sf, cf, sq, cq = np.sin(phi0), np.cos(phi0), np.sin(psi0), np.cos(psi0)
    p0, e2 = np.array([sf * cq, sf * sq, cf]), np.array([-sq, cq, 0.0])
    e1 = np.array([cf * cq, cf * sq, -sf])     # p0 and its tangent frame
    return RadialChart(t0=float(t0), scale=float(c),
                       sphere=lambda x: _exp_map(x, c, p0, e1, e2),
                       affine=False, chart=chart)


def pullback(rc: RadialChart, g: RadialMetric) -> RadialMetric:
    """Chart pullback f(phi1(x), t + t0) M(x) + dt^2 of a polar metric
    g = f sigma_S + dr^2 whose block is its conformal factor f.

    Carries analytic jets when the sphere map is affine and g has a jet;
    otherwise derivatives come from finite differences at norm time.
    """
    if g.block.shape != (1, 1):
        raise ValueError(f"pullback of {g.name!r} needs a conformal block")

    def spatial(pts):
        q, M = rc.map_points(pts, g)
        f = g.spatial(q)
        # affine: M is the Jacobian J, and J f J keeps n = 2's values (jets)
        return M * f * M if rc.affine else f * M

    return RadialMetric.on_chart(rc.chart, spatial,
                                 analytic=rc.affine and g.has_jet,
                                 name=f"pull[{g.name};t0={rc.t0:g}]")


def radial_closeness(rc: RadialChart, g: RadialMetric) -> C2Norm:
    """|pullback(g) - sigma|_C2 on the chart grid."""
    return c2_norm(difference(pullback(rc, g), hyperbolic_model(rc.chart)),
                   rc.chart.grid)


def closeness_at(manifold: CenteredManifold, t0: float, xi: float = 1.0,
                 y0=None, grid: Optional[GridSpec] = None) -> C2Norm:
    """Radial closeness of the manifold at radius t0 (chart built in place)."""
    rc = radial_chart(manifold, t0, xi=xi, y0=y0, grid=grid)
    return radial_closeness(rc, manifold.metric)
