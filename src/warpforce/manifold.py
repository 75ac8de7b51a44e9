"""Synthetic centered manifolds, radial charts, and pullbacks.

A centered manifold is given in polar form around its center: a RadialMetric
spatial(y, r) + dr^2 over sphere coordinates y, on a radial window inside
r >= 0.  Two families are built here:

* punctured_hyperbolic: sinh^2(r) sigma_S + dr^2 for n = 2 (circle coordinate
  theta) and n = 3 (colatitude/longitude, sigma_S = diag(1, sin^2 phi));
* perturbed_hyperbolic: the same with a conformal factor
  1 + A cos(m ang) exp(-((r - rc)/rw)^2) on the spatial block.

A radial chart at radius t0 maps the product model B^{n-1} x I_xi into polar
coordinates by (x, t) |-> (phi1(x), t + t0) with scale c = 2 e^{-t0}, so that
the hyperbolic pullback lands near sigma = e^{2t} dx^2 + dt^2.  Its sphere
map returns phi1(x) and the Jacobian Dphi1(x) from one evaluation.  For n = 2
it is affine (theta = theta0 + c x) and pullbacks carry analytic jets; for
n = 3 it is the sphere exponential map and pullbacks fall back to finite
differences.
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
    GenerationError,
    GridSpec,
    Jet,
    RadialMetric,
    _diag,
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


def _sinh_diagonal(n: int, p) -> list:
    """The diagonal of sinh^2(r) sigma_S at points p, as (m,) columns;
    sin^2 phi is evaluated once per run of equal phi (see _per_run)."""
    s2 = np.sinh(p[:, -1]) ** 2
    return [s2] if n == 2 else [
        s2, s2 * _per_run(lambda y: np.sin(y[:, 0]) ** 2, p[:, :1])]


def punctured_hyperbolic(n: int = 2, r_range=(0.05, 16.0),
                         grid: Optional[GridSpec] = None) -> CenteredManifold:
    """Hyperbolic space minus its center: sinh^2(r) sigma_S + dr^2.  For
    n = 3, sin^2 phi is evaluated once per run of equal phi (see
    _sinh_diagonal)."""
    dom = _sphere_domain(n, r_range)
    metric = RadialMetric(dom, lambda p: _diag(_sinh_diagonal(n, p)),
                          analytic=True, name=f"punctured{n}d")
    return CenteredManifold(metric=metric, kind="punctured",
                            params={"n": n, "r_range": list(map(float, r_range))},
                            grid=grid or GridSpec())


def perturbed_hyperbolic(n: int = 2, amplitude: float = 1e-3,
                         sphere_mode: int = 3, radial_center: float = 5.0,
                         radial_width: float = 1.5, r_range=(0.05, 16.0),
                         grid: Optional[GridSpec] = None) -> CenteredManifold:
    """Conformal perturbation of the punctured model:

        spatial = (1 + A cos(m ang) exp(-((r-rc)/rw)^2)) sinh^2(r) sigma_S

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
        return _diag([factor * c for c in _sinh_diagonal(n, p)])

    metric = RadialMetric(dom, fn, analytic=True, name=f"perturbed{n}d")
    params = {"n": n, "amplitude": A, "sphere_mode": mm,
              "radial_center": rc, "radial_width": rw,
              "r_range": list(map(float, r_range))}
    return CenteredManifold(metric=metric, kind="perturbed", params=params,
                            grid=grid or GridSpec())


_KINDS = {"punctured": punctured_hyperbolic, "perturbed": perturbed_hyperbolic}


def manifold_from_config(cfg: dict) -> CenteredManifold:
    """The manifold of a config object: its "kind" (default "punctured")
    and the keyword arguments of that kind's constructor, except grid, read
    against the constructor's defaults (see read_config)."""
    kind = (cfg if isinstance(cfg, dict) else {}).get("kind", "punctured")
    build = _KINDS.get(kind) if isinstance(kind, str) else None
    if build is None:
        raise ValueError(f"unknown manifold kind {kind!r}")
    defaults = {"kind": kind} | {
        k: p.default for k, p in inspect.signature(build).parameters.items()
        if k != "grid"}
    kw = read_config(cfg, defaults, "manifold")
    kw.pop("kind", None)
    return build(**kw)


# ---------------------------------------------------------------------------
# radial charts


@dataclass(frozen=True)
class RadialChart:
    """Product chart (x, t) |-> (phi1(x), t + t0) into polar coordinates.

    sphere(x) returns (phi1(x), Dphi1(x)) for (m, k) points x: the sphere
    coordinates (m, k) and the Jacobian (m, k, k), rows the outputs.
    """

    t0: float
    scale: float
    sphere: Callable
    affine: bool
    chart: ChartModel

    def map_points(self, pts):
        """(q, J): the polar points (m, n) of chart points (m, n) and the
        sphere map's Jacobian at them; at arrays, q is column-major."""
        y, J = self.sphere(pts[:, :self.chart.k])
        r = pts[:, -1] + self.t0
        if isinstance(y, Jet):
            return np.concatenate([y, r[:, None]], axis=1), J
        q = np.empty((len(r), self.chart.n), order="F")
        q[:, :-1], q[:, -1] = y, r
        return q, J


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
    """(phi1(x), Dphi1(x)) of phi1(x) = exp_p0(c (x1 e1 + x2 e2)) in
    (colatitude, longitude), as column-major (m, 2) and (m, 2, 2) arrays.
    Every operation acts row by row, on (m,) columns: the ambient vectors
    u = x1 e1 + x2 e2, P = phi1's point in R^3 and dP/dx_i are lists of
    their three coordinates."""
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
    # q = d(s)/d(rho) / rho, regular at the origin
    q = _switched(rho, 1e-4, lambda: -(c ** 3) / 3.0 * (1.0 - th ** 2 / 10.0),
                  lambda r: (c * r * cos - sin) / r ** 3)
    sin_phi2 = np.maximum(1.0 - P[2] ** 2, 1e-18)
    sin_phi = np.sqrt(sin_phi2)
    # rows: output coords (phi, psi); columns: inputs x1, x2
    J = np.empty((len(x), 2, 2), order="F")
    for i, (xi, ei) in enumerate(((x1, e1), (x2, e2))):
        a, b = -c * s * xi, q * xi
        dP = [a * p + b * w + s * e for p, w, e in zip(p0, u, ei)]
        np.divide(-dP[2], sin_phi, out=J[:, 0, i])
        np.divide(P[0] * dP[1] - P[1] * dP[0], sin_phi2, out=J[:, 1, i])
    return y, J


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
        J0 = np.array([[c]])

        def sphere(x):
            return theta0 + c * x, np.tile(J0, (len(x), 1, 1))

        return RadialChart(t0=float(t0), scale=float(c), sphere=sphere,
                           affine=True, chart=chart)

    if n != 3:
        raise ValueError("only n = 2 and n = 3 charts are implemented")

    phi0, psi0 = (np.pi / 2.0, 0.0) if y0 is None else map(float, y0)
    (plo, phi_hi), (qlo, qhi) = g.domain.bounds[:2]
    # conservative fit check: the exp-map image is a geodesic disc of radius c
    _check_window("colatitude", phi0 - 1.05 * c, phi0 + 1.05 * c, plo, phi_hi)
    span = 1.05 * np.arcsin(np.sin(c) / np.sin(phi0))   # the disc's half-span
    _check_window("longitude", psi0 - span, psi0 + span, qlo, qhi)

    p0 = np.array([np.sin(phi0) * np.cos(psi0),
                   np.sin(phi0) * np.sin(psi0),
                   np.cos(phi0)])
    e1 = np.array([np.cos(phi0) * np.cos(psi0),
                   np.cos(phi0) * np.sin(psi0),
                   -np.sin(phi0)])
    e2 = np.array([-np.sin(psi0), np.cos(psi0), 0.0])

    def sphere(x):
        return _per_run(lambda u: _exp_map(u, c, p0, e1, e2), x)

    return RadialChart(t0=float(t0), scale=float(c), sphere=sphere,
                       affine=False, chart=chart)


def _sandwich(J, S):
    """J^T S J of (m, k, k) stacks, entry by entry from (m,) columns, in the
    order of (J^T S) J: `@` would call BLAS once per k x k matrix.  out,
    like J (_per_run) and S (_diag), is column-major: each column is
    contiguous."""
    k = J.shape[1]
    out = np.empty(J.shape, order="F")
    T = np.empty((k, len(J)))      # a row of J^T S
    tmp = np.empty(len(J))

    def dot(us, vs, acc):          # acc = sum_a us[a] * vs[a], in order
        np.multiply(us[0], vs[0], out=acc)
        for u, v in zip(us[1:], vs[1:]):
            acc += np.multiply(u, v, out=tmp)

    for i in range(k):
        for b in range(k):
            dot(J[:, :, i].T, S[:, :, b].T, T[b])
        for j in range(k):
            dot(T, J[:, :, j].T, out[:, i, j])
    return out


def pullback(rc: RadialChart, g: RadialMetric) -> RadialMetric:
    """Chart pullback (Dphi1^T spatial Dphi1)(phi1(x), t+t0) + dt^2.

    Carries analytic jets when the sphere map is affine and g has a jet;
    otherwise derivatives come from finite differences at norm time.
    """
    def spatial(pts):
        q, J = rc.map_points(pts)
        at = np.asarray(q)     # the points themselves, also when q is a Jet
        ok = g.domain.contains(at)
        if not ok.all():
            bad = at[~ok][0]
            raise DomainError(
                f"pullback of {g.name!r} hit coordinates "
                f"{tuple(round(float(v), 6) for v in bad)} outside its window")
        S = g.spatial(q)
        # n = 2 has 1 x 1 blocks: the broadcast product is bitwise the
        # matmul (and carries jets)
        return J * S * J if J.shape[1:] == (1, 1) else _sandwich(J, S)

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
