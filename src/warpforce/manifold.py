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
    RadialMetric,
    hyperbolic_model,
    metric_deviation,
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
    """A polar-form metric around a center, plus its construction params."""

    metric: RadialMetric
    kind: str
    params: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.metric.domain.dim

    @property
    def r_range(self):
        return self.metric.domain.bounds[-1]

    def to_json(self) -> dict:
        return {"kind": self.kind, "n": self.n,
                "r_range": list(self.r_range), "params": dict(self.params)}


def _sphere_domain(n: int, r_range) -> Domain:
    lo, hi = float(r_range[0]), float(r_range[1])
    if lo < 0.0:
        raise ValueError("radial window must stay in r >= 0")
    if n == 2:
        return Domain(bounds=((-np.pi, np.pi), (lo, hi)),
                      axis_names=("theta", "r"))
    if n == 3:
        return Domain(
            bounds=((_POLE_PAD, np.pi - _POLE_PAD), (-np.pi, np.pi), (lo, hi)),
            axis_names=("phi", "psi", "r"),
        )
    raise ValueError("only n = 2 and n = 3 manifolds are implemented")


def _sinh_spatial(n: int):
    """spatial(y, r) = sinh^2(r) sigma_S."""
    if n == 2:
        return lambda p: (np.sinh(p[:, -1]) ** 2)[:, None, None]

    def fn(p):
        s2 = np.sinh(p[:, -1]) ** 2
        f = s2 * np.sin(p[:, 0]) ** 2
        # diag(s2, f) times the identity: the off-diagonal zeros are exact
        return np.concatenate([s2[:, None], f[:, None]], axis=1)[:, :, None] \
            * np.eye(2)

    return fn


def punctured_hyperbolic(n: int = 2, r_range=(0.05, 16.0),
                         grid: Optional[GridSpec] = None) -> CenteredManifold:
    """Hyperbolic space minus its center: sinh^2(r) sigma_S + dr^2."""
    dom = _sphere_domain(n, r_range)
    metric = RadialMetric(dom, _sinh_spatial(n), analytic=True, grid=grid,
                          name=f"punctured{n}d")
    return CenteredManifold(metric=metric, kind="punctured",
                            params={"n": n, "r_range": list(map(float, r_range))})


def perturbed_hyperbolic(n: int = 2, amplitude: float = 1e-3,
                         sphere_mode: int = 3, radial_center: float = 5.0,
                         radial_width: float = 1.5, r_range=(0.05, 16.0),
                         grid: Optional[GridSpec] = None) -> CenteredManifold:
    """Conformal perturbation of the punctured model:

        spatial = (1 + A cos(m ang) exp(-((r-rc)/rw)^2)) sinh^2(r) sigma_S

    with ang = theta (n = 2) or the longitude psi (n = 3).  |A| < 1 keeps the
    factor positive; anything else is refused.
    """
    if not abs(amplitude) < 1.0:
        raise GenerationError(
            f"conformal amplitude {amplitude:g} would break positivity "
            f"(need |A| < 1)")
    if radial_width <= 0.0:
        raise GenerationError("radial_width must be positive")
    dom = _sphere_domain(n, r_range)
    base_fn = _sinh_spatial(n)
    ang_axis = 0 if n == 2 else 1
    A, mm, rc, rw = float(amplitude), int(sphere_mode), \
        float(radial_center), float(radial_width)

    def fn(p):
        u = (p[:, -1] - rc) / rw
        factor = 1.0 + A * np.cos(mm * p[:, ang_axis]) * np.exp(-u ** 2)
        return factor[:, None, None] * base_fn(p)

    metric = RadialMetric(dom, fn, analytic=True, grid=grid,
                          name=f"perturbed{n}d")
    params = {"n": n, "amplitude": A, "sphere_mode": mm,
              "radial_center": rc, "radial_width": rw,
              "r_range": list(map(float, r_range))}
    return CenteredManifold(metric=metric, kind="perturbed", params=params)


def manifold_from_config(cfg: dict) -> CenteredManifold:
    if not isinstance(cfg, dict):
        raise ValueError(f"manifold config must be an object, got {cfg!r}")
    kind = cfg.get("kind", "punctured")
    n = int(cfg.get("n", 2))
    r_range = cfg.get("r_range", (0.05, 16.0))
    if kind == "punctured":
        return punctured_hyperbolic(n=n, r_range=r_range)
    if kind == "perturbed":
        return perturbed_hyperbolic(
            n=n,
            amplitude=float(cfg.get("amplitude", 1e-3)),
            sphere_mode=int(cfg.get("sphere_mode", 3)),
            radial_center=float(cfg.get("radial_center", 5.0)),
            radial_width=float(cfg.get("radial_width", 1.5)),
            r_range=r_range,
        )
    raise ValueError(f"unknown manifold kind {kind!r}")


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
        sphere map's Jacobian at them."""
        y, J = self.sphere(pts[:, :self.chart.k])
        r = pts[:, -1] + self.t0
        return np.concatenate([y, r[:, None]], axis=1), J


def _check_window(name: str, lo: float, hi: float, wlo: float, whi: float):
    if lo < wlo or hi > whi:
        raise DomainError(
            f"chart {name} image [{lo:.4g}, {hi:.4g}] does not fit the "
            f"manifold window ({wlo:.4g}, {whi:.4g})")


def radial_chart(manifold: CenteredManifold, t0: float, xi: float = 1.0,
                 y0=None, grid: Optional[GridSpec] = None) -> RadialChart:
    """Chart of excess xi centered at sphere point y0, radius t0.

    The map scale is c = 2 e^{-t0}, which sends the hyperbolic model onto
    sigma up to O(e^{-2 t0}).  Raises DomainError when the chart image does
    not fit inside the manifold's coordinate windows.
    """
    n = manifold.n
    g = manifold.metric
    chart = ChartModel(n=n, xi=xi, grid=grid or g.grid)
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
    (plo, phi_hi) = g.domain.bounds[0]
    (qlo, qhi) = g.domain.bounds[1]
    # conservative fit check: the exp-map image is a geodesic disc of radius c
    _check_window("colatitude", phi0 - 1.05 * c, phi0 + 1.05 * c, plo, phi_hi)
    span = 1.05 * c / max(np.sin(min(phi0 + c, np.pi - phi0 + c,
                                     np.pi / 2.0)), 1e-9)
    _check_window("longitude", psi0 - span, psi0 + span, qlo, qhi)

    p0 = np.array([np.sin(phi0) * np.cos(psi0),
                   np.sin(phi0) * np.sin(psi0),
                   np.cos(phi0)])
    e1 = np.array([np.cos(phi0) * np.cos(psi0),
                   np.cos(phi0) * np.sin(psi0),
                   -np.sin(phi0)])
    e2 = np.array([-np.sin(psi0), np.cos(psi0), 0.0])

    def sphere(x):
        rho = np.linalg.norm(x, axis=1)
        th = c * rho
        # s = sin(c rho)/rho, series-switched near the origin
        small = rho < 1e-6
        safe = np.where(small, 1.0, rho)
        s = np.where(small, c * (1.0 - th ** 2 / 6.0), np.sin(th) / safe)
        u = x[:, 0, None] * e1 + x[:, 1, None] * e2
        P = np.cos(th)[:, None] * p0 + s[:, None] * u
        phi = np.arccos(np.clip(P[:, 2], -1.0, 1.0))
        psi = np.arctan2(P[:, 1], P[:, 0])

        small = rho < 1e-4
        safe = np.where(small, 1.0, rho)
        # q = d(s)/d(rho) / rho, regular at the origin
        q = np.where(
            small,
            -(c ** 3) / 3.0 * (1.0 - th ** 2 / 10.0),
            (c * safe * np.cos(th) - np.sin(th)) / safe ** 3,
        )
        dP = np.empty((len(x), 2, 3))
        for i, ei in enumerate((e1, e2)):
            dP[:, i] = (-c * s * x[:, i])[:, None] * p0 \
                + (q * x[:, i])[:, None] * u + s[:, None] * ei
        sin_phi2 = np.maximum(1.0 - P[:, 2] ** 2, 1e-18)
        dphi = -dP[:, :, 2] / np.sqrt(sin_phi2)[:, None]
        dpsi = (P[:, 0, None] * dP[:, :, 1] - P[:, 1, None] * dP[:, :, 0]) \
            / sin_phi2[:, None]
        # rows: output coords (phi, psi); columns: inputs x1, x2
        return np.stack([phi, psi], axis=1), np.stack([dphi, dpsi], axis=1)

    return RadialChart(t0=float(t0), scale=float(c), sphere=sphere,
                       affine=False, chart=chart)


def pullback(rc: RadialChart, g: RadialMetric,
             name: Optional[str] = None) -> RadialMetric:
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
        return np.einsum("mab,mac,mcd->mbd", J, S, J)

    return RadialMetric.on_chart(rc.chart, spatial,
                                 analytic=rc.affine and g.has_jet,
                                 name=name or f"pull[{g.name};t0={rc.t0:g}]")


def radial_closeness(rc: RadialChart, g: RadialMetric,
                     grid: Optional[GridSpec] = None) -> C2Norm:
    """|pullback(g) - sigma|_C2 on the chart grid."""
    pb = pullback(rc, g)
    return metric_deviation(pb, hyperbolic_model(rc.chart), grid=grid)


def closeness_at(manifold: CenteredManifold, t0: float, xi: float = 1.0,
                 y0=None, grid: Optional[GridSpec] = None) -> C2Norm:
    """Radial closeness of the manifold at radius t0 (chart built in place)."""
    rc = radial_chart(manifold, t0, xi=xi, y0=y0, grid=grid)
    return radial_closeness(rc, manifold.metric, grid=grid)
