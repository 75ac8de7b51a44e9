"""Warp profiles and warp-forcing operators.

Two 1-D profiles drive everything:

* BumpFunction: a smooth cutoff rho with rho = 1 below delta and rho = 0 above
  1/2 - delta, built from the standard exp-quotient smoothstep.  Its weighted
  C2 norm follows from the smoothstep's exact sups and is certified below 48.
* WarpFunction: nu(t) = e^{-2t} (sinh(t+t0) / sinh t0)^2 for t0 > 2, evaluated
  in the cancelled form ((1 - e^{-2(t+t0)}) / (1 - e^{-2t0}))^2 which is stable
  for large t and satisfies nu(0) = 1 exactly.

The operators act on RadialMetric (g = spatial + d(last axis)^2), on charts
and in polar form alike, and compose on the spatial block, of any size:

* radial_slice(g, s): the spatial block frozen at last-axis value s;
* apply_warp(g, nu): nu(last axis) g_spatial + d(last axis)^2;
* blend(g1, g2, lam): lam g1 + (1 - lam) g2;
* warped_extension(a, s, chart): e^{2(t-s)} a + dt^2, and
  sinh_warped_cut(g, r0): (sinh^2 r / sinh^2 r0) g_{r0} + dr^2, both a frozen
  slice times a profile of the last axis;
* warp_force(g, r0, rho), the deformation

    W_{r0} g = rho_{r0} bar_g_{r0} + (1 - rho_{r0}) g

which equals the sinh-warped cut bar_g_{r0} inside radius r0 + delta and g
again beyond r0 + 1/2 - delta.  Plateaus are exact: the profile returns
literal 0.0 / 1.0 there, so the blend reproduces the corresponding metric
bitwise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from warpforce.model import (
    CertificationError,
    ChartModel,
    Domain,
    DomainError,
    Field,
    Jet,
    RadialMetric,
    _per_run,
    profile_scalar,
)

__all__ = [
    "BumpFunction",
    "WarpFunction",
    "radial_slice",
    "warped_extension",
    "apply_warp",
    "blend",
    "RadialMetric",
    "sinh_warped_cut",
    "warp_force",
]


# ---------------------------------------------------------------------------
# smoothstep core: S(v) = 1 / (1 + e^{g(v)}), g(v) = 1/v - 1/(1-v)
# S == 0 for v <= 0 and S == 1 for v >= 1 by construction (exact branches).


def _step_jet(v):
    v = np.asarray(v, dtype=float)
    s = np.where(v >= 1.0, 1.0, 0.0)
    d1 = np.zeros_like(v)
    d2 = np.zeros_like(v)
    mid = (v > 0.0) & (v < 1.0)
    if np.any(mid):
        vi = v[mid]
        g = 1.0 / vi - 1.0 / (1.0 - vi)
        # evaluate the logistic against the sign of g to avoid overflow
        eg = np.exp(-np.abs(g))
        sm = np.where(g >= 0.0, eg / (1.0 + eg), 1.0 / (1.0 + eg))
        s1ms = eg / (1.0 + eg) ** 2
        gp = -(1.0 / vi ** 2 + 1.0 / (1.0 - vi) ** 2)
        gpp = 2.0 / vi ** 3 - 2.0 / (1.0 - vi) ** 3
        s[mid] = sm
        d1[mid] = -gp * s1ms
        d2[mid] = s1ms * (-gpp + gp ** 2 * (1.0 - 2.0 * sm))
    return s, d1, d2


# sup |S'| and sup |S''| over [0, 1], exact.  S' = -g' S (1 - S) peaks at
# v = 1/2, where S = 1/2 and g' = -8: sup |S'| = 2.  sup |S''| =
# 9.84104230183114470521... at the root v = 0.21825582918606862... of S'''
# on (0, 1/2) (mpmath, 50 digits; |S''| is symmetric about 1/2), written
# rounded up, 3 ulps above, so that the certified C2 norm bounds the bump's.
_STEP_SUP_D1, _STEP_SUP_D2 = 2.0, 9.84104230183115

_BUMP_BOUND = 48.0    # the C2 norm every bump must certify below


class BumpFunction:
    """Smooth cutoff: 1 on (-inf, delta], 0 on [1/2 - delta, inf).

    The transition runs over (delta, 1/2 - delta) via the exp-quotient
    smoothstep.  The weighted C2 norm (value 1, sup|rho'|, sup|rho''|/2) is
    formed at construction from the step's sups, an upper bound; a
    CertificationError is raised if it does not stay below 48.
    """

    def __init__(self, delta: float = 0.05):
        if not 0.0 < delta < 0.25:
            raise ValueError("delta must lie in (0, 0.25)")
        self.delta = float(delta)
        self.plateau_end = self.delta
        self.support_end = 0.5 - self.delta
        self.width = self.support_end - self.plateau_end
        self.sup_abs_d1 = _STEP_SUP_D1 / self.width
        self.sup_abs_d2 = _STEP_SUP_D2 / self.width ** 2
        self.per_order_sups = {
            "1": 1.0,
            "dt": self.sup_abs_d1,
            "dtdt": 0.5 * self.sup_abs_d2,
        }
        self.certified_c2 = max(self.per_order_sups.values())
        if not self.certified_c2 < _BUMP_BOUND:
            raise CertificationError(
                f"bump with delta={self.delta:g} has C2 norm "
                f"{self.certified_c2:.4f} >= required bound {_BUMP_BOUND:g}"
            )

    def __call__(self, t):
        if isinstance(t, Jet):
            return t.chain(*self.jet(t.v))
        return self.jet(t)[0]

    def vanishes_from(self, s: float) -> bool:
        """True when rho is exactly 0.0 at every argument t >= s.  jet's
        v = (t - plateau_end) / width rounds monotonely in t, and the step
        is exactly 1 wherever v >= 1.0, so v at s decides it."""
        return (s - self.plateau_end) / self.width >= 1.0

    def jet(self, t):
        v = (np.asarray(t, dtype=float) - self.plateau_end) / self.width
        s, d1, d2 = _step_jet(v)
        return 1.0 - s, -d1 / self.width, -d2 / self.width ** 2


class WarpFunction:
    """nu(t) = e^{-2t} (sinh(t+t0)/sinh t0)^2, evaluated cancellation-free.

    With q(t) = 1 - e^{-2(t+t0)} and q0 = q(0), nu = (q/q0)^2; nu(0) = 1
    exactly and nu(t) -> 1/q0^2 as t -> infinity.  One formula serves
    arrays and Jets; on a Jet, q' is formed as 2 e^{-2(t+t0)} by the chain
    rule, not as 2(1 - q), which would cancel.  Requires t0 > 2 and
    evaluation points with t + t0 > 0.
    """

    def __init__(self, t0: float):
        if not t0 > 2.0:
            raise ValueError(f"warp function requires t0 > 2, got {t0:g}")
        self.t0 = float(t0)
        self._c = 1.0 / (1.0 - np.exp(-2.0 * self.t0)) ** 2     # 1 / q0^2

    def __call__(self, t):
        if not isinstance(t, Jet):
            t = np.asarray(t, dtype=float)
        v = t.v if isinstance(t, Jet) else t
        if np.any(v + self.t0 <= 0.0):
            bad = float(v[np.argmin(v + self.t0)] if v.ndim else v)
            raise DomainError(
                f"warp function with t0={self.t0:g} evaluated at t={bad:g} "
                f"(requires t + t0 > 0)"
            )
        return self._c * (1.0 - np.exp(-2.0 * (t + self.t0))) ** 2


# ---------------------------------------------------------------------------
# operators on split metrics


def _sphere_part(domain: Domain) -> Domain:
    return Domain(bounds=domain.bounds[:-1], axis_names=domain.axis_names[:-1],
                  ball_axes=domain.ball_axes, closed=domain.closed)


def radial_slice(g: RadialMetric, s: float) -> Field:
    """g_s: the spatial block frozen at last-axis value s (open window)."""
    lo, hi = g.domain.bounds[-1]
    axis = g.domain.axis_names[-1]
    if not lo < s < hi:
        raise DomainError(f"slice level {axis}={s:g} outside radial window "
                          f"({lo:g}, {hi:g})")

    def fn(y):
        return g.spatial(np.concatenate([y, np.full((len(y), 1), s)], axis=1))

    return Field(_sphere_part(g.domain), fn, analytic=g.has_jet,
                 shape=g.block.shape, name=f"{g.name}|{axis}={s:g}")


def apply_warp(g: RadialMetric, nu, s: float = 0.0,
               name: Optional[str] = None) -> RadialMetric:
    """g_nu = nu(t - s) g_t + dt^2 for a 1-D warp profile nu."""
    w = profile_scalar(g.domain, nu if s == 0.0 else lambda t: nu(t - s))

    def spatial(pts):
        return w(pts)[:, None, None] * g.spatial(pts)

    return RadialMetric(g.domain, spatial, analytic=g.has_jet and w.has_jet,
                        name=name or f"warp[{g.name}]", chart=g.chart,
                        k=g.block.shape[0])


def _rewarp(a: Field, w, domain: Domain, chart: Optional[ChartModel],
            name: str) -> RadialMetric:
    """w(last axis) a + d(last axis)^2: the frozen slice a, extended
    constantly along the last axis (evaluated once per run of equal leading
    axes), then warped by the 1-D profile w.  The block is a's."""
    lead = domain.dim - 1
    if a.domain.dim != lead:
        raise ValueError("spatial metric dimension does not match chart")
    frozen = RadialMetric(domain, lambda pts: _per_run(a, pts[:, :lead]),
                          analytic=a.has_jet, name=a.name, chart=chart,
                          k=a.shape[0])
    return apply_warp(frozen, w, name=name)


def warped_extension(a: Field, s: float, chart: ChartModel) -> RadialMetric:
    """The warped metric e^{2(t-s)} a + dt^2 on the chart."""
    return _rewarp(a, lambda t: np.exp(2.0 * (t - s)),
                   chart.domain, chart, f"ext[{a.name};s={s:g}]")


def blend(g1: RadialMetric, g2: RadialMetric, lam: Field,
          name: Optional[str] = None) -> RadialMetric:
    """lambda g1 + (1 - lambda) g2 for a scalar field lambda on the domain.

    The last-axis block stays exactly 1.  Where lambda is exactly 1.0 (resp.
    0.0) the blend reproduces g1 (resp. g2) bitwise; on a batch where it is
    so on every row, the other metric is not evaluated.  Otherwise
    (1 - lambda) g2 is formed first, so that neither lambda g1 nor 1 -
    lambda is held while g2 (warp_force's manifold metric, the heavier
    operand) is evaluated; the sum is lambda g1 + (1 - lambda) g2 all the
    same.
    """
    if (g1.domain.dim, g1.block.shape) != (g2.domain.dim, g2.block.shape):
        raise ValueError("metric dimensions differ")

    def spatial(pts):
        l = lam(pts)
        w = np.asarray(l)          # the values, also when l is a Jet
        if not w.any():
            return g2.spatial(pts)
        if (w == 1.0).all():
            return g1.spatial(pts)
        rest = (1.0 - l)[:, None, None] * g2.spatial(pts)
        return l[:, None, None] * g1.spatial(pts) + rest

    return RadialMetric(g1.domain, spatial,
                        analytic=g1.has_jet and g2.has_jet and lam.has_jet,
                        name=name or f"blend[{g1.name},{g2.name}]",
                        chart=g1.chart, k=g1.block.shape[0])


def sinh_warped_cut(g: RadialMetric, r0: float) -> RadialMetric:
    """bar_g_{r0} = sinh^2(r) ghat_{r0} + dr^2 = (sinh^2 r / sinh^2 r0) g_{r0} + dr^2."""
    cut = radial_slice(g, r0)       # refuses r0 outside before sinh overflows
    s2 = np.sinh(r0) ** 2
    return _rewarp(cut, lambda r: np.sinh(r) ** 2 / s2,
                   g.domain, g.chart, f"bar[{g.name};r0={r0:g}]")


def warp_force(g: RadialMetric, r0: float, rho: BumpFunction) -> RadialMetric:
    """W_{r0} g = rho_{r0} bar_g_{r0} + (1 - rho_{r0}) g.

    Equals bar_g_{r0} bitwise where rho_{r0} = 1 (r <= r0 + delta) and g
    bitwise where rho_{r0} = 0 (r >= r0 + 1/2 - delta).
    """
    return blend(sinh_warped_cut(g, r0), g,
                 profile_scalar(g.domain, lambda r: rho(r - r0)),
                 name=f"force[{g.name};r0={r0:g}]")
