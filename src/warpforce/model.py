"""Chart-grid fields, weighted C2 norms, and the hyperbolic reference metric.

A chart carries coordinates (x_1, ..., x_{n-1}, t): spatial coordinates in the
unit ball of R^{n-1} and a radial coordinate t in (-(1+xi), 1+xi), where xi > 0
is the chart excess.  Fields evaluate on (m, d) batches of points, sample on
their own GridSpec, and may carry analytic jets (value, gradient, hessian);
norms fall back to second-order central differences when no jet is available.

Every metric in the package is a RadialMetric: a spatial block over the
leading axes plus d(last axis)^2, on a chart (last axis t) or in polar form
around a center (last axis r).

The C2 norm used throughout is the Taylor-weighted max

    |f|_C2 = max_{|a| <= 2} sup_x |d^a f(x)| / a!

taken componentwise over tensor entries.  The 1/a! weighting (1 on values,
first partials and mixed second partials, 1/2 on pure second partials) keeps
the norm submultiplicative up to the exact combinatorial factor 4 used by the
product estimates in `verify`.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np


class WarpforceError(Exception):
    """Base class for package errors."""


class DomainError(WarpforceError):
    """A point (or FD stencil point) fell outside a field's domain."""


class CertificationError(WarpforceError):
    """A constructed object failed its own quantitative certificate."""


class GenerationError(WarpforceError):
    """A synthetic instance violated a structural requirement (e.g. SPD)."""


# ---------------------------------------------------------------------------
# grids and domains


@dataclass(frozen=True)
class GridSpec:
    """Sampling resolution for norms and dumps.

    boundary_margin is a fraction of each axis extent; open domains are inset
    by it on both sides before gridding.  fd_step scales with axis extent.
    """

    points_per_axis: int = 64
    boundary_margin: float = 0.02
    fd_step: float = 1e-4

    def __post_init__(self):
        if self.points_per_axis < 4:
            raise ValueError("points_per_axis must be >= 4")
        if not 0.0 <= self.boundary_margin < 0.5:
            raise ValueError("boundary_margin must be in [0, 0.5)")
        if not 0.0 < self.fd_step < 0.1:
            raise ValueError("fd_step must be in (0, 0.1)")

    def halved(self) -> "GridSpec":
        return dataclasses.replace(
            self, points_per_axis=max(4, self.points_per_axis // 2)
        )

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box, optionally with the first `ball_axes` axes restricted
    to the open unit ball.  Open domains grid with a margin inset; closed
    domains include their endpoints (used for 1-D profile windows whose sups
    sit on the boundary)."""

    bounds: tuple
    axis_names: tuple
    ball_axes: int = 0
    closed: bool = False

    def __post_init__(self):
        if len(self.bounds) != len(self.axis_names):
            raise ValueError("bounds and axis_names length mismatch")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"degenerate axis bounds ({lo}, {hi})")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def extents(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.bounds])

    def axis_points(self, spec: GridSpec) -> list:
        axes = []
        for lo, hi in self.bounds:
            if self.closed:
                a, b = lo, hi
            else:
                m = spec.boundary_margin * (hi - lo)
                a, b = lo + m, hi - m
            axes.append(np.linspace(a, b, spec.points_per_axis))
        return axes

    def grid(self, spec: GridSpec) -> np.ndarray:
        """Full product grid as an (m, dim) array, ball-masked if needed."""
        axes = self.axis_points(spec)
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        if self.ball_axes >= 2:
            cut = 1.0 - 2.0 * spec.boundary_margin
            r = np.linalg.norm(pts[:, : self.ball_axes], axis=1)
            pts = pts[r <= cut]
        return pts

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        ok = np.ones(len(pts), dtype=bool)
        for i, (lo, hi) in enumerate(self.bounds):
            if self.closed:
                ok &= (pts[:, i] >= lo) & (pts[:, i] <= hi)
            else:
                ok &= (pts[:, i] > lo) & (pts[:, i] < hi)
        if self.ball_axes >= 2:
            r = np.linalg.norm(pts[:, : self.ball_axes], axis=1)
            ok &= (r <= 1.0) if self.closed else (r < 1.0)
        return ok


def interval_domain(lo: float, hi: float, name: str = "t",
                    closed: bool = True) -> Domain:
    """1-D window, closed by default: profile sups often live at endpoints."""
    return Domain(bounds=((lo, hi),), axis_names=(name,), closed=closed)


def ball_domain(k: int) -> Domain:
    names = tuple(f"x{i + 1}" for i in range(k))
    return Domain(bounds=((-1.0, 1.0),) * k, axis_names=names,
                  ball_axes=k if k >= 2 else 0)


@dataclass(frozen=True)
class ChartModel:
    """Product chart B^{n-1} x (-(1+xi), 1+xi) with its sampling spec."""

    n: int
    xi: float = 1.0
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.xi <= 0:
            raise ValueError("xi must be positive")

    @property
    def k(self) -> int:
        return self.n - 1

    @property
    def domain(self) -> Domain:
        names = tuple(f"x{i + 1}" for i in range(self.k)) + ("t",)
        bounds = ((-1.0, 1.0),) * self.k + ((-(1.0 + self.xi), 1.0 + self.xi),)
        return Domain(bounds=bounds, axis_names=names,
                      ball_axes=self.k if self.k >= 2 else 0)

    def grid_points(self, spec: Optional[GridSpec] = None) -> np.ndarray:
        return self.domain.grid(spec or self.grid)


# ---------------------------------------------------------------------------
# jets: (value, grad, hess) with shapes (m,*S), (m,d,*S), (m,d,d,*S)


def _expand(a: np.ndarray, s_ndim: int) -> np.ndarray:
    return a.reshape(a.shape + (1,) * s_ndim)


def jet_add(j1, j2, sign: float = 1.0):
    return tuple(a + sign * b for a, b in zip(j1, j2))


def jet_scale(j, c: float):
    return tuple(c * a for a in j)


def scalar_times_jet(sj, tj):
    """Leibniz rule to second order: scalar jet times tensor jet."""
    lv, l1, l2 = sj
    tv, t1, t2 = tj
    s = tv.ndim - 1
    v = _expand(lv, s) * tv
    d1 = _expand(l1, s) * tv[:, None] + _expand(lv, s)[:, None] * t1
    cross = _expand(l1, s)[:, :, None] * t1[:, None]
    d2 = (
        _expand(l2, s) * tv[:, None, None]
        + cross
        + np.swapaxes(cross, 1, 2)
        + _expand(lv, s)[:, None, None] * t2
    )
    return v, d1, d2


def constant_jet(values: np.ndarray, d: int):
    """Jet of a point-independent tensor batch (m,*S)."""
    m = values.shape[0]
    s = values.shape[1:]
    return (
        values,
        np.zeros((m, d) + s),
        np.zeros((m, d, d) + s),
    )


# ---------------------------------------------------------------------------
# fields


def _as_points(pts, d: int) -> np.ndarray:
    a = np.asarray(pts, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != d:
        raise ValueError(f"expected points of shape (m, {d}), got {a.shape}")
    return a


class Field:
    """A map from domain points to arrays of a fixed trailing shape, sampled
    on `grid` by default."""

    def __init__(self, domain: Domain, fn: Callable, jet: Optional[Callable] = None,
                 shape: tuple = (), name: str = "field",
                 grid: Optional[GridSpec] = None):
        self.domain = domain
        self.shape = tuple(shape)
        self.name = name
        self.grid = grid or GridSpec()
        self._fn = fn
        self._jet = jet

    @property
    def has_jet(self) -> bool:
        return self._jet is not None

    def __call__(self, pts) -> np.ndarray:
        return np.asarray(self._fn(_as_points(pts, self.domain.dim)))

    def jet(self, pts):
        if self._jet is None:
            raise WarpforceError(f"field {self.name!r} has no analytic jet")
        return self._jet(_as_points(pts, self.domain.dim))


class ScalarField(Field):
    def __init__(self, domain, fn, jet=None, name="scalar"):
        super().__init__(domain, fn, jet=jet, shape=(), name=name)


class SpatialMetric(Field):
    """k x k symmetric-matrix field over a spatial domain."""

    def __init__(self, domain, fn, jet=None, name="spatial"):
        k = domain.dim
        super().__init__(domain, fn, jet=jet, shape=(k, k), name=name)


class RadialMetric(Field):
    """Split metric spatial(p) + d(last axis)^2, the one metric type.

    The leading k = d - 1 domain axes carry the spatial block and the last
    axis is radial: t on a chart, r in polar form around a center.  spatial
    maps (m, d) points to (m, k, k) matrices; spatial_jet, when given,
    differentiates it in all d coordinates.  The full d x d value and jet
    embed the block with a unit last-axis entry.  Metrics built on a
    ChartModel keep it as `chart` (its excess xi and hyperbolic model feed
    the lemma checks); polar metrics have chart None.
    """

    def __init__(self, domain: Domain, spatial: Callable,
                 spatial_jet: Optional[Callable] = None,
                 grid: Optional[GridSpec] = None, name: str = "metric",
                 chart: Optional[ChartModel] = None):
        d = domain.dim
        k = d - 1

        def fn(pts):
            # the block first: its temporaries are freed before `out` exists
            S = np.asarray(spatial(pts))
            out = np.zeros((len(pts), d, d))
            out[:, :k, :k] = S
            out[:, k, k] = 1.0
            return out

        jet = None
        if spatial_jet is not None:
            def jet(pts):
                sv, s1, s2 = spatial_jet(pts)
                m = len(pts)
                v = np.zeros((m, d, d))
                v[:, :k, :k] = sv
                v[:, k, k] = 1.0
                d1 = np.zeros((m, d, d, d))
                d1[:, :, :k, :k] = s1
                d2 = np.zeros((m, d, d, d, d))
                d2[:, :, :, :k, :k] = s2
                return v, d1, d2

        super().__init__(domain, fn, jet=jet, shape=(d, d), name=name,
                         grid=grid)
        self.chart = chart
        self._spatial = spatial
        self._spatial_jet = spatial_jet

    @classmethod
    def on_chart(cls, chart: ChartModel, spatial: Callable,
                 spatial_jet: Optional[Callable] = None,
                 name: str = "metric") -> "RadialMetric":
        return cls(chart.domain, spatial, spatial_jet, grid=chart.grid,
                   name=name, chart=chart)

    def spatial(self, pts) -> np.ndarray:
        """(m, k, k) spatial block."""
        return np.asarray(self._spatial(_as_points(pts, self.domain.dim)))

    def spatial_jet(self, pts):
        if self._spatial_jet is None:
            raise WarpforceError(f"metric {self.name!r} has no analytic jet")
        return self._spatial_jet(_as_points(pts, self.domain.dim))


def hyperbolic_model(chart: ChartModel) -> RadialMetric:
    """sigma = e^{2t} (dx_1^2 + ... + dx_{n-1}^2) + dt^2."""
    k = chart.k
    eye = np.eye(k)

    def spatial(pts):
        return np.exp(2.0 * pts[:, -1])[:, None, None] * eye

    def spatial_jet(pts):
        m = len(pts)
        e2t = np.exp(2.0 * pts[:, -1])
        v = e2t[:, None, None] * eye
        d1 = np.zeros((m, chart.n, k, k))
        d1[:, -1] = 2.0 * v
        d2 = np.zeros((m, chart.n, chart.n, k, k))
        d2[:, -1, -1] = 4.0 * v
        return v, d1, d2

    return RadialMetric.on_chart(chart, spatial, spatial_jet, name="hyperbolic")


def difference(f: Field, g: Field, name: Optional[str] = None) -> Field:
    """Pointwise f - g on f's domain (shapes must agree)."""
    if f.shape != g.shape:
        raise ValueError("field shapes differ")
    jet = None
    if f.has_jet and g.has_jet:
        def jet(pts):
            return jet_add(f.jet(pts), g.jet(pts), sign=-1.0)
    return Field(f.domain, lambda pts: f(pts) - g(pts), jet=jet,
                 shape=f.shape, name=name or f"{f.name}-{g.name}", grid=f.grid)


def profile_scalar(domain: Domain, profile, shift: float = 0.0,
                   axis: int = -1, name: str = "profile") -> ScalarField:
    """Lift a 1-D profile p to the chart: f(x, t) = p(t - shift).

    The profile must be callable on 1-D arrays; if it exposes .jet(t) the
    lifted field carries an analytic jet along `axis`.
    """
    d = domain.dim
    ax = axis % d

    def fn(pts):
        return np.asarray(profile(pts[:, ax] - shift))

    jet = None
    if hasattr(profile, "jet"):
        def jet(pts):
            m = len(pts)
            v, p1, p2 = profile.jet(pts[:, ax] - shift)
            d1 = np.zeros((m, d))
            d1[:, ax] = p1
            d2 = np.zeros((m, d, d))
            d2[:, ax, ax] = p2
            return v, d1, d2

    return ScalarField(domain, fn, jet=jet, name=name)


def _poly_eval(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(pts))
    for powers in itertools.product(*(range(s) for s in coeffs.shape)):
        c = coeffs[powers]
        if c == 0.0:
            continue
        term = np.full(len(pts), c)
        for i, p in enumerate(powers):
            if p:
                term = term * pts[:, i] ** p
        out += term
    return out


def _poly_diff(coeffs: np.ndarray, axis: int) -> np.ndarray:
    s = coeffs.shape[axis]
    if s <= 1:
        return np.zeros_like(coeffs)
    sl_hi = [slice(None)] * coeffs.ndim
    sl_hi[axis] = slice(1, None)
    mult = np.arange(1, s).reshape([-1 if i == axis else 1
                                    for i in range(coeffs.ndim)])
    out = np.zeros_like(coeffs)
    sl_lo = [slice(None)] * coeffs.ndim
    sl_lo[axis] = slice(0, s - 1)
    out[tuple(sl_lo)] = coeffs[tuple(sl_hi)] * mult
    return out


def polynomial_scalar(domain: Domain, coeffs: np.ndarray,
                      name: str = "poly") -> ScalarField:
    """Multivariate polynomial with exact jets; coeffs[p1,...,pd] multiplies
    x1^p1 ... xd^pd."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != domain.dim:
        raise ValueError("coefficient array rank must match domain dim")
    d = domain.dim
    grads = [_poly_diff(coeffs, i) for i in range(d)]
    hess = [[_poly_diff(grads[i], j) for j in range(d)] for i in range(d)]

    def fn(pts):
        return _poly_eval(coeffs, pts)

    def jet(pts):
        m = len(pts)
        v = _poly_eval(coeffs, pts)
        d1 = np.stack([_poly_eval(grads[i], pts) for i in range(d)], axis=1)
        d2 = np.zeros((m, d, d))
        for i in range(d):
            for j in range(i, d):
                d2[:, i, j] = _poly_eval(hess[i][j], pts)
                if j > i:
                    d2[:, j, i] = d2[:, i, j]
        return v, d1, d2

    return ScalarField(domain, fn, jet=jet, name=name)


# ---------------------------------------------------------------------------
# weighted C2 norm


_CHUNK = 8192


def _chunks(m: int, size: int = _CHUNK):
    for i in range(0, m, size):
        yield slice(i, min(i + size, m))


def _fd_jet(f: Field, pts: np.ndarray, spec: GridSpec):
    """Second-order central differences; raises DomainError if any stencil
    point leaves the field's domain."""
    dom = f.domain
    d = dom.dim
    h = spec.fd_step * dom.extents

    offsets = [np.zeros(d)]
    for i in range(d):
        e = np.zeros(d)
        e[i] = h[i]
        offsets += [e, -e]
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for i, j in pairs:
        for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            e = np.zeros(d)
            e[i] = si * h[i]
            e[j] = sj * h[j]
            offsets.append(e)
    offsets = np.array(offsets)

    stencil = pts[None, :, :] + offsets[:, None, :]
    flat = stencil.reshape(-1, d)
    inside = dom.contains(flat)
    if not inside.all():
        bad = flat[~inside][0]
        raise DomainError(
            f"finite-difference stencil point {tuple(round(float(c), 12) for c in bad)} "
            f"lies outside the domain of field {f.name!r}"
        )
    vals = f(flat)
    vals = vals.reshape((len(offsets), len(pts)) + f.shape)

    v = vals[0]
    m = len(pts)
    d1 = np.empty((m, d) + f.shape)
    d2 = np.empty((m, d, d) + f.shape)
    for i in range(d):
        fp, fm = vals[1 + 2 * i], vals[2 + 2 * i]
        d1[:, i] = (fp - fm) / (2.0 * h[i])
        d2[:, i, i] = (fp - 2.0 * v + fm) / h[i] ** 2
    base = 1 + 2 * d
    for idx, (i, j) in enumerate(pairs):
        fpp, fpm, fmp, fmm = vals[base + 4 * idx: base + 4 * idx + 4]
        d2[:, i, j] = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
        d2[:, j, i] = d2[:, i, j]
    return v, d1, d2


@dataclass(frozen=True)
class C2Norm:
    """Weighted C2 norm measurement.  per_order_sups holds the weighted
    contribution of each derivative key, so value == max(per_order_sups)."""

    value: float
    per_order_sups: dict
    grid: GridSpec
    derivative_source: str

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "per_order_sups": dict(self.per_order_sups),
            "grid": self.grid.to_json(),
            "derivative_source": self.derivative_source,
        }


def _norm_keys(names: Sequence[str]):
    keys = ["1"] + [f"d{a}" for a in names]
    for i in range(len(names)):
        for j in range(i, len(names)):
            keys.append(f"d{names[i]}d{names[j]}")
    return keys


def c2_norm(f: Field, grid: Optional[GridSpec] = None) -> C2Norm:
    """Taylor-weighted C2 norm of a field over its own (or the given) grid."""
    spec = grid or f.grid
    dom = f.domain
    names = dom.axis_names
    d = dom.dim
    pts = dom.grid(spec)
    if len(pts) == 0:
        raise DomainError(f"empty sampling grid for field {f.name!r}")

    sups = {k: 0.0 for k in _norm_keys(names)}
    use_jet = f.has_jet
    for sl in _chunks(len(pts)):
        chunk = pts[sl]
        v, d1, d2 = f.jet(chunk) if use_jet else _fd_jet(f, chunk, spec)
        sups["1"] = max(sups["1"], float(np.max(np.abs(v))))
        for i in range(d):
            key = f"d{names[i]}"
            sups[key] = max(sups[key], float(np.max(np.abs(d1[:, i]))))
        for i in range(d):
            for j in range(i, d):
                w = 0.5 if i == j else 1.0
                key = f"d{names[i]}d{names[j]}"
                sups[key] = max(sups[key], w * float(np.max(np.abs(d2[:, i, j]))))

    return C2Norm(
        value=max(sups.values()),
        per_order_sups=sups,
        grid=spec,
        derivative_source="analytic" if use_jet else "finite-difference",
    )


def metric_deviation(g: Field, h: Field,
                     grid: Optional[GridSpec] = None) -> C2Norm:
    """|g - h|_C2 over g's grid."""
    return c2_norm(difference(g, h), grid=grid)


def is_eps_close(g: RadialMetric, eps: float,
                 grid: Optional[GridSpec] = None):
    """Whether |g - sigma|_C2 < eps against the chart's hyperbolic model."""
    dev = metric_deviation(g, hyperbolic_model(g.chart), grid=grid)
    return bool(dev.value < eps), dev


# ---------------------------------------------------------------------------
# diagnostics and dumps


def validate_metric(g: Field, grid: Optional[GridSpec] = None,
                    spd_tol: float = 1e-10) -> dict:
    """Symmetry / positivity audit; raises GenerationError.

    Returns {'min_eigenvalue', 'symmetry_defect'}.
    """
    spec = grid or dataclasses.replace(g.grid, points_per_axis=16)
    pts = g.domain.grid(spec)
    min_eig = np.inf
    sym = 0.0
    for sl in _chunks(len(pts)):
        G = g(pts[sl])
        sym = max(sym, float(np.max(np.abs(G - np.swapaxes(G, 1, 2)))))
        w = np.linalg.eigvalsh(0.5 * (G + np.swapaxes(G, 1, 2)))
        min_eig = min(min_eig, float(w.min()))
    if sym > 1e-12:
        raise GenerationError(f"metric {g.name!r} is not symmetric "
                              f"(defect {sym:.3e})")
    if min_eig <= spd_tol:
        raise GenerationError(f"metric {g.name!r} is not positive definite "
                              f"(min eigenvalue {min_eig:.3e})")
    return {"min_eigenvalue": min_eig, "symmetry_defect": sym}


def dump_grid_csv(f: Field, path, grid: Optional[GridSpec] = None) -> int:
    """Write the sampled field to CSV (one row per grid point), returning the
    row count.  Matrix fields emit row-major component columns g11, g12, ..."""
    spec = grid or f.grid
    pts = f.domain.grid(spec)
    vals = np.concatenate([f(pts[sl]) for sl in _chunks(len(pts))])

    header = list(f.domain.axis_names)
    if f.shape == ():
        header.append("value")
        cols = vals.reshape(len(pts), 1)
    else:
        nr, nc = f.shape
        header += [f"g{i + 1}{j + 1}" for i in range(nr) for j in range(nc)]
        cols = vals.reshape(len(pts), nr * nc)

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for p, row in zip(pts, cols):
            w.writerow([f"{x:.17g}" for x in p] + [f"{x:.17g}" for x in row])
    return len(pts)
