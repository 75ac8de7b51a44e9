"""Chart-grid fields, weighted C2 norms, and the hyperbolic reference metric.

A chart carries coordinates (x_1, ..., x_{n-1}, t): spatial coordinates in the
unit ball of R^{n-1} and a radial coordinate t in (-(1+xi), 1+xi), where xi > 0
is the chart excess.  A Field maps (m, d) batches of points to values of one
trailing shape (scalars, spatial blocks) and samples on its own GridSpec.  It
writes its value function once; when that function also evaluates on a Jet (a
second-order Taylor value), the field has analytic jets (value, gradient,
hessian) for free; other fields fall back to central differences.

Every metric in the package is a RadialMetric, the one Field subclass: a
spatial block over the leading axes plus d(last axis)^2, on a chart (last
axis t) or in polar form around a center (last axis r).

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
        """The strictly coarser grid of the refinement probe."""
        if self.points_per_axis == 4:
            raise ValueError("points_per_axis 4 has no coarser grid for the "
                             "refinement error estimate (need >= 5)")
        return dataclasses.replace(
            self, points_per_axis=max(4, self.points_per_axis // 2)
        )


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


def interval_domain(lo: float, hi: float) -> Domain:
    """Closed 1-D window in t: profile sups often live at endpoints."""
    return Domain(bounds=((lo, hi),), axis_names=("t",), closed=True)


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
# jets: second-order forward-mode Taylor values


class Jet(np.lib.mixins.NDArrayOperatorsMixin):
    """Second-order Taylor value of an array over a point batch
    (Griewank & Walther, Evaluating Derivatives, 2008, ch. 13).

    v has shape (m, *S); its derivatives in d chart coordinates are
    d1[i] = dv/dx_i and d2[i, j] = d^2 v/dx_i dx_j, of shapes (d, m, *S) and
    (d, d, m, *S).  The derivative axes lead, so a value broadcasts against
    them as it stands and numpy's inner loops run over the batch, not over
    the d derivatives.  A value function written with + - *, division by
    constants, unary minus, integer powers, exp, sin, cos, sinh, cosh,
    indexing, np.concatenate and np.einsum with one Jet operand evaluates on
    a Jet unchanged; anything else raises TypeError.  The value part is
    computed by the same numpy operation as on plain arrays, so it is
    bitwise the array result.  Plain arrays mixed in are constants.
    """

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1, d2):
        self.v, self.d1, self.d2 = v, d1, d2

    @classmethod
    def seed(cls, pts: np.ndarray) -> "Jet":
        """The chart coordinates themselves: (m, d) points, d1 = identity."""
        m, d = pts.shape
        return cls(pts, np.broadcast_to(np.eye(d)[:, None, :], (d, m, d)),
                   np.broadcast_to(0.0, (d, d, m, d)))

    @property
    def shape(self) -> tuple:
        return self.v.shape

    @property
    def ndim(self) -> int:
        return self.v.ndim

    def __len__(self) -> int:
        return len(self.v)

    def __array__(self, dtype=None, copy=None):
        # the value alone; the derivatives are dropped
        return np.array(self.v, dtype=dtype, copy=copy)

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        every = slice(None)
        return Jet(self.v[key], self.d1[(every,) + key],
                   self.d2[(every, every) + key])

    def chain(self, f, f1, f2) -> "Jet":
        """p(self) for a 1-D function p with p, p', p'' = f, f1, f2 at
        self.v: the chain rule to second order."""
        g = self.d1
        return Jet(f, f1 * g, f2 * (g[:, None] * g[None, :]) + f1 * self.d2)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc in _UNARY:
            (x,) = inputs
            return x.chain(*_UNARY[ufunc](x.v, ufunc(x.v)))
        if ufunc is np.negative:
            (x,) = inputs
            return Jet(-x.v, -x.d1, -x.d2)
        if ufunc is np.power:
            x, n = inputs
            if not isinstance(x, Jet) or isinstance(n, Jet) \
                    or int(n) != n:
                return NotImplemented
            n = int(n)
            zero = np.zeros_like(x.v)
            return x.chain(x.v ** n,
                           n * x.v ** (n - 1) if n else zero,
                           n * (n - 1) * x.v ** (n - 2) if n not in (0, 1)
                           else zero)
        if ufunc in _BINARY:
            a, b = inputs
            v = ufunc(*(x.v if isinstance(x, Jet) else x for x in inputs))
            if any(isinstance(x, Jet) and x.ndim < v.ndim for x in inputs):
                # derivative axes lead, so they broadcast only when every
                # Jet operand carries all of the result's axes
                raise ValueError("a Jet operand has fewer axes than the "
                                 "result of its operation")
            return _BINARY[ufunc](a, b, v)
        return NotImplemented

    def __array_function__(self, func, types, args, kwargs):
        if func is np.concatenate:
            return _concatenate(*args, **kwargs)
        if func is np.einsum:
            return _einsum(*args, **kwargs)
        return NotImplemented


# p, p', p'' of the elementary functions, given x and p(x)
_UNARY = {
    np.exp: lambda x, e: (e, e, e),
    np.sin: lambda x, s: (s, np.cos(x), -s),
    np.cos: lambda x, c: (c, -np.sin(x), -c),
    np.sinh: lambda x, s: (s, np.cosh(x), s),
    np.cosh: lambda x, c: (c, np.sinh(x), c),
}


def _jet_add(a, b, v, op=np.add) -> Jet:
    if not isinstance(a, Jet):
        d1, d2 = (b.d1, b.d2) if op is np.add else (-b.d1, -b.d2)
    elif not isinstance(b, Jet):
        d1, d2 = a.d1, a.d2
    else:
        d1, d2 = op(a.d1, b.d1), op(a.d2, b.d2)
    if d1.shape[1:] != v.shape:   # broadcasting widened the value
        d = len(d1)
        d1 = np.broadcast_to(d1, (d,) + v.shape)
        d2 = np.broadcast_to(d2, (d, d) + v.shape)
    return Jet(v, d1, d2)


def _jet_mul(a, b, v) -> Jet:
    if not isinstance(a, Jet):
        a, b = b, a
    if not isinstance(b, Jet):
        return Jet(v, a.d1 * b, a.d2 * b)
    cross = a.d1[:, None] * b.d1[None, :]   # + its transpose: symmetric
    return Jet(v, a.d1 * b.v + a.v * b.d1,
               a.d2 * b.v + cross + np.swapaxes(cross, 0, 1) + a.v * b.d2)


def _jet_div(a, b, v) -> Jet:
    if isinstance(b, Jet):
        raise TypeError("a Jet divides only by constants")
    return Jet(v, a.d1 / b, a.d2 / b)


_BINARY = {
    np.add: _jet_add,
    np.subtract: lambda a, b, v: _jet_add(a, b, v, np.subtract),
    np.multiply: _jet_mul,
    np.true_divide: _jet_div,
}


def _part(a, order: int, d: int) -> np.ndarray:
    """Part `order` (0 value, 1 first, 2 second derivatives) of a Jet or of
    a constant array."""
    if isinstance(a, Jet):
        return (a.v, a.d1, a.d2)[order]
    a = np.asarray(a)
    return a if order == 0 else np.zeros((d,) * order + a.shape)


def _concatenate(arrays, axis=0):
    jet = next(a for a in arrays if isinstance(a, Jet))
    d = len(jet.d1)
    axis %= jet.ndim
    return Jet(*(np.concatenate([_part(a, o, d) for a in arrays],
                                axis=axis + o) for o in range(3)))


def _einsum(subscripts: str, *operands, **kwargs):
    """einsum with exactly one Jet operand and an explicit output: each part
    carries its derivative axes through as extra free indices."""
    jets = [i for i, op in enumerate(operands) if isinstance(op, Jet)]
    if len(jets) != 1 or "->" not in subscripts:
        raise TypeError("einsum on a Jet needs one Jet operand and '->'")
    i = jets[0]
    inputs, output = subscripts.split("->")
    specs = inputs.split(",")
    free = [c for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ" if c not in subscripts]
    parts = []
    for order in range(3):
        lead = "".join(free[:order])
        spec = specs[:i] + [lead + specs[i]] + specs[i + 1:]
        ops = list(operands)
        ops[i] = _part(operands[i], order, 0)
        parts.append(np.einsum(",".join(spec) + "->" + lead + output, *ops,
                               **kwargs))
    return Jet(*parts)


def _at_jet(fn: Callable, x: Jet, name: str):
    """fn at a Jet.  A plain-array result must be constant over the batch:
    one that varies came from a value function that converted its Jet
    argument to an array and so dropped the derivatives."""
    out = fn(x)
    if not isinstance(out, Jet):
        out = np.asarray(out)
        if out.ndim and (out != out[:1]).any():
            raise WarpforceError(f"analytic field {name!r} returned a varying "
                                 f"plain array at a Jet: it drops derivatives")
    return out


def _taylor(fn: Callable, pts: np.ndarray, name: str) -> tuple:
    """(v, d1, d2) of fn at (m, d) points in the (m, d, *S) layout: fn
    evaluated on the seeded Jet.  A plain-array result is a constant."""
    out = _at_jet(fn, Jet.seed(pts), name)
    if isinstance(out, Jet):
        return out.v, np.moveaxis(out.d1, 0, 1), np.moveaxis(out.d2, 2, 0)
    m, d = pts.shape
    S = out.shape[1:]
    return out, np.zeros((m, d) + S), np.zeros((m, d, d) + S)


# ---------------------------------------------------------------------------
# fields


def _as_points(pts, d: int):
    a = pts if isinstance(pts, Jet) else np.asarray(pts, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != d:
        raise ValueError(f"expected points of shape (m, {d}), got {a.shape}")
    return a


class Field:
    """A map from domain points to arrays of a fixed trailing shape, sampled
    on `grid` by default.

    `analytic` says that fn also evaluates on a Jet (see Jet), which gives
    the field exact jets; without it, norms use finite differences.
    """

    def __init__(self, domain: Domain, fn: Callable, analytic: bool = False,
                 shape: tuple = (), name: str = "field",
                 grid: Optional[GridSpec] = None):
        self.domain = domain
        self.shape = tuple(shape)
        self.name = name
        self.grid = grid or GridSpec()
        self.has_jet = bool(analytic)
        self._fn = fn

    def __call__(self, pts):
        """Values at (m, d) points; at a Jet, the Taylor value."""
        x = _as_points(pts, self.domain.dim)
        if isinstance(x, Jet):
            self._need_jet()
            return _at_jet(self._fn, x, self.name)
        return np.asarray(self._fn(x))

    def jet(self, pts):
        """(value, gradient, hessian), shapes (m, *S), (m, d, *S),
        (m, d, d, *S)."""
        self._need_jet()
        return _taylor(self._fn, _as_points(pts, self.domain.dim), self.name)

    def _need_jet(self):
        if not self.has_jet:
            raise WarpforceError(f"field {self.name!r} has no analytic jet")


def _embed(S, m: int, d: int, unit: float = 1.0):
    """The (m, k, k) block S (leading derivative axes allowed) at the top
    left of a zero (m, d, d) array with `unit` in the last diagonal entry;
    a Jet embeds each part, its derivatives with a zero entry."""
    if isinstance(S, Jet):
        return Jet(_embed(S.v, m, d), _embed(S.d1, m, d, 0.0),
                   _embed(S.d2, m, d, 0.0))
    S = np.asarray(S)
    k = d - 1
    out = np.zeros(S.shape[:-3] + (m, d, d))
    out[..., :k, :k] = S
    if unit:
        out[..., k, k] = unit
    return out


class RadialMetric(Field):
    """Split metric spatial(p) + d(last axis)^2, the one metric type.

    The leading k = d - 1 domain axes carry the spatial block and the last
    axis is radial: t on a chart, r in polar form around a center.  spatial
    maps (m, d) points to (m, k, k) matrices and, when `analytic`, also
    evaluates on a Jet.  The full d x d value embeds the block with a unit
    last-axis entry.  Metrics built on a ChartModel keep it as `chart` (its
    excess xi and hyperbolic model feed the lemma checks); polar metrics
    have chart None.
    """

    def __init__(self, domain: Domain, spatial: Callable,
                 analytic: bool = False, grid: Optional[GridSpec] = None,
                 name: str = "metric", chart: Optional[ChartModel] = None):
        d = domain.dim

        def fn(pts):
            # the block first: its temporaries are freed before `out` exists
            return _embed(spatial(pts), len(pts), d)

        super().__init__(domain, fn, analytic=analytic, shape=(d, d),
                         name=name, grid=grid)
        self.chart = chart
        self._spatial = spatial

    @classmethod
    def on_chart(cls, chart: ChartModel, spatial: Callable,
                 analytic: bool = False,
                 name: str = "metric") -> "RadialMetric":
        return cls(chart.domain, spatial, analytic, grid=chart.grid,
                   name=name, chart=chart)

    def spatial(self, pts):
        """(m, k, k) spatial block; at a Jet, its Taylor value."""
        if isinstance(pts, Jet):
            return self.spatial_jet(pts)
        return np.asarray(self._spatial(_as_points(pts, self.domain.dim)))

    def spatial_jet(self, pts):
        """Taylor value of the spatial block: at (m, d) points the
        (v, d1, d2) tuple in the (m, d, k, k) layout, at a Jet a Jet."""
        self._need_jet()
        x = _as_points(pts, self.domain.dim)
        return _at_jet(self._spatial, x, self.name) if isinstance(x, Jet) \
            else _taylor(self._spatial, x, self.name)


def hyperbolic_model(chart: ChartModel) -> RadialMetric:
    """sigma = e^{2t} (dx_1^2 + ... + dx_{n-1}^2) + dt^2."""
    eye = np.eye(chart.k)

    def spatial(pts):
        return np.exp(2.0 * pts[:, -1])[:, None, None] * eye

    return RadialMetric.on_chart(chart, spatial, analytic=True,
                                 name="hyperbolic")


def difference(f: Field, g: Field, name: Optional[str] = None) -> Field:
    """Pointwise f - g on f's domain (shapes must agree)."""
    if f.shape != g.shape:
        raise ValueError("field shapes differ")
    return Field(f.domain, lambda pts: f(pts) - g(pts),
                 analytic=f.has_jet and g.has_jet, shape=f.shape,
                 name=name or f"{f.name}-{g.name}", grid=f.grid)


def profile_scalar(domain: Domain, profile,
                   name: str = "profile") -> Field:
    """Lift a 1-D profile p to the domain: f(x, t) = p(last axis).

    p must evaluate on 1-D arrays and on 1-D Jets: written in Jet
    operations, or lifting its own (p, p', p'') with Jet.chain as
    BumpFunction and WarpFunction do.  A constant may return a plain array.
    """
    return Field(domain, lambda pts: profile(pts[:, -1]), analytic=True,
                 name=name)


def _poly_eval(coeffs: np.ndarray, pts):
    out = np.zeros(len(pts))
    for powers in itertools.product(*(range(s) for s in coeffs.shape)):
        c = coeffs[powers]
        if c == 0.0:
            continue
        term = np.full(len(pts), c)
        for i, p in enumerate(powers):
            if p:
                term = term * pts[:, i] ** p
        out = out + term
    return out


def polynomial_scalar(domain: Domain, coeffs: np.ndarray,
                      name: str = "poly") -> Field:
    """Multivariate polynomial with exact jets; coeffs[p1,...,pd] multiplies
    x1^p1 ... xd^pd."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != domain.dim:
        raise ValueError("coefficient array rank must match domain dim")
    return Field(domain, lambda pts: _poly_eval(coeffs, pts), analytic=True,
                 name=name)


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
        return dataclasses.asdict(self)


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


def validate_metric(g: Field, grid: Optional[GridSpec] = None) -> dict:
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
    if min_eig <= 1e-10:
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
