"""Chart-grid fields, weighted C2 norms, and the hyperbolic reference metric.

A chart carries coordinates (x_1, ..., x_{n-1}, t): spatial coordinates in the
unit ball of R^{n-1} and a radial coordinate t in (-(1+xi), 1+xi), where xi > 0
is the chart excess.  A Field maps (m, d) batches of points to values of one
trailing shape (scalars, spatial blocks); each measurement is handed a grid.
It writes its value function once; when that function also evaluates on a
Jet (a second-order Taylor value), the field has analytic jets (value,
gradient, hessian) for free; other fields fall back to central differences.

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
import functools
import math
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
    by it on both sides before gridding.
    """

    points_per_axis: int = 64
    boundary_margin: float = 0.02

    def __post_init__(self):
        if (not isinstance(self.points_per_axis, (int, np.integer))
                or self.points_per_axis < 4):
            raise ValueError(f"points_per_axis must be an integer >= 4, "
                             f"got {self.points_per_axis!r}")
        if not 0.0 <= self.boundary_margin < 0.5:
            raise ValueError("boundary_margin must be in [0, 0.5)")

    def halved(self) -> "GridSpec":
        """The strictly coarser grid of the refinement probe."""
        if self.points_per_axis == 4:
            raise ValueError("points_per_axis 4 has no coarser grid for the "
                             "refinement error estimate (need >= 5)")
        return dataclasses.replace(
            self, points_per_axis=max(4, self.points_per_axis // 2)
        )


def _numbers(values, what: str) -> tuple:
    """A non-empty list of finite numbers as a tuple; ValueError otherwise
    (json.load reads NaN and Infinity)."""
    if not (isinstance(values, (list, tuple)) and values and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v) for v in values)):
        raise ValueError(f"{what} must be a non-empty list of finite "
                         f"numbers, got {values!r}")
    return tuple(values)


def read_config(section, defaults: dict, what: str) -> dict:
    """The values of config object `section`, checked against `defaults`,
    the default of each key it may have.  A value must be of its default's
    kind: an integer for an int, a number for a float (never a bool), a
    list of numbers for a tuple (read as one, [] as ()), a config object
    for a GridSpec (its keys read against GridSpec's defaults); others
    pass through.
    ValueError, naming `what`, refuses a section that is not an object,
    the first unknown key and the first value of the wrong kind or not
    finite (json.load reads NaN and Infinity)."""
    if not isinstance(section, dict):
        raise ValueError(f"{what} config must be an object, got {section!r}")
    kw = {}
    for key, v in section.items():
        if key not in defaults:
            raise ValueError(f"unknown {what} key {key!r}; known: "
                             f"{', '.join(defaults) or 'none'}")
        kind = type(defaults[key])
        if kind is GridSpec:
            v = GridSpec(**read_config(v, vars(GridSpec()), f"{what} {key}"))
        elif kind is tuple:
            v = () if v == [] else _numbers(v, f"{what} {key}")
        elif kind in (int, float) and (isinstance(v, bool)
                                       or not isinstance(v, (int, kind))):
            need = "an integer" if kind is int else "a number"
            raise ValueError(f"{what} {key} must be {need}, got {v!r}")
        elif isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{what} {key} must be finite, got {v!r}")
        kw[key] = v
    return kw


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
        """The (m, dim) product grid, ball-masked if needed, as one chunk."""
        for x, _ in self.grid_chunks((spec,), max(self.grid_size(spec), 1)):
            return x
        return np.empty((0, self.dim))

    def _lead(self, spec: GridSpec):
        """(lead, rest, m) of grid(spec): the kept points (q, b) of the b
        leading ball axes, which alone decide the ball mask (b = 0 without
        one), the axis points of the other axes, and the grid's row count.
        Row i of the grid is lead[i // R] followed by the C-order index
        i % R of the rest, R the product of their lengths."""
        axes = self.axis_points(spec)
        b = self.ball_axes if self.ball_axes >= 2 else 0
        lead = np.empty((1, 0))
        if b:
            mesh = np.meshgrid(*axes[:b], indexing="ij")
            lead = np.stack([m.ravel() for m in mesh], axis=-1)
            cut = 1.0 - 2.0 * spec.boundary_margin
            lead = lead[self._ball_radius(lead) <= cut]
        rest = axes[b:]
        return lead, rest, len(lead) * int(np.prod([len(a) for a in rest]))

    def grid_size(self, spec: GridSpec) -> int:
        """len(grid(spec)), without building the grid."""
        return self._lead(spec)[2]

    def grid_chunks(self, specs: tuple, step: int):
        """(x, parts) for the rows x of the grids of `specs`, one grid after
        the other, `step` at a time (the last chunk may be shorter, and a
        chunk may end one grid and begin the next), parts holding (i, rows)
        for each grid i that has the rows `rows` of x.  Each chunk is built
        alone from its row indices, so that no more than one exists at a
        time.  x is column-major (Fortran order): each coordinate of a
        chunk is one contiguous column."""
        grids = [self._lead(spec) for spec in specs]
        for sl in _chunks(sum(m for _, _, m in grids), step):
            x = np.empty((sl.stop - sl.start, self.dim), order="F")
            parts, at = [], -sl.start      # grid g's row 0 is x's row at
            for g, (lead, rest, m) in enumerate(grids):
                lo, hi = max(-at, 0), min(sl.stop - sl.start - at, m)
                if lo < hi:
                    parts.append((g, slice(at + lo, at + hi)))
                    i, b = np.arange(lo, hi), lead.shape[1]
                    out = x[at + lo:at + hi]
                    for j in range(self.dim - 1, b - 1, -1):   # C order
                        i, k = np.divmod(i, len(rest[j - b]))
                        out[:, j] = rest[j - b][k]
                    out[:, :b] = lead[i]
                at += m
            yield x, parts

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        ok = np.ones(len(pts), dtype=bool)
        for i, (lo, hi) in enumerate(self.bounds):
            if self.closed:
                ok &= (pts[:, i] >= lo) & (pts[:, i] <= hi)
            else:
                ok &= (pts[:, i] > lo) & (pts[:, i] < hi)
        if self.ball_axes >= 2:
            r = self._ball_radius(pts)
            ok &= (r <= 1.0) if self.closed else (r < 1.0)
        return ok

    def _ball_radius(self, pts: np.ndarray) -> np.ndarray:
        """|x| over the ball axes: np.linalg.norm's sum of squares in its
        order, column by column (its reduction over a short axis is slow)."""
        sq = pts[:, 0] * pts[:, 0]
        for i in range(1, self.ball_axes):
            sq = sq + pts[:, i] * pts[:, i]
        return np.sqrt(sq)


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
        if not 0.0 < self.xi < np.inf:
            raise ValueError(f"xi must be positive and finite "
                             f"(got {self.xi!r})")

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
    indexing, np.concatenate and @ with one constant operand evaluates on a
    Jet unchanged; anything else raises TypeError.  The value part is
    computed by the same numpy operation as on plain arrays, so it is
    bitwise the array result.  Plain arrays mixed in are constants.

    A derivative part that is constant along the batch (the seed's identity
    gradient and zero hessian, and the parts of an affine argument such as
    2t) has a batch axis of length 1, (d, 1, *S) or (d, d, 1, *S), and
    numpy broadcasting widens it where it meets a factor that varies.  The
    first index of a Jet, a slice, an integer or an index array, selects
    rows of the batch.  A zero part is 0.0 broadcast, one row long (the
    seed's hessian, a constant's derivatives): a sum leaves it out, and a
    product term with it is dropped when the other factor is finite on
    every row.  Products and their sums are formed in the order of the
    full-width formulas, so the numbers are those of full-width parts up
    to the sign of a zero derivative entry.  Field.jet widens one-row
    parts to read-only broadcast views of the full (m, d, *S) and
    (m, d, d, *S) shapes.
    """

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1, d2):
        self.v, self.d1, self.d2 = v, d1, d2

    @classmethod
    def seed(cls, pts: np.ndarray) -> "Jet":
        """The chart coordinates themselves: (m, d) points, d1 = identity."""
        d = pts.shape[1]
        return cls(pts, np.eye(d)[:, None, :], _zeros((d, d, 1, d)))

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
        i = key[0]
        if isinstance(i, (np.ndarray, list)) and np.ndim(i) == 1 \
                and not any(map(np.ndim, key[1:])):
            i = np.asarray(i)
            if i.dtype != bool or len(i) == len(self):
                rows = self._take(np.flatnonzero(i) if i.dtype == bool
                                  else i)
                return rows[(slice(None),) + key[1:]] if key[1:] else rows
        every = slice(None)
        # a part one row long keeps its row under a slice or an integer
        one = ((every if isinstance(i, slice) else 0,) + key[1:]
               if isinstance(i, (slice, int, np.integer)) else key)
        return Jet(self.v[key], *(p[(every,) * o + (one if p.shape[o] == 1
                                                    else key)]
                                  for o, p in ((1, self.d1), (2, self.d2))))

    def _take(self, i: np.ndarray) -> "Jet":
        """The rows i of the batch, taken part by part (np.take is faster
        than fancy indexing); a part one row long keeps its row."""
        return Jet(np.take(self.v, i, axis=0),
                   *(p if p.shape[o] == 1 else np.take(p, i, axis=o)
                     for o, p in ((1, self.d1), (2, self.d2))))

    def chain(self, f, f1, f2) -> "Jet":
        """p(self) for a 1-D function p with p, p', p'' = f, f1, f2 at
        self.v: the chain rule to second order."""
        g, d = self.d1, len(self.d1)
        return Jet(f, f1 * g, _sum((f2 * (g[:, None] * g[None, :]),
                                    _times(self.d2, f1)), (d, d), np.shape(f)))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc in _UNARY:
            (x,) = inputs
            return x.chain(*_UNARY[ufunc](x.v, ufunc(x.v)))
        if ufunc is np.negative:
            (x,) = inputs
            return Jet(-x.v, *_negated(x))
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
            ja, jb = isinstance(a, Jet), isinstance(b, Jet)
            v = ufunc(a.v if ja else a, b.v if jb else b)
            if (ja and a.ndim < v.ndim) or (jb and b.ndim < v.ndim):
                # derivative axes lead, so they broadcast only when every
                # Jet operand carries all of the result's axes
                raise ValueError("a Jet operand has fewer axes than the "
                                 "result of its operation")
            return _BINARY[ufunc](a, b, v)
        return NotImplemented

    def __array_function__(self, func, types, args, kwargs):
        if func is np.concatenate:
            return _concatenate(*args, **kwargs)
        return NotImplemented


# p, p', p'' of the elementary functions, given x and p(x)
_UNARY = {
    np.exp: lambda x, e: (e, e, e),
    np.sin: lambda x, s: (s, np.cos(x), -s),
    np.cos: lambda x, c: (c, -np.sin(x), -c),
    np.sinh: lambda x, s: (s, np.cosh(x), s),
    np.cosh: lambda x, c: (c, np.sinh(x), c),
}


@functools.lru_cache(maxsize=64)
def _zeros(shape: tuple) -> np.ndarray:
    """The zero part of `shape`: 0.0 broadcast, read-only, every stride 0
    (a Jet's is one row long)."""
    return np.broadcast_to(0.0, shape)


def _zero(a: np.ndarray) -> bool:
    """True for a zero part: one stored value (every stride 0), and 0."""
    return not any(a.strides) and a.size > 0 and not a.item(0)


def _finite(q) -> bool:
    """True when q is finite on every row.  An array is summed: the sum of
    finite values may overflow, which only keeps a term of zeros."""
    if isinstance(q, np.ndarray):
        return math.isfinite(q.sum())
    return math.isfinite(q) if isinstance(q, (float, int)) \
        else bool(np.isfinite(q).all())


def _times(p: np.ndarray, q):
    """The term p * q of a sum (see _sum), p a jet part and q a factor.
    None when p is a zero part (see _zero) and q is finite on every row:
    that term would add only signed zeros."""
    if _zero(p) and _finite(q):
        return None
    return p * q


def _sum(terms, lead: tuple, shape: tuple) -> np.ndarray:
    """The terms, fresh products or None for a dropped one, added up in
    order: the derivative part, with leading axes `lead`, of a value of
    shape `shape`.  A term is added in place into the first term or sum
    once that spans the whole batch and value shape; the sum is zeros
    when every term was dropped."""
    acc, full = None, lead + shape
    for t in terms:
        if t is None:
            continue
        if acc is None:
            acc = t
        elif acc.shape == full:
            acc += t
        else:
            acc = acc + t
    return _zeros(lead + (1,) + shape[1:]) if acc is None else acc


def _negated(x: "Jet") -> tuple:
    """-x.d1, -x.d2; a zero part stays as it is."""
    return tuple(p if _zero(p) else -p for p in (x.d1, x.d2))


def _added(op, p, q) -> np.ndarray:
    """p + q or p - q (op) for jet parts, leaving out a zero part (see
    _zero)."""
    if _zero(q):
        return p
    if _zero(p) and op is np.add:
        return q
    return op(p, q)


def _jet_add(a, b, v, op=np.add) -> Jet:
    if not isinstance(a, Jet):
        d1, d2 = (b.d1, b.d2) if op is np.add else _negated(b)
    elif not isinstance(b, Jet):
        d1, d2 = a.d1, a.d2
    else:
        d1, d2 = _added(op, a.d1, b.d1), _added(op, a.d2, b.d2)
    # where broadcasting widened the value, a part left as it was is
    # widened along the value's axes; its batch axis keeps its length
    return Jet(v, *(p if p.shape[o + 1:] == v.shape[1:] else
                    np.broadcast_to(p, p.shape[:o + 1] + v.shape[1:])
                    for o, p in ((1, d1), (2, d2))))


def _jet_mul(a, b, v) -> Jet:
    if not isinstance(a, Jet):
        a, b = b, a
    d = len(a.d1)
    if not isinstance(b, Jet):
        return Jet(v, _sum((_times(a.d1, b),), (d,), v.shape),
                   _sum((_times(a.d2, b),), (d, d), v.shape))
    cross = a.d1[:, None] * b.d1[None, :]
    return Jet(v, _sum((_times(a.d1, b.v), _times(b.d1, a.v)), (d,), v.shape),
               _sum((_times(a.d2, b.v), cross,       # + its transpose
                     cross.swapaxes(0, 1), _times(b.d2, a.v)), (d, d),
                    v.shape))


def _jet_div(a, b, v) -> Jet:
    if isinstance(b, Jet):
        raise TypeError("a Jet divides only by constants")
    return Jet(v, a.d1 / b, a.d2 / b)


def _jet_matmul(a, b, v) -> Jet:
    if isinstance(a, Jet) and isinstance(b, Jet):
        raise TypeError("a Jet multiplies matrices only by constants")
    if isinstance(a, Jet):
        return Jet(v, a.d1 @ b, a.d2 @ b)
    return Jet(v, a @ b.d1, a @ b.d2)


_BINARY = {
    np.add: _jet_add,
    np.subtract: lambda a, b, v: _jet_add(a, b, v, np.subtract),
    np.multiply: _jet_mul,
    np.true_divide: _jet_div,
    np.matmul: _jet_matmul,
}


def _part(a, order: int, d: int) -> np.ndarray:
    """Part `order` (0 value, 1 first, 2 second derivatives) of a Jet or of
    a constant array."""
    if isinstance(a, Jet):
        return (a.v, a.d1, a.d2)[order]
    a = np.asarray(a)
    return a if order == 0 else _zeros((d,) * order + (1,) + a.shape[1:])


def _concatenate(arrays, axis=0):
    jet = next(a for a in arrays if isinstance(a, Jet))
    d = len(jet.d1)
    axis %= jet.ndim
    vals = [_part(a, 0, d) for a in arrays]
    v = np.concatenate(vals, axis=axis)

    def join(o):
        parts = [_part(a, o, d) for a in arrays]
        if all(map(_zero, parts)):
            return _zeros((d,) * o + (1,) + v.shape[1:])
        if not axis or any(p.shape[o] > 1 for p in parts):
            # rows of different arrays, or beside a full part: each part
            # one row long is widened to the rows of its own array
            parts = [np.broadcast_to(p, p.shape[:o] + w.shape[:1]
                                     + p.shape[o + 1:])
                     for p, w in zip(parts, vals)]
        return np.concatenate(parts, axis=axis + o)

    return Jet(v, join(1), join(2))


def _per_run(fn: Callable, x):
    """fn(x) for a function fn of (m, k) points (or of a Jet of them) that
    acts row by row, evaluated once per run of equal consecutive rows of x
    and spread back over each run; fn may return a tuple.  Chart grids and
    FD stencil blocks repeat each x along t, and the sphere columns of
    polar points repeat with it.  An array result is spread by np.repeat
    into a column-major array, so that its batch axis is contiguous.  A
    Jet's rows with equal values are equal rows only when its derivative
    parts are one row long (constant along the batch)."""
    if isinstance(x, Jet):
        if x.d1.shape[1] > 1 or x.d2.shape[2] > 1:
            return fn(x)
        v = x.v
    else:
        v = x = np.asarray(x)
    new = np.ones(len(v), dtype=bool)
    new[1:] = v[1:, 0] != v[:-1, 0]
    for j in range(1, v.shape[1]):      # column by column: see _ball_radius
        new[1:] |= v[1:, j] != v[:-1, j]
    heads = np.flatnonzero(new)
    if len(heads) == len(v):
        return fn(x)
    out = fn(x[heads])
    lengths = np.empty_like(heads)      # np.diff's wrapper costs more
    lengths[:-1], lengths[-1] = heads[1:] - heads[:-1], len(v) - heads[-1]

    def spread(a):      # a.T's repeat: one call, a third of np.take's time
        if isinstance(a, Jet):
            return a[np.repeat(np.arange(len(heads)), lengths)]
        return np.repeat(a.T, lengths, axis=-1).T

    return tuple(map(spread, out)) if isinstance(out, tuple) else spread(out)


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


def _taylor(fn: Callable, x, f: "Field") -> tuple:
    """(v, d1, d2) of f's value function fn in the (m, d, *S) layout, at
    (m, d) points, seeded here, or at a seeded Jet x of them.  A plain-array
    result is a constant.  A lone point goes with its domain mirror
    lo + hi - p, so that _at_jet sees two."""
    if not isinstance(x, Jet):
        if len(x) == 1:
            lo, hi = np.array(f.domain.bounds).T
            return tuple(a[:1] for a in _taylor(
                fn, np.concatenate([x, lo + hi - x]), f))
        x = Jet.seed(x)
    out = _at_jet(fn, x, f.name)
    if isinstance(out, Jet):
        v = out.v      # one-row parts widen to read-only broadcast views
        d1, d2 = (p if p.shape[o:] == v.shape else
                  np.broadcast_to(p, p.shape[:o] + v.shape)
                  for o, p in ((1, out.d1), (2, out.d2)))
        return v, np.moveaxis(d1, 0, 1), np.moveaxis(d2, 2, 0)
    m, d = x.shape
    S = out.shape[1:]
    return out, _zeros((m, d) + S), _zeros((m, d, d) + S)


class _GridJet(Jet):
    """The seeded Jet of one chunk of a norm walk, handed to every field of
    the walk (see _c2_norms).  Its memo holds the result of each value
    function evaluated at it, and goes with it when the walk moves on."""

    __slots__ = ("memo",)

    def __init__(self, v, d1, d2):
        super().__init__(v, d1, d2)
        self.memo = {}


class _LastJet:
    """A field's value function fn.  It refuses values of a trailing shape
    other than a non-empty `shape` (numpy would broadcast an (m, 1, 1)
    block to any k x k silently).  At a _GridJet it keeps its result in
    that Jet's memo and, called there again, returns it, or raises once
    its norm walk has folded it (FOLDED); other arguments are evaluated
    every time.  It holds the name, not the field, so that a field is no
    reference cycle."""

    __slots__ = ("fn", "shape", "name")
    FOLDED = object()       # the memo entry of a folded field

    def __init__(self, fn: Callable, shape: tuple, name: str):
        self.fn, self.shape, self.name = fn, shape, name

    def __call__(self, pts):
        memo = pts.memo if isinstance(pts, _GridJet) else None
        if memo is not None and self in memo:
            if memo[self] is self.FOLDED:
                raise WarpforceError(f"field {self.name!r} was asked for "
                                     f"after its norm was folded: list it "
                                     f"after the fields that contain it")
            return memo[self]
        out = self.fn(pts)
        got = np.asarray(out).shape[1:] if self.shape else ()  # a Jet's value
        if got != self.shape:
            raise WarpforceError(f"field {self.name!r} returned blocks of "
                                 f"shape {got}, declared {self.shape}")
        if memo is not None:
            memo[self] = out
        return out


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
    """A map from domain points to arrays of a fixed trailing shape.

    `analytic` says that fn also evaluates on a Jet (see Jet), which gives
    the field exact jets; without it, norms use finite differences.  fn must
    be pure: called again at the seeded Jet of the same chunk of a norm
    walk, the field returns its first result (see _LastJet), so that the
    norms of one check evaluate a shared sub-field once per chunk.
    """

    def __init__(self, domain: Domain, fn: Callable, analytic: bool = False,
                 shape: tuple = (), name: str = "field"):
        self.domain = domain
        self.shape = tuple(shape)
        self.name = name
        self.has_jet = bool(analytic)
        self._fn = _LastJet(fn, self.shape, name)

    def __call__(self, pts):
        """Values at (m, d) points; at a Jet, the Taylor value."""
        x = _as_points(pts, self.domain.dim)
        if isinstance(x, Jet):
            self._need_jet()
            return _at_jet(self._fn, x, self.name)
        return np.asarray(self._fn(x))

    def jet(self, pts):
        """(value, gradient, hessian), shapes (m, *S), (m, d, *S),
        (m, d, d, *S), at (m, d) points or at a seeded Jet of them.  A part
        constant over the points may be a read-only broadcast view (see
        Jet)."""
        self._need_jet()
        return _taylor(self._fn, _as_points(pts, self.domain.dim), self)

    def _need_jet(self):
        if not self.has_jet:
            raise WarpforceError(f"field {self.name!r} has no analytic jet")


def _embed(S, m: int, d: int, unit: float = 1.0):
    """The (m, k, k) block S (leading derivative axes allowed) at the top
    left of a zero (m, d, d) array with `unit` in the last diagonal entry;
    a Jet embeds each part, its derivatives with a zero entry."""
    if isinstance(S, Jet):
        return Jet(_embed(S.v, m, d, unit), _embed(S.d1, m, d, 0.0),
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

    The leading d - 1 domain axes are spatial and the last axis is radial:
    t on a chart, r in polar form around a center.  spatial maps (m, d)
    points to (m, k, k) blocks, k = d - 1 unless given (a centered
    manifold's is its 1 x 1 conformal factor), Jets too when `analytic`;
    the Field `block` holds it.  The full value embeds it with a unit
    last-axis entry.  Metrics built on a ChartModel keep it as `chart` (its
    excess xi and hyperbolic model feed the lemma checks), polar ones None.
    """

    def __init__(self, domain: Domain, spatial: Callable,
                 analytic: bool = False, name: str = "metric",
                 chart: Optional[ChartModel] = None, k: Optional[int] = None):
        d = domain.dim if k is None else k + 1
        block = Field(domain, spatial, analytic=analytic,
                      shape=(d - 1, d - 1), name=name)

        def fn(pts):
            # the block first: its temporaries are freed before `out` exists
            return _embed(block._fn(pts), len(pts), d)

        super().__init__(domain, fn, analytic=analytic, shape=(d, d),
                         name=name)
        self.chart = chart
        self.block = block

    @classmethod
    def on_chart(cls, chart: ChartModel, spatial: Callable,
                 analytic: bool = False,
                 name: str = "metric") -> "RadialMetric":
        return cls(chart.domain, spatial, analytic, name=name, chart=chart)

    def spatial(self, pts):
        """(m, k, k) spatial block; at a Jet, its Taylor value."""
        return self.spatial_jet(pts) if isinstance(pts, Jet) \
            else self.block(pts)

    def spatial_jet(self, pts):
        """Taylor value of the spatial block: at (m, d) points the
        (v, d1, d2) tuple in the (m, d, k, k) layout, at a Jet a Jet."""
        return self.block(pts) if isinstance(pts, Jet) \
            else self.block.jet(pts)


def _diag(cols):
    """The (m, k, k) block with the k (m,) columns `cols` (arrays or Jets)
    on its diagonal: a zero block filled part by part, as _embed fills one.
    A product with np.eye(k) would be the same values (up to the sign of
    its off-diagonal zeros), but numpy runs it as a loop over a length-k
    axis.  A block of (m,) columns is column-major; Jet parts keep theirs.
    The block spans the broadcast shape of the columns: a Jet part one row
    long beside a full one."""
    if len(cols) == 1:
        return cols[0][:, None, None]
    jet = next((c for c in cols if isinstance(c, Jet)), None)
    if jet is not None:
        d = len(jet.d1)
        return Jet(*(_diag([_part(c, o, d) for c in cols])
                     for o in range(3)))
    cols = [np.asarray(c) for c in cols]
    k = len(cols)
    out = np.zeros(np.broadcast_shapes(*(c.shape for c in cols)) + (k, k),
                   order="F" if cols[0].ndim == 1 else "C")
    for i, c in enumerate(cols):
        out[..., i, i] = c
    return out


def hyperbolic_model(chart: ChartModel) -> RadialMetric:
    """sigma = e^{2t} (dx_1^2 + ... + dx_{n-1}^2) + dt^2."""
    def spatial(pts):
        return _diag([np.exp(2.0 * pts[:, -1])] * chart.k)

    return RadialMetric.on_chart(chart, spatial, analytic=True,
                                 name="hyperbolic")


def difference(f: Field, g: Field, name: Optional[str] = None) -> Field:
    """Pointwise f - g on f's domain (shapes must agree).  Two RadialMetrics
    give the (k, k) difference of their spatial blocks: the rest of f - g
    is exactly 0 (their unit entries cancel), which adds nothing to a
    norm."""
    if f.shape != g.shape:
        raise ValueError("field shapes differ")
    shape = f.shape
    if isinstance(f, RadialMetric) and isinstance(g, RadialMetric):
        shape = f.block.shape

        def fn(pts):
            return f.spatial(pts) - g.spatial(pts)
    else:
        def fn(pts):
            return f(pts) - g(pts)

    return Field(f.domain, fn, analytic=f.has_jet and g.has_jet,
                 shape=shape, name=name or f"{f.name}-{g.name}")


def profile_scalar(domain: Domain, profile) -> Field:
    """Lift a 1-D profile p to the domain: f(x, t) = p(last axis).

    p must evaluate on 1-D arrays and on 1-D Jets: written in Jet
    operations, as WarpFunction is, or lifting its own (p, p', p'') with
    Jet.chain, as BumpFunction does.  A constant may return a plain array.
    """
    return Field(domain, lambda pts: profile(pts[:, -1]), analytic=True,
                 name="profile")


# ---------------------------------------------------------------------------
# weighted C2 norm


_CHUNK = 8192
_FD_ROWS = 2 * _CHUNK   # most stencil rows of one FD jet (see _fd_piece)
_FD_STEP = 1e-4         # the FD step of a norm, a fraction of each axis extent

# glibc raises its mmap threshold (and, at twice it, the free heap top that
# it keeps) only when a larger mapped block is freed, so each norm chunk and
# FD piece faulted its working set in afresh (100k minor faults a theorem_n3
# pass); freeing one untouched 4 MiB block raises it for the process.  No
# other import frees a mapped block, so this free alone raises it.
np.empty(1 << 19)


def _chunks(m: int, step: int):
    for i in range(0, m, step):
        yield slice(i, min(i + step, m))


def _fd_piece(d: int) -> int:
    """Rows of one FD piece: their 1 + 2d^2 stencil rows each fit _FD_ROWS."""
    return max(1, _FD_ROWS // (1 + 2 * d * d))


def _reach_inside(dom: Domain, pts: np.ndarray, h: np.ndarray) -> bool:
    """Whether every row of pts lies 2 h_i inside each bound of dom and 2
    max h inside its unit ball: a stencil moves a row by at most h_i along
    each axis, so this suffices (is not necessary) for its stencil."""
    ok = np.ones(len(pts), dtype=bool)
    for i, (lo, hi) in enumerate(dom.bounds):
        ok &= (pts[:, i] > lo + 2.0 * h[i]) & (pts[:, i] < hi - 2.0 * h[i])
    if dom.ball_axes >= 2:
        ok &= dom._ball_radius(pts) < 1.0 - 2.0 * h[:dom.ball_axes].max()
    return bool(ok.all())


def _fd_jet(f: Field, pts: np.ndarray, step: float):
    """Second-order central differences at `step` times each axis extent
    (_FD_STEP on the norm path), at the rows pts, in one evaluation of
    their stencil; raises DomainError, naming the first stencil point
    outside, if any stencil point leaves the field's domain.  The stencil
    points are tested only when the rows fail _reach_inside.

    Callers hand it _fd_piece rows at a time (the norm walk and
    fd_oracle_check), so that the stencil's temporaries fit in the cache.
    The stencil is written column by column into a column-major array;
    its values, read as a (stencil, row, *S) view, and the jet parts have
    a contiguous batch axis.  The differences of all axes (and of all axis
    pairs) are formed together, each with the operations and divisors of
    its own formula.  d1 and d2 are returned as views in the (m, d, *S),
    (m, d, d, *S) layout."""
    dom = f.domain
    d = dom.dim
    h = step * dom.extents

    e = np.diag(h)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    offsets = np.array([np.zeros(d)] + [s * e[i] for i in range(d)
                                        for s in (1, -1)]
                       + [si * e[i] + sj * e[j] for i, j in pairs
                          for si, sj in signs])
    # the divisors along a leading axis (h_i ** 2 a scalar power, as in
    # each axis' own formula), and the axis pairs' indices
    col = (slice(None),) + (None,) * (1 + len(f.shape))
    two_h, h2 = (2.0 * h)[col], np.array([hi ** 2 for hi in h])[col]
    hh4 = np.array([4.0 * h[i] * h[j] for i, j in pairs])[col]
    pi, pj = np.array(pairs, dtype=int).reshape(-1, 2).T

    n = len(pts)
    flat = np.empty((len(offsets) * n, d), order="F")
    for j in range(d):          # stencil s, row r at flat row s * n + r
        np.add(pts[:, j], offsets[:, j, None], out=flat[:, j].reshape(-1, n))
    if not _reach_inside(dom, pts, h):
        inside = dom.contains(flat)
        if not inside.all():
            bad = flat[~inside][0]
            raise DomainError(
                f"finite-difference stencil point {tuple(round(float(c), 12) for c in bad)} "
                f"lies outside the domain of field {f.name!r}"
            )
    vals = f(flat).reshape((len(offsets), n) + f.shape)     # a view

    v0 = vals[0]
    fp, fm = vals[1:1 + 2 * d:2], vals[2:1 + 2 * d:2]
    d1 = (fp - fm) / two_h
    d2 = np.moveaxis(np.empty((d, d) + f.shape + (n,)), -1, 2)  # (d, d, n, *S)
    d2[range(d), range(d)] = (fp - 2.0 * v0 + fm) / h2
    fpp, fpm, fmp, fmm = (vals[1 + 2 * d + k::4] for k in range(4))
    d2[pi, pj] = d2[pj, pi] = (fpp - fpm - fmp + fmm) / hh4
    return v0, np.moveaxis(d1, 0, 1), np.moveaxis(d2, 2, 0)


@dataclass(frozen=True)
class C2Norm:
    """Weighted C2 norm measurement.  per_order_sups holds the weighted
    contribution of each derivative key, so value == max(per_order_sups)."""

    value: float
    per_order_sups: dict
    grid: GridSpec
    derivative_source: str


def c2_norm(f: Field, grid: GridSpec) -> C2Norm:
    """Taylor-weighted C2 norm of a field over `grid`."""
    return _c2_norms([f], (grid,))[0][0]


def _c2_norms(fields: Sequence[Field], specs: tuple) -> list:
    """c2_norm of each field of one domain on each grid of `specs`, one
    list per field, from one walk.  Every field walks the grids' rows
    together, a step at a time (Domain.grid_chunks, or _grid_rows when
    all rows fit one step): _CHUNK rows, or _fd_piece rows when some
    field has no jet, so that the finite-difference stencil of a step
    fits the cache.  A step is seeded once as a _GridJet at which every
    analytic field takes its jet, so that a sub-field they share is
    evaluated once per step; a finite-difference field takes _fd_jet of
    the step's rows.  A field's own result leaves the memo once folded,
    and a field asked for again at that step raises: list a field after
    the fields that contain it.  Each step is folded before the next one
    is built.

    A RadialMetric is walked as its block: the rest of its value is exact
    zeros and the unit last-axis entry, whose derivatives are zero, so its
    sups are its block's, the value's raised to 1 (see _norm), and its
    d x d value is never built.  Its own memo entry is marked folded; its
    block's stays for the fields that contain it."""
    dom = fields[0].domain
    if any(f.domain != dom for f in fields):
        raise ValueError("the fields of one norm walk must share a domain")
    sizes, chunk = _grid_rows(dom, specs)
    if 0 in sizes:
        raise DomainError(f"empty sampling grid for field {fields[0].name!r}")
    found = [[None] * len(specs) for _ in fields]   # per grid: the maxima
    step = _CHUNK if all(f.has_jet for f in fields) else _fd_piece(dom.dim)
    for x, parts in [chunk] if chunk and sum(sizes) <= step \
            else dom.grid_chunks(specs, step):
        seed = _GridJet.seed(x)
        for f, maxima in zip(fields, found):
            # a metric folds its block's jet; _norm adds its unit entry
            g = f.block if isinstance(f, RadialMetric) else f
            if f.has_jet:
                _fold(maxima, g.jet(seed), parts)
                seed.memo[f._fn] = _LastJet.FOLDED
            else:
                _fold(maxima, _fd_jet(g, x, _FD_STEP), parts)
        del seed                # and with it the step's memo
    return [[_norm(f, m, spec) for m, spec in zip(maxima, specs)]
            for f, maxima in zip(fields, found)]


def _fold(found: list, jet, parts):
    """Fold a batch's jet (v, d1, d2) into found[i], the maxima of |v|, of
    |d1| per axis and of |d2| per axis pair of grid i, for each (i, rows)
    of parts.  A part constant along the batch is reduced on its one row."""
    for i, rows in parts:
        got = [_abs_max(_row(a[rows]), (0, *range(1 + o, a.ndim)))
               for o, a in enumerate(jet)]
        found[i] = got if found[i] is None \
            else list(map(np.maximum, found[i], got))   # keeps a NaN


def _abs_max(a: np.ndarray, axis: tuple) -> np.ndarray:
    """np.abs(a).max(axis), bit for bit, without an |a| copy of a: the
    larger of max a and -min a, whose abs, on the maxima alone, clears the
    sign of a zero or of a NaN.  A NaN propagates."""
    return np.abs(np.maximum(a.max(axis), -a.min(axis)))


def _row(a: np.ndarray) -> np.ndarray:
    """a cut to its first row when its batch axis, the first, has stride 0
    (a part of Field.jet constant along the batch); otherwise a itself."""
    return a if a.strides[0] else a[:1]


def _norm(f: Field, maxima: list, spec: GridSpec) -> C2Norm:
    """f's C2Norm on grid `spec` from the maxima of _fold; a metric's are
    its block's, and its unit entry raises the value's to 1 (np.maximum
    keeps a NaN)."""
    names = f.domain.axis_names
    pairs = [(i, j) for i in range(len(names)) for j in range(i, len(names))]
    v, d1, d2 = maxima[0], maxima[1].tolist(), maxima[2].tolist()
    if isinstance(f, RadialMetric):
        v = np.maximum(v, 1.0)
    vals = [float(v), *d1] + [(0.5 if i == j else 1.0) * d2[i][j]  # 1/a!
                              for i, j in pairs]
    sups = dict(zip(["1"] + [f"d{a}" for a in names] + [
        f"d{names[i]}d{names[j]}" for i, j in pairs], vals))
    return C2Norm(value=float(np.max(vals)), per_order_sups=sups, grid=spec,
                  derivative_source="analytic" if f.has_jet
                  else "finite-difference")


# 3 grids: the lemma suites walk the charts of two excess values, and
# lemma3.1 the ball beside each.  A `verify all` pass on
# configs/default.json walks 801 grids, 11 distinct, and hits 790 times at
# any maxsize from 3 to 8, 787 at 2 (cache_info()).
@functools.lru_cache(maxsize=3)
def _grid_rows(domain: Domain, specs: tuple) -> tuple:
    """(sizes, chunk): the grids' row counts and, when their rows fit in one
    chunk, that chunk (x, parts) of grid_chunks, x read-only (else None),
    shared by the walks of every check on the same grids."""
    sizes = tuple(domain.grid_size(spec) for spec in specs)
    if 0 in sizes or sum(sizes) > _CHUNK:
        return sizes, None
    x, parts = next(domain.grid_chunks(specs, _CHUNK))
    x.flags.writeable = False
    return sizes, (x, tuple(parts))


# ---------------------------------------------------------------------------
# dumps


def dump_grid_csv(f: Field, path, grid: GridSpec) -> int:
    """Write f on `grid` to CSV (one row per grid point), returning the
    row count.  Matrix fields emit row-major component columns g11, g12, ...
    Each chunk of rows is built, evaluated and written before the next.
    The grid is sized before the file is opened, so a grid that cannot be
    sampled leaves an earlier file at `path` as it was."""
    rows = f.domain.grid_size(grid)
    header = list(f.domain.axis_names)
    if f.shape == ():
        header.append("value")
    else:
        nr, nc = f.shape
        header += [f"g{i + 1}{j + 1}" for i in range(nr) for j in range(nc)]

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for pts, _ in f.domain.grid_chunks((grid,), _CHUNK):
            cols = f(pts).reshape(len(pts), -1)
            for p, row in zip(pts, cols):
                w.writerow([f"{x:.17g}" for x in p]
                           + [f"{x:.17g}" for x in row])
    return rows
