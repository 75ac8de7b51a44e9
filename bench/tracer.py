"""Outside-in tracer: wraps warpforce's public functions from outside `src/`.

Each wrapper records a span (kind, name, start, end, parent) in memory and
bumps the counters the per-layer metrics need.  Wrappers are installed on
every module attribute that binds the wrapped function, because `verify`,
`manifold`, `cli` and the package namespace import functions by name; the
methods `Field.__call__`, `Field.jet`, `RadialMetric.spatial` and
`RadialMetric.spatial_jet` are patched on their class.  `uninstall` restores
every original binding.

Usage::

    tr = Tracer()
    tr.install()
    try:
        run_the_workload()
    finally:
        tr.uninstall()
    metrics = tr.layer_metrics()
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

# span kinds, one per per-layer timing bucket
NORM = "model.c2_norm"
JET = "model.field_jet"
VALUE = "model.field_value"
RM_JET = "warpcore.radial_metric.jet"
RM_VALUE = "warpcore.radial_metric.value"
OPERATOR = "warpcore.operators"
CHART = "manifold.radial_chart"
CLOSENESS = "manifold.radial_closeness"
PULLBACK = "manifold.pullback_eval"
CHECK = "verify.check"
RUN = "verify.run"
CLI = "cli"

# (module, function, span kind)
FUNCTIONS = [
    ("warpforce.model", "c2_norm", NORM),
    ("warpforce.warpcore", "warp_force", OPERATOR),
    ("warpforce.warpcore", "sinh_warped_cut", OPERATOR),
    ("warpforce.warpcore", "blend", OPERATOR),
    ("warpforce.warpcore", "apply_warp", OPERATOR),
    ("warpforce.warpcore", "warped_extension", OPERATOR),
    ("warpforce.warpcore", "radial_slice", OPERATOR),
    ("warpforce.manifold", "radial_chart", CHART),
    ("warpforce.manifold", "radial_closeness", CLOSENESS),
    ("warpforce.verify", "check_lemma_1_1", CHECK),
    ("warpforce.verify", "check_lemma_2_1", CHECK),
    ("warpforce.verify", "check_lemma_2_2", CHECK),
    ("warpforce.verify", "check_lemma_2_3", CHECK),
    ("warpforce.verify", "check_lemma_3_1", CHECK),
    ("warpforce.verify", "check_lemma_3_2", CHECK),
    ("warpforce.verify", "check_main_theorem", CHECK),
    ("warpforce.verify", "run_check", RUN),
    ("warpforce.verify", "run_theorem_sweep", RUN),
    ("warpforce.cli", "main", CLI),
]

# Which workloads are predicted to call each wrapped target.  The theorem
# part of `verify all` is n = 2 with analytic jets, so only theorem_n3 takes
# the finite-difference path (`_fd_jet`, plain `Field` and `RadialMetric`
# value calls) and only it makes no jet calls.
ALL = frozenset({"audit_n2", "theorem_n3", "fine_n2"})
AUDIT = frozenset({"audit_n2"})
N3 = frozenset({"theorem_n3"})
EXPECTED = {
    "model.c2_norm": ALL,
    "model._fd_jet": N3,
    "model.Field.jet": AUDIT | {"fine_n2"},
    "model.Field.__call__": N3,
    "warpcore.RadialMetric.spatial_jet": AUDIT | {"fine_n2"},
    "warpcore.RadialMetric.spatial": N3,
    "warpcore.warp_force": ALL,
    "warpcore.sinh_warped_cut": ALL,
    "warpcore.blend": AUDIT,
    "warpcore.apply_warp": AUDIT,
    "warpcore.warped_extension": AUDIT,
    "warpcore.radial_slice": AUDIT,
    "manifold.radial_chart": ALL,
    "manifold.radial_closeness": ALL,
    "verify.check_lemma_1_1": AUDIT,
    "verify.check_lemma_2_1": AUDIT,
    "verify.check_lemma_2_2": AUDIT,
    "verify.check_lemma_2_3": AUDIT,
    "verify.check_lemma_3_1": AUDIT,
    "verify.check_lemma_3_2": AUDIT,
    "verify.check_main_theorem": ALL,
    "verify.run_check": AUDIT,
    "verify.run_theorem_sweep": ALL,
    "cli.main": AUDIT,
}


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


def _npoints(pts) -> int:
    a = pts if isinstance(pts, np.ndarray) else np.asarray(pts)
    return a.shape[0] if a.ndim == 2 else 1


class Tracer:
    """Spans and counters of one traced workload pass."""

    def __init__(self):
        # span: [parent index, kind, name, start, end, outermost of its kind]
        self.spans = []
        self.counts = Counter()   # per-layer work counters
        self.calls = Counter()    # calls per wrapped target, for coverage
        self._stack = []          # indices of open spans
        self._depth = Counter()   # open spans per kind
        self._patches = []        # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _open(self, kind: str, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([parent, kind, name, time.perf_counter(), 0.0,
                           self._depth[kind] == 0])
        self._stack.append(idx)
        self._depth[kind] += 1
        return idx

    def _close(self, idx: int):
        span = self.spans[idx]
        span[4] = time.perf_counter()
        self._stack.pop()
        self._depth[span[1]] -= 1

    def _under_norm(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][1] == NORM

    def _field_kind(self, field, n: int, default: str) -> str:
        """Pullback fields are the manifold layer's; others keep `default`."""
        if field.name.startswith("pull["):
            self.counts["pullback.points"] += n
            return PULLBACK
        return default

    # -- wrappers ----------------------------------------------------------

    def _wrap_function(self, label: str, kind: str, fn):
        tracer = self
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[label] += 1
            idx = tracer._open(kind, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if kind == NORM and out.derivative_source == "finite-difference":
                tracer.counts["fd_norms"] += 1
            return out

        return wrapper

    def _wrap_field_call(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(field, pts):
            tracer.calls["model.Field.__call__"] += 1
            n = _npoints(pts)
            if tracer._under_norm():
                tracer.counts["field_value.points"] += n
            idx = tracer._open(tracer._field_kind(field, n, VALUE),
                               field.name)
            try:
                return fn(field, pts)
            finally:
                tracer._close(idx)

        return wrapper

    def _wrap_field_jet(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(field, pts):
            tracer.calls["model.Field.jet"] += 1
            n = _npoints(pts)
            outer = tracer._under_norm()
            idx = tracer._open(tracer._field_kind(field, n, JET), field.name)
            try:
                out = fn(field, pts)
            finally:
                tracer._close(idx)
            if outer:
                tracer.counts["norm.points"] += n
                tracer.counts["field_jet.points"] += n
                tracer.counts["field_jet.bytes"] += sum(a.nbytes for a in out)
            return out

        return wrapper

    def _wrap_fd_jet(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, pts, spec):
            tracer.calls["model._fd_jet"] += 1
            tracer.counts["norm.points"] += _npoints(pts)
            return fn(f, pts, spec)

        return wrapper

    def _wrap_radial(self, label: str, kind: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(metric, pts):
            tracer.calls[label] += 1
            tracer.counts[kind + ".points"] += _npoints(pts)
            idx = tracer._open(kind, metric.name)
            try:
                return fn(metric, pts)
            finally:
                tracer._close(idx)

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper):
        """Point every warpforce module attribute bound to `original` at
        `wrapper`."""
        for modname, mod in list(sys.modules.items()):
            if modname != "warpforce" and not modname.startswith("warpforce."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def _patch_method(self, cls, attr: str, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        """Wrap every target; raises LookupError if one no longer exists."""
        for modname, fname, kind in FUNCTIONS:
            fn = getattr(importlib.import_module(modname), fname, None)
            if fn is None:
                self.uninstall()
                raise LookupError(f"{modname}.{fname} not found")
            label = f"{_short(modname)}.{fname}"
            self._rebind(fn, self._wrap_function(label, kind, fn))
        model = importlib.import_module("warpforce.model")
        warpcore = importlib.import_module("warpforce.warpcore")
        self._rebind(model._fd_jet, self._wrap_fd_jet(model._fd_jet))
        self._patch_method(model.Field, "__call__",
                           self._wrap_field_call(model.Field.__call__))
        self._patch_method(model.Field, "jet",
                           self._wrap_field_jet(model.Field.jet))
        rm = warpcore.RadialMetric
        self._patch_method(rm, "spatial", self._wrap_radial(
            "warpcore.RadialMetric.spatial", RM_VALUE, rm.spatial))
        self._patch_method(rm, "spatial_jet", self._wrap_radial(
            "warpcore.RadialMetric.spatial_jet", RM_JET, rm.spatial_jet))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def times(self):
        """(self seconds by kind, outermost-of-kind inclusive seconds by
        kind, span count by kind)."""
        child = [0.0] * len(self.spans)
        for parent, _, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, incl_s, n = Counter(), Counter(), Counter()
        for i, (_, kind, _, start, end, outermost) in enumerate(self.spans):
            self_s[kind] += (end - start) - child[i]
            if outermost:
                incl_s[kind] += end - start
            n[kind] += 1
        return self_s, incl_s, n

    def layer_metrics(self) -> dict:
        """Per-layer counts and times of the traced pass.  Report counts
        (`verify.*` except the check spans, `cli.bytes_written`) come from
        the workload outputs and are filled in by the caller."""
        self_s, incl_s, n = self.times()
        c = self.counts
        norms = n[NORM]
        norm_points = c["norm.points"]
        return {
            "model.c2_norm.calls": norms,
            "model.c2_norm.points": norm_points,
            "model.c2_norm.self_s": self_s[NORM],
            "model.c2_norm.fd_share": c["fd_norms"] / norms if norms else 0.0,
            "model.field_jet.points": c["field_jet.points"],
            "model.field_jet.self_s": self_s[JET],
            "model.field_jet.bytes_out": c["field_jet.bytes"],
            "model.field_value.points": c["field_value.points"],
            "model.field_value.self_s": self_s[VALUE],
            "model.value_evals_per_point": (c["field_value.points"]
                                            / norm_points
                                            if norm_points else 0.0),
            "warpcore.radial_metric.jet_points": c[RM_JET + ".points"],
            "warpcore.radial_metric.jet_self_s": self_s[RM_JET],
            "warpcore.radial_metric.value_points": c[RM_VALUE + ".points"],
            "warpcore.radial_metric.value_self_s": self_s[RM_VALUE],
            "warpcore.operators.calls": n[OPERATOR],
            "warpcore.operators.s": incl_s[OPERATOR],
            "manifold.radial_chart.calls": n[CHART],
            "manifold.radial_chart.s": incl_s[CHART],
            "manifold.radial_closeness.calls": n[CLOSENESS],
            "manifold.radial_closeness.s": incl_s[CLOSENESS],
            "manifold.pullback_eval.points": c["pullback.points"],
            "manifold.pullback_eval.self_s": self_s[PULLBACK],
            "verify.check.calls": n[CHECK],
            "verify.check.self_s": self_s[CHECK] + self_s[RUN],
            "cli.self_s": self_s[CLI],
        }

    def missing_coverage(self, workload: str) -> list:
        """Wrapped targets predicted to run on `workload` that made no call."""
        return sorted(label for label, users in EXPECTED.items()
                      if workload in users and self.calls[label] == 0)
