import dataclasses
import gc
import os
import platform
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpforce import model
from warpforce.model import (
    C2Norm,
    ChartModel,
    Domain,
    DomainError,
    Field,
    GridSpec,
    Jet,
    _CHUNK,
    _GridJet,
    _LastJet,
    _diag,
    _FD_STEP,
    _fd_jet,
    _grid_rows,
    ball_domain,
    c2_norm,
    difference,
    dump_grid_csv,
    hyperbolic_model,
    interval_domain,
    RadialMetric,
    WarpforceError,
    profile_scalar,
)
from warpforce.verify import fd_oracle_check, measured_with_error
from warpforce.warpcore import WarpFunction, apply_warp, blend

from memory import traced_peak_mb
from polynomials import polynomial_scalar


def chart2(xi=1.0, pts=64):
    return ChartModel(n=2, xi=xi, grid=GridSpec(points_per_axis=pts))


def sigma_norm_oracle(xi, margin=0.02):
    # spatial block e^{2t}: sups at t_max; weighted max(1, 2, 4/2) e^{2 t_max}
    t_max = (1.0 + xi) * (1.0 - 2.0 * margin)
    return 2.0 * np.exp(2.0 * t_max)


class TestGridSpec:
    def test_defaults(self):
        g = GridSpec()
        assert g.points_per_axis == 64
        assert g.boundary_margin == 0.02
        assert [f.name for f in dataclasses.fields(g)] == [
            "points_per_axis", "boundary_margin"]     # no FD step to set

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(points_per_axis=2)
        with pytest.raises(ValueError):
            GridSpec(boundary_margin=0.5)
        with pytest.raises(TypeError):
            GridSpec(fd_step=1e-6)      # the FD step is model._FD_STEP

    @pytest.mark.parametrize("points", [16.5, 16.0, "16", None])
    def test_points_per_axis_must_be_an_integer(self, points):
        # np.linspace refuses a float count with a TypeError deep in a norm
        with pytest.raises(ValueError, match="integer"):
            GridSpec(points_per_axis=points)

    def test_numpy_integer_points_accepted(self):
        assert GridSpec(points_per_axis=np.int64(16)).points_per_axis == 16

    def test_halved(self):
        assert GridSpec(points_per_axis=64).halved().points_per_axis == 32
        assert GridSpec(points_per_axis=5).halved().points_per_axis == 4
        # no strictly coarser probe grid exists: the error estimate would be 0
        with pytest.raises(ValueError):
            GridSpec(points_per_axis=4).halved()


class TestDomains:
    def test_chart_margin_inset(self):
        ch = chart2(xi=1.0)
        pts = ch.grid_points()
        # extent 4 radial axis, margin fraction 0.02 -> inset 0.08 per side
        assert pts[:, 1].min() == pytest.approx(-1.92)
        assert pts[:, 1].max() == pytest.approx(1.92)
        assert pts[:, 0].min() == pytest.approx(-0.96)

    def test_closed_window_includes_endpoints(self):
        w = interval_domain(0.0, 5.0)
        a = w.grid(GridSpec(points_per_axis=11))
        assert a[0, 0] == 0.0 and a[-1, 0] == 5.0

    def test_ball_mask(self):
        ch = ChartModel(n=4, xi=0.5, grid=GridSpec(points_per_axis=12))
        pts = ch.grid_points()
        r = np.linalg.norm(pts[:, :3], axis=1)
        assert r.max() <= 0.96 + 1e-15
        assert len(pts) > 0

    def test_contains_open_vs_closed(self):
        open_d = ball_domain(2)
        assert not open_d.contains(np.array([[1.0, 0.0]]))[0]
        closed_w = interval_domain(0.0, 1.0)
        assert closed_w.contains(np.array([[0.0]]))[0]

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("k", [2, 3])
    def test_contains_matches_norm_at_the_unit_sphere(self, closed, k):
        dom = Domain(bounds=((-1.0, 1.0),) * k,
                     axis_names=tuple(f"x{i}" for i in range(k)),
                     ball_axes=k, closed=closed)
        u = np.random.default_rng(k).normal(size=(200, k))
        u = np.concatenate([np.eye(k), u / np.linalg.norm(u, axis=1)[:, None]])
        radii = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
        pts = np.concatenate([r * u for r in radii])
        r = np.linalg.norm(pts, axis=1)
        if closed:
            want = (np.abs(pts) <= 1.0).all(axis=1) & (r <= 1.0)
        else:
            want = (np.abs(pts) < 1.0).all(axis=1) & (r < 1.0)
        assert 0 < want.sum() < len(pts)
        assert np.array_equal(dom.contains(pts), want)

    @pytest.mark.parametrize("dom", [
        ChartModel(n=2).domain, ChartModel(n=3, xi=0.5).domain,
        ChartModel(n=4).domain, ball_domain(2), interval_domain(0.0, 1.0),
        Domain(bounds=((0.1, 3.0), (-3.0, 3.0), (1.0, 9.0)),
               axis_names=("phi", "psi", "r")),
    ], ids=["n2", "n3-ball", "n4-ball", "ball-only", "interval", "polar3"])
    @pytest.mark.parametrize("step", [1, 7, _CHUNK])
    def test_grid_chunks_are_the_grid(self, dom, step):
        # each chunk is built from its row indices alone, the ball mask
        # from the leading axes alone; grid reads the same rows whole, and
        # a chunk may end one grid and begin the next
        def meshgrid_reference(spec):
            mesh = np.meshgrid(*dom.axis_points(spec), indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
            if dom.ball_axes >= 2:
                r = np.linalg.norm(pts[:, :dom.ball_axes], axis=1)
                pts = pts[r <= 1.0 - 2.0 * spec.boundary_margin]
            return pts

        spec = GridSpec(points_per_axis=13)
        whole = meshgrid_reference(spec)
        assert np.array_equal(dom.grid(spec), whole)
        assert dom.grid_size(spec) == len(whole)
        assert dom.grid(spec).flags.f_contiguous   # one column a coordinate
        for specs in ((spec,), (spec, spec.halved())):
            chunks = [x for x, _ in dom.grid_chunks(specs, step)]
            assert all(c.flags.f_contiguous for c in chunks)
            assert all(len(c) == step for c in chunks[:-1])
            assert 0 < len(chunks[-1]) <= step
            assert np.array_equal(np.concatenate(chunks), np.concatenate(
                [meshgrid_reference(s) for s in specs]))

    def test_chart_validation(self):
        with pytest.raises(ValueError):
            ChartModel(n=1)
        for xi in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                ChartModel(n=2, xi=xi)


class TestC2Norm:
    def test_hyperbolic_norm_oracle(self):
        for xi in (1.0, 0.5):
            ch = chart2(xi=xi)
            nrm = c2_norm(hyperbolic_model(ch), ch.grid)
            assert nrm.derivative_source == "analytic"
            assert nrm.value == pytest.approx(sigma_norm_oracle(xi), rel=1e-12)

    def test_value_is_max_of_per_order(self):
        ch = chart2()
        nrm = c2_norm(hyperbolic_model(ch), ch.grid)
        assert nrm.value == max(nrm.per_order_sups.values())
        assert set(nrm.per_order_sups) == {"1", "dx1", "dt",
                                           "dx1dx1", "dx1dt", "dtdt"}

    def test_pure_second_weight_is_half(self):
        ch = chart2()
        nrm = c2_norm(hyperbolic_model(ch), ch.grid)
        # d2/dt2 e^{2t} = 4 e^{2t}; stored weighted contribution is half that
        assert nrm.per_order_sups["dtdt"] == pytest.approx(
            nrm.per_order_sups["dt"], rel=1e-12)

    def test_fd_matches_jet(self):
        ch = chart2()
        sig = hyperbolic_model(ch)
        fd = Field(sig.domain, lambda p: sig(p), shape=sig.shape, name="fd")
        n_fd = c2_norm(fd, ch.grid)
        n_jet = c2_norm(sig, ch.grid)
        assert n_fd.derivative_source == "finite-difference"
        assert n_fd.value == pytest.approx(n_jet.value, rel=1e-5)

    def test_deviation_oracles(self):
        for xi in (1.0, 0.5):
            ch = chart2(xi=xi)
            sig = hyperbolic_model(ch)
            pert = RadialMetric.on_chart(
                ch,
                lambda p: 1.01 * np.exp(2 * p[:, -1])[:, None, None] * np.eye(1),
                name="pert",
            )
            dev = c2_norm(difference(pert, sig), ch.grid)
            assert dev.value == pytest.approx(0.01 * sigma_norm_oracle(xi),
                                              rel=1e-5)

    def test_metric_deviation_threshold(self):
        ch = chart2(xi=0.5)
        sig = hyperbolic_model(ch)
        pert = RadialMetric.on_chart(
            ch,
            lambda p: 1.01 * np.exp(2 * p[:, -1])[:, None, None] * np.eye(1),
        )
        oracle = 0.01 * sigma_norm_oracle(0.5)
        dev = c2_norm(difference(pert, sig), ch.grid)
        assert dev.value < 2.0 * oracle and isinstance(dev, C2Norm)
        assert not dev.value < 0.5 * oracle

    def test_stencil_domain_error_names_point(self):
        w = interval_domain(0.0, 5.0)
        f = Field(w, lambda p: np.exp(-p[:, 0]), name="decay")
        with pytest.raises(DomainError) as exc:
            c2_norm(f, GridSpec())
        assert "decay" in str(exc.value)
        assert "(" in str(exc.value)  # names the offending point


def poly_pair(draw_coeffs):
    dom = chart2(pts=16).domain
    f = polynomial_scalar(dom, draw_coeffs[0])
    g = polynomial_scalar(dom, draw_coeffs[1])
    return dom, f, g


coeff_arrays = st.lists(
    st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=3, max_size=3),
    min_size=3, max_size=3,
).map(lambda rows: np.array(rows))


class TestNormAxioms:
    GRID = GridSpec(points_per_axis=16)

    @settings(max_examples=25, deadline=None)
    @given(coeff_arrays, coeff_arrays)
    def test_triangle_inequality(self, ca, cb):
        dom = chart2().domain
        f = polynomial_scalar(dom, ca)
        g = polynomial_scalar(dom, cb)
        s = polynomial_scalar(dom, ca + cb)
        nf = c2_norm(f, self.GRID).value
        ng = c2_norm(g, self.GRID).value
        ns = c2_norm(s, self.GRID).value
        assert ns <= nf + ng + 1e-10 * (1 + nf + ng)

    @settings(max_examples=25, deadline=None)
    @given(coeff_arrays, st.floats(-3.0, 3.0, allow_nan=False))
    def test_homogeneity(self, ca, c):
        dom = chart2().domain
        f = polynomial_scalar(dom, ca)
        cf = polynomial_scalar(dom, c * ca)
        nf = c2_norm(f, self.GRID).value
        ncf = c2_norm(cf, self.GRID).value
        assert ncf == pytest.approx(abs(c) * nf, rel=1e-10, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(coeff_arrays, coeff_arrays)
    def test_product_rule_factor_four(self, ca, cb):
        dom = chart2().domain
        f = polynomial_scalar(dom, ca)
        g = polynomial_scalar(dom, cb)
        # the product's jet comes from Jet arithmetic (the Leibniz rule)
        prod = Field(dom, lambda p: f(p) * g(p), analytic=True, name="fg")
        np_ = c2_norm(prod, self.GRID).value
        nf = c2_norm(f, self.GRID).value
        ng = c2_norm(g, self.GRID).value
        assert np_ <= 4.0 * nf * ng + 1e-10 * (1 + nf * ng)


class TestJets:
    def test_polynomial_fd_agreement(self):
        dom = chart2().domain
        rng = np.random.default_rng(7)
        coeffs = rng.uniform(-1, 1, size=(3, 3))
        f = polynomial_scalar(dom, coeffs)
        pts = dom.grid(GridSpec(points_per_axis=8))
        v, d1, d2 = f.jet(pts)
        w, e1, e2 = _fd_jet(f, pts, _FD_STEP)
        assert np.abs(v - w).max() == 0.0
        assert np.abs(d1 - e1).max() < 1e-9
        assert np.abs(d2 - e2).max() < 1e-6

    def test_profile_lift_shift(self):
        dom = chart2().domain
        f = profile_scalar(dom, lambda t: (t - 0.5) ** 2)
        pts = np.array([[0.3, 1.5], [0.0, -1.0]])
        assert f(pts) == pytest.approx((pts[:, 1] - 0.5) ** 2)
        v, d1, d2 = f.jet(pts)
        assert d1[:, 0] == pytest.approx(0.0)
        assert d1[:, 1] == pytest.approx(2 * (pts[:, 1] - 0.5))
        assert d2[:, 1, 1] == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_metric_difference_is_bitwise_the_full_difference(self, n):
        ch = chart2(pts=8) if n == 2 else ChartModel(
            n=3, grid=GridSpec(points_per_axis=8))
        H = np.array([[1.3, 0.2], [0.2, 0.9]])[:ch.k, :ch.k]

        def spatial(p):
            f = np.exp(2 * p[:, -1]) * (1.0 + 0.2 * np.sin(p[:, 0]))
            return f[:, None, None] * H

        g = RadialMetric.on_chart(ch, spatial, analytic=True)
        sig = hyperbolic_model(ch)
        d = difference(g, sig)
        pts = ch.grid_points()
        k = ch.k
        assert d(pts).shape == (len(pts), k, k)
        for got, a, b in zip((d(pts),) + d.jet(pts), (g(pts),) + g.jet(pts),
                             (sig(pts),) + sig.jet(pts)):
            full = a - b
            assert np.array_equal(got, full[..., :k, :k])
            full[..., :k, :k] = 0.0
            assert not full.any()

    def test_difference_propagates_jets(self):
        ch = chart2()
        sig = hyperbolic_model(ch)
        d = difference(sig, sig)
        assert d.has_jet
        assert c2_norm(d, ch.grid).value == 0.0


def eye_product(cols):
    """A diagonal block as the package built it before _diag: the columns
    side by side, broadcast against np.eye."""
    return np.concatenate([c[:, None] for c in cols], axis=1)[:, :, None] \
        * np.eye(len(cols))


def parts(x):
    return (x.v, x.d1, x.d2) if isinstance(x, Jet) else (x,)


def same(a, b):
    """a == b, with NaN equal to NaN."""
    return a == b or (a != a and b != b)


def embedded(f, g):
    """f - g of two RadialMetrics as the full d x d difference."""
    d = f.domain.dim
    return Field(f.domain, lambda p: f(p) - g(p),
                 analytic=f.has_jet and g.has_jet, shape=(d, d))


def nan_metric(ch, analytic):
    """A chart metric whose rows with x1 > 0.5 are NaN."""
    H = np.array([[1.3, 0.2], [0.2, 0.9]])[:ch.k, :ch.k]

    def spatial(p):
        w = np.where(np.asarray(p)[:, 0] > 0.5, np.nan, 1.0)
        return np.exp(2 * p[:, -1])[:, None, None] * H * w[:, None, None]

    return RadialMetric.on_chart(ch, spatial, analytic=analytic, name="nan")


def pullback_pair(n):
    """(pullback, sigma) on a radial chart: analytic for n = 2, finite
    differences for n = 3."""
    from warpforce.manifold import (perturbed_hyperbolic, pullback,
                                    radial_chart)
    m = perturbed_hyperbolic(n, amplitude=0.05,
                             grid=GridSpec(points_per_axis=16 if n == 2
                                           else 8))
    rc = radial_chart(m, 5.0, y0=None if n == 2 else (1.2, 0.3))
    return pullback(rc, m.metric), hyperbolic_model(rc.chart)


class TestBlocks:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("jet", [False, True])
    def test_diag_is_bitwise_the_eye_product(self, k, jet):
        pts = ChartModel(n=4, grid=GridSpec(points_per_axis=5)).grid_points()
        x = Jet.seed(pts) if jet else pts
        cols = [np.exp(2 * x[:, -1]), -np.sin(x[:, 0]) * x[:, 1],
                x[:, 2] * x[:, 2] - 0.3][:k]
        got, want = _diag(cols), eye_product(cols)
        assert got.shape == (len(pts), k, k)
        off = ~np.eye(k, dtype=bool)
        for a, b in zip(parts(got), parts(want)):
            assert np.array_equal(a, b)
            assert not a[..., off].any()

    @pytest.mark.parametrize("k", [2, 3])
    def test_diag_is_column_major_and_bitwise_the_row_major_fill(self, k):
        pts = ChartModel(n=4, grid=GridSpec(points_per_axis=5)).grid_points()
        cols = [np.exp(2 * pts[:, -1]), -np.sin(pts[:, 0]) * pts[:, 1],
                pts[:, 2] * pts[:, 2] - 0.3][:k]
        want = np.zeros((len(pts), k, k))
        for i, c in enumerate(cols):
            want[:, i, i] = c
        got = _diag(cols)
        assert got.flags.f_contiguous and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # a Jet's derivative parts keep their (d, m, k, k) layout
        jet = _diag([c * Jet.seed(pts)[:, 0] for c in cols])
        assert jet.d2.flags.c_contiguous

    @pytest.mark.parametrize("n", [2, 3])
    def test_hyperbolic_model_is_bitwise_the_eye_product(self, n):
        ch = ChartModel(n=n, grid=GridSpec(points_per_axis=8))
        old = RadialMetric.on_chart(
            ch, lambda p: np.exp(2.0 * p[:, -1])[:, None, None]
            * np.eye(ch.k), analytic=True)
        sig = hyperbolic_model(ch)
        pts = ch.grid_points()
        assert np.array_equal(sig.spatial(pts), old.spatial(pts))
        for got, want in zip(sig.spatial_jet(pts), old.spatial_jet(pts)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", ["n2-analytic", "n3-fd", "n2-nan",
                                      "n3-nan-fd"])
    def test_block_norms_equal_the_full_difference_norms(self, case):
        n = int(case[1])
        if "nan" in case:
            ch = ChartModel(n=n, grid=GridSpec(points_per_axis=8))
            f, g = nan_metric(ch, analytic=n == 2), hyperbolic_model(ch)
        else:
            f, g = pullback_pair(n)
        block, full = difference(f, g), embedded(f, g)
        assert block.shape == (n - 1, n - 1)
        assert block.has_jet == full.has_jet == (n == 2)
        spec = f.chart.grid
        a, b = c2_norm(block, spec), c2_norm(full, spec)
        assert a.derivative_source == b.derivative_source
        assert same(a.value, b.value)
        assert a.per_order_sups.keys() == b.per_order_sups.keys()
        assert all(same(a.per_order_sups[key], b.per_order_sups[key])
                   for key in a.per_order_sups)
        ((a, a_err),), ((b, b_err),) = (measured_with_error([block], spec),
                                        measured_with_error([full], spec))
        assert same(a.value, b.value) and same(a_err, b_err)
        assert all(same(a.per_order_sups[key], b.per_order_sups[key])
                   for key in a.per_order_sups)
        assert (a.value != a.value) == ("nan" in case)


def counted(calls):
    """A chart metric's spatial block that records the batch size of every
    Jet it is evaluated at."""
    def spatial(p):
        if isinstance(p, Jet):
            calls.append(len(p))
        return (np.exp(2 * p[:, -1]) * (1.0 + 0.2 * np.sin(p[:, 0])))[
            :, None, None]
    return spatial


class TestMemo:
    def test_shared_metric_is_evaluated_once_per_grid(self):
        ch = chart2(pts=16)
        spec = ch.grid
        calls = []
        g = RadialMetric.on_chart(ch, counted(calls), analytic=True)
        n_full = len(ch.grid_points())
        n_half = len(ch.grid_points(spec.halved()))

        c2_norm(difference(apply_warp(g, WarpFunction(3.0)), g), spec)
        assert calls == [n_full]
        # the N and N/2 grids of several fields: one evaluation for all
        measured_with_error([
            difference(apply_warp(g, WarpFunction(4.0)), g),
            difference(g, hyperbolic_model(ch)), g], spec)
        assert calls == [n_full, n_full + n_half]

    def test_no_jet_outlives_its_walk(self):
        ch = chart2(pts=16)
        seen = []

        def spatial(p):
            seen.append(p)
            return counted([])(p)

        g = RadialMetric.on_chart(ch, spatial, analytic=True)
        measured_with_error([difference(g, hyperbolic_model(ch)), g], ch.grid)
        (x,) = seen
        # the seed and its memo are held by `seen` alone; the memo keeps the
        # shared blocks (g's, sigma's), and the walk's own fields only as
        # markers, not their folded results
        assert isinstance(x, _GridJet) and g.block._fn in x.memo
        folded = [k for k, v in x.memo.items() if v is _LastJet.FOLDED]
        assert g._fn in folded and len(folded) == 2 and len(x.memo) == 4
        del seen[:]
        assert sys.getrefcount(x) == 2

    def test_a_field_asked_for_after_its_fold_is_an_error(self):
        # lam folded first, then asked for again by the blend containing
        # it: without the marker it would be evaluated twice per chunk
        ch = chart2(pts=16)
        g1 = RadialMetric.on_chart(ch, counted([]), analytic=True)
        g2 = hyperbolic_model(ch)
        calls = []

        def half(t):
            calls.append(len(t))
            return 0.5 + 0.0 * t

        lam = profile_scalar(ch.domain, half)
        sigma = hyperbolic_model(ch)
        with pytest.raises(WarpforceError, match="'profile'.*folded"):
            measured_with_error(
                [lam, difference(blend(g1, g2, lam), sigma)], ch.grid)
        # the order check_lemma_1_1 uses: the container first
        del calls[:]
        (full, _), (lam_c2, _) = measured_with_error(
            [difference(blend(g1, g2, lam), sigma), lam], ch.grid)
        assert lam_c2.value == 0.5 and full.value > 0.0
        assert len(calls) == 1          # both grids fit one chunk

    def test_only_the_same_grid_jet_object_is_remembered(self):
        ch = chart2(pts=8)
        calls = []
        g = RadialMetric.on_chart(ch, counted(calls), analytic=True)
        pts = ch.grid_points()
        x = _GridJet.seed(pts)
        first = g.spatial(x)
        assert g.spatial(x) is first and g(x) is g(x)
        assert len(calls) == 1
        again = g.spatial(_GridJet.seed(pts.copy()))     # equal values
        assert len(calls) == 2
        assert np.array_equal(again.d2, first.d2)
        y = Jet.seed(pts)                # not a norm grid's Jet
        g.spatial(y)
        g.spatial(y)
        assert len(calls) == 4

    def test_array_calls_are_never_memoized(self):
        ch = chart2(pts=8)
        seen = []

        def fn(p):
            seen.append(type(p))
            return np.exp(2 * p[:, -1])

        f = Field(ch.domain, fn)            # finite differences
        pts = ch.grid_points()
        f(pts)
        f(pts)
        assert len(seen) == 2
        c2_norm(f, ch.grid)
        once = len(seen) - 2            # one call per piece of the stencil
        c2_norm(f, ch.grid)
        assert once >= 1 and len(seen) == 2 + 2 * once
        assert all(t is np.ndarray for t in seen)

    def test_dropped_metric_is_freed_by_reference_counting(self):
        ch = chart2(pts=8)
        gc.disable()
        try:
            g = RadialMetric.on_chart(ch, counted([]), analytic=True)
            f = Field(ch.domain, lambda p: 0.0 * g(p), analytic=True,
                      shape=(2, 2))
            c2_norm(f, ch.grid)             # fills both memos
            refs = weakref.ref(g), weakref.ref(f)
            del g, f
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("sizes", [(101, 50), (_CHUNK,),
                                       (2 * _CHUNK + 3,), (6000, 3000)])
    def test_chunks_walk_each_grid_in_order(self, sizes):
        # a pair that shares one chunk, a grid of exactly one chunk, a grid
        # that ends in a partial chunk, and a pair that does not fit one
        # chunk together, whose first chunk ends the first grid and begins
        # the second
        dom = interval_domain(0.0, 1.0)
        specs = tuple(GridSpec(points_per_axis=n) for n in sizes)
        got = [[] for _ in specs]
        chunks = []
        for x, parts in dom.grid_chunks(specs, _CHUNK):
            chunks.append(len(x))
            for i, part in parts:
                got[i].append(x[part])
        assert all(n == _CHUNK for n in chunks[:-1]) and sum(chunks) == \
            sum(sizes)
        for rows, spec in zip(got, specs):
            assert np.array_equal(np.concatenate(rows), dom.grid(spec))

    def test_large_grid_norm_builds_one_chunk_at_a_time(self):
        # the N and N/2 grids at 1024 points per axis (16.8 and 4.2 MB of
        # points) took 33.6 MB when each was built whole before its walk
        ch = chart2(pts=1024)
        _, mb = traced_peak_mb(measured_with_error, [hyperbolic_model(ch)],
                               ch.grid)
        assert mb < 10.0

    def test_seed_cache_is_bounded(self):
        # the points cache keeps read-only grid rows, a bounded number
        size = _grid_rows.cache_info().maxsize
        for xi in np.linspace(0.5, 2.0, 2 * size):
            ch = chart2(xi=float(xi), pts=8)
            c2_norm(hyperbolic_model(ch), ch.grid)
        assert _grid_rows.cache_info().currsize == size
        spec = GridSpec(points_per_axis=8)
        sizes, (x, parts) = _grid_rows(chart2().domain, (spec,))
        assert type(x) is np.ndarray and not x.flags.writeable
        assert sizes == (64,) and parts == ((0, slice(0, 64)),)


_SECOND_PASS_FAULTS = """
import resource
from warpforce.verify import run_check
run_check("lemma2.3", {"instances": 4})
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_check("lemma2.3", {"instances": 4})
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="glibc's dynamic mmap threshold")
def test_a_second_pass_reuses_the_heap():
    # importing warpforce raises glibc's mmap threshold (model frees an
    # untouched 4 MiB block), so a second pass finds its chunks' pages on
    # the heap: 0-1 minor faults, about 1,800 without that free
    src = Path(model.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", _SECOND_PASS_FAULTS],
                          capture_output=True, text=True, env=env, check=True)
    assert int(proc.stdout) < 100


def whole_grid_sups(f, spec):
    """Per-key sups of one finite-difference jet of f's whole grid, key by
    key: the reference for the norm walk's reduction by jet part."""
    names = f.domain.axis_names
    v, d1, d2 = _fd_jet(f, f.domain.grid(spec), _FD_STEP)
    s = {"1": float(np.max(np.abs(v)))}
    for i, a in enumerate(names):
        s[f"d{a}"] = float(np.max(np.abs(d1[:, i])))
    for i, a in enumerate(names):
        for j in range(i, len(names)):
            w = 0.5 if i == j else 1.0
            s[f"d{a}d{names[j]}"] = w * float(np.max(np.abs(d2[:, i, j])))
    return s


class TestFdPieces:
    """Finite-difference jets, and the norms over them, work in pieces of at
    most _FD_ROWS stencil rows."""

    @staticmethod
    def counting(f, rows):
        """f as a finite-difference field that records its batch sizes."""
        return Field(f.domain, lambda p: rows.append(len(p)) or f(p),
                     shape=f.shape, name=f.name)

    N2 = (GridSpec(points_per_axis=64), GridSpec(points_per_axis=32))

    @staticmethod
    def n2_field(edit):
        """An n = 2 FD field on a chart, sampled on the grids N2;
        edit(values, points) returns its values."""
        return Field(chart2().domain, lambda p: edit(
            np.exp(2 * p[:, -1]) * np.sin(3 * p[:, 0]), p))

    @pytest.mark.parametrize("n", [2, 3])
    def test_small_pieces_are_bitwise_one_piece(self, monkeypatch, n):
        # a walk in pieces of 97 // stencil rows folds the sups of one
        # _fd_jet of the whole grid, bit for bit
        if n == 3:
            pb, sigma = pullback_pair(3)
            f, spec = difference(pb, sigma), pb.chart.grid
        else:
            ch = chart2(pts=16)
            f = Field(ch.domain,
                      lambda p: np.exp(2 * p[:, -1]) * np.sin(3 * p[:, 0]))
            spec = ch.grid
        rows = []
        f = self.counting(f, rows)
        stencil = 1 + 2 * n + 2 * n * (n - 1)
        monkeypatch.setattr(model, "_FD_ROWS", 97)
        got = c2_norm(f, spec).per_order_sups
        assert max(rows) == stencil * (97 // stencil)
        assert sum(rows) == stencil * f.domain.grid_size(spec)
        want = whole_grid_sups(f, spec)
        assert list(got) == list(want)
        assert np.array_equal(list(got.values()), list(want.values()))

    def test_fd_oracle_check_is_unchanged_by_small_pieces(self,
                                                          monkeypatch):
        f = pullback_pair(2)[0]
        whole = fd_oracle_check(f, f.chart.grid)
        monkeypatch.setattr(model, "_FD_ROWS", 97)
        assert fd_oracle_check(f, f.chart.grid) == whole

    def test_n3_norm_calls_stay_within_the_budget(self):
        rows = []
        g = difference(*pullback_pair(3))
        spec = GridSpec(points_per_axis=32)
        m = len(g.domain.grid(spec))
        assert m == 23680                   # three norm chunks
        c2_norm(self.counting(g, rows), spec)
        assert max(rows) <= model._FD_ROWS
        assert sum(rows) == 19 * m

    @staticmethod
    def fd_jet_rows(monkeypatch, at=model):
        """The rows of every _fd_jet call through the binding in `at`."""
        pieces = []
        fd_jet = at._fd_jet
        monkeypatch.setattr(at, "_fd_jet", lambda f, pts, step: (
            pieces.append(np.array(pts)) or fd_jet(f, pts, step)))
        return pieces

    def test_fd_grids_walk_the_chunk_stream_one_piece_at_a_time(
            self, monkeypatch):
        # N and N/2 (4096 + 1024 rows) are walked together, as analytic
        # grids are, one stencil piece a step: the third piece ends N and
        # begins N/2.  No grid is built whole.
        f, specs = self.n2_field(lambda v, p: v), self.N2
        rows = np.concatenate([f.domain.grid(spec) for spec in specs])
        pieces = self.fd_jet_rows(monkeypatch)
        monkeypatch.setattr(Domain, "grid", None)
        model._c2_norms([f], specs)
        piece = model._FD_ROWS // 9
        assert [len(x) for x in pieces] == [piece, piece, 5120 - 2 * piece]
        assert np.array_equal(np.concatenate(pieces), rows)

    def test_a_piece_across_the_grid_boundary_keeps_each_grids_sups(
            self, monkeypatch):
        # 10 rows a piece: the 410th holds the last 6 rows of N and the
        # first 4 of N/2, and each grid's sups are still its own
        monkeypatch.setattr(model, "_FD_ROWS", 97)
        f, specs = self.n2_field(lambda v, p: v), self.N2
        pieces = self.fd_jet_rows(monkeypatch)
        norms = model._c2_norms([f], specs)[0]
        assert len(pieces) == 512 and len(pieces[409]) == 10
        assert np.array_equal(pieces[409], np.concatenate(
            [f.domain.grid(specs[0])[-6:], f.domain.grid(specs[1])[:4]]))
        for norm, spec in zip(norms, specs):
            want = whole_grid_sups(f, spec)
            assert list(norm.per_order_sups) == list(want)
            assert np.array_equal(list(norm.per_order_sups.values()),
                                  list(want.values()))

    @pytest.mark.parametrize("nan", [False, True])
    def test_piece_sups_are_the_whole_grid_sups(self, nan):
        f = self.n2_field(lambda v, p: np.where(p[:, 0] > 0.5, np.nan, v)
                          if nan else v)
        specs = self.N2
        for norm, spec in zip(model._c2_norms([f], specs)[0], specs):
            want = whole_grid_sups(f, spec)
            assert list(norm.per_order_sups) == list(want)
            assert np.array_equal(list(norm.per_order_sups.values()),
                                  list(want.values()), equal_nan=True)
            assert np.isnan(norm.value) == nan

    def test_norm_jets_are_one_piece(self, monkeypatch):
        # every FD jet of a norm is one stencil piece (862 rows at d = 3),
        # and every row of both grids is in one of them
        pieces = self.fd_jet_rows(monkeypatch)
        g = difference(*pullback_pair(3))
        spec = GridSpec(points_per_axis=32)
        measured_with_error([g], spec)
        sizes = list(map(len, pieces))
        assert max(sizes) <= model._FD_ROWS // 19
        assert sum(sizes) == sum(len(g.domain.grid(s))
                                 for s in (spec, spec.halved()))

    def test_n3_norm_memory_stays_small(self):
        # the N-grid norm and its probe at 32 points per axis (23,680 and
        # 2,752 rows) took 10.3 MB when each FD jet was a whole 8,192-row
        # chunk
        g = difference(*pullback_pair(3))
        spec = GridSpec(points_per_axis=32)
        _, mb = traced_peak_mb(measured_with_error, [g], spec)
        assert mb < 3.3

    def test_fd_oracle_walks_in_pieces(self, monkeypatch):
        # the 64-point n = 2 pullback: one _fd_jet call on the whole grid
        # would take 5.94 MB, and the whole grid cut into pieces inside
        # _fd_jet took 4.68 MB
        from warpforce import verify
        from warpforce.manifold import (perturbed_hyperbolic, pullback,
                                        radial_chart)
        m = perturbed_hyperbolic(2, amplitude=0.05,
                                 grid=GridSpec(points_per_axis=64))
        pb = pullback(radial_chart(m, 5.0), m.metric)
        want = fd_oracle_check(pb, m.grid)
        pieces = self.fd_jet_rows(monkeypatch, verify)
        got, mb = traced_peak_mb(fd_oracle_check, pb, m.grid)
        assert got == want and got["passed"] and mb < 3.5
        assert max(map(len, pieces)) == model._fd_piece(2)
        assert sum(map(len, pieces)) == 3 * 4096    # three steps h

    def test_bad_point_in_the_last_piece_raises(self, monkeypatch):
        monkeypatch.setattr(model, "_FD_ROWS", 97)      # 32 rows a piece
        rows = []
        f = Field(Domain(bounds=((0.0, 5.0),), axis_names=("t",)),
                  lambda p: rows.append(len(p)) or np.exp(-p[:, 0]),
                  name="decay")
        # the inset grid's 100 rows are inside; the last piece ends it and
        # begins a grid without inset, whose first row, t = 0, lies on the
        # bound of the open domain
        specs = (GridSpec(points_per_axis=100),
                 GridSpec(points_per_axis=4, boundary_margin=0.0))
        with pytest.raises(DomainError) as exc:
            model._c2_norms([f], specs)
        # the clean pieces were evaluated, the last one never reached f
        assert rows == [3 * 32] * 3
        assert "'decay'" in str(exc.value)
        assert "point (0.0,) lies" in str(exc.value)


def fd_jet_by_axis(f, pts, step):
    """_fd_jet as written before its differences were vectorized: the
    whole stencil in one batch, each axis and each axis pair in turn."""
    d = f.domain.dim
    h = step * f.domain.extents
    e = np.diag(h)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    offsets = np.array([np.zeros(d)] + [s * e[i] for i in range(d)
                                        for s in (1, -1)]
                       + [si * e[i] + sj * e[j] for i, j in pairs
                          for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))])
    m = len(pts)
    vals = f((pts[None] + offsets[:, None]).reshape(-1, d)).reshape(
        (len(offsets), m) + f.shape)
    v0 = vals[0]
    d1, d2 = np.empty((m, d) + f.shape), np.empty((m, d, d) + f.shape)
    for i in range(d):
        fp, fm = vals[1 + 2 * i], vals[2 + 2 * i]
        d1[:, i] = (fp - fm) / (2.0 * h[i])
        d2[:, i, i] = (fp - 2.0 * v0 + fm) / h[i] ** 2
    for k, (i, j) in enumerate(pairs):
        fpp, fpm, fmp, fmm = vals[1 + 2 * d + 4 * k: 5 + 2 * d + 4 * k]
        d2[:, i, j] = d2[:, j, i] = (fpp - fpm - fmp + fmm) \
            / (4.0 * h[i] * h[j])
    return v0, d1, d2


class TestFdDomainCheck:
    """_fd_jet tests each piece's base rows against the domain shrunk by
    twice the step, and every stencil point only when that cheap test
    fails."""

    @staticmethod
    def probe(dom, shape=()):
        k = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        return Field(dom, lambda p: (np.exp(p[:, -1]) * np.sin(
            p.sum(axis=1))).reshape((-1,) + (1,) * len(shape)) * k,
            shape=shape, name="probe")

    @staticmethod
    def contains_calls(monkeypatch, dom):
        calls = []
        contains = Domain.contains
        monkeypatch.setattr(Domain, "contains", lambda self, pts: (
            calls.append(len(pts)) if self == dom else None)
            or contains(self, pts))
        return calls

    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_margin_names_the_first_stencil_point_outside(self, n):
        ch = ChartModel(n=n, xi=1.0,
                        grid=GridSpec(points_per_axis=8, boundary_margin=0.0))
        first = "(-1.0, -2.0)" if n == 2 \
            else "(-0.714285714286, -0.428571428571, -2.0)"
        with pytest.raises(DomainError, match=(
                f"stencil point {re.escape(first)} lies outside the "
                f"domain of field 'probe'$")):
            _fd_jet(self.probe(ch.domain), ch.domain.grid(ch.grid), _FD_STEP)

    def test_inside_rows_never_test_stencil_points(self, monkeypatch):
        ch = ChartModel(n=3, xi=1.0, grid=GridSpec(points_per_axis=8))
        calls = self.contains_calls(monkeypatch, ch.domain)
        f = self.probe(ch.domain, (2, 2))
        pts = ch.domain.grid(ch.grid)
        for got, want in zip(_fd_jet(f, pts, _FD_STEP),
                             fd_jet_by_axis(f, pts, _FD_STEP)):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert calls == []

    def test_stencil_crossing_the_ball_raises(self, monkeypatch):
        ch = ChartModel(n=3, xi=1.0, grid=GridSpec(points_per_axis=8))
        calls = self.contains_calls(monkeypatch, ch.domain)
        # |x| = 1 - 2.1e-4 is inside, but +h along x1 and x2 (h = 2e-4),
        # the first mixed stencil point, leaves the unit ball
        pts = np.array([[0.2, 0.1, 0.0], [0.70696, 0.70696, 0.5]])
        with pytest.raises(DomainError,
                           match=re.escape("(0.70716, 0.70716, 0.5)")):
            _fd_jet(self.probe(ch.domain), pts, _FD_STEP)
        assert calls == [19 * 2]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_near_the_boundary_test_every_stencil_point(self, monkeypatch,
                                                            n):
        # within 2h of a bound, yet every stencil point is inside: the
        # per-point test runs and passes, and the jets are unchanged
        if n == 1:
            dom = interval_domain(0.0, 5.0)
            pts = np.array([[2.0], [5.0 - 7e-4]])    # h = 5e-4
        else:
            dom = ChartModel(n=n, xi=1.0).domain
            pts = np.array([[0.3] * (n - 1) + [0.0],
                            [1.0 - 3e-4] + [0.0] * (n - 2) + [2.0 - 5e-4]])
        calls = self.contains_calls(monkeypatch, dom)
        f = self.probe(dom, (2,))
        for got, want in zip(_fd_jet(f, pts, _FD_STEP),
                             fd_jet_by_axis(f, pts, _FD_STEP)):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert calls == [len(pts) * (1 + 2 * n * n)]


class TestDump:
    def test_csv_shape_and_determinism(self, tmp_path):
        ch = chart2(pts=8)
        sig = hyperbolic_model(ch)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        n1 = dump_grid_csv(sig, p1, ch.grid)
        n2 = dump_grid_csv(sig, p2, ch.grid)
        assert n1 == n2 == 64
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        header = b1.decode().splitlines()[0]
        assert header == "x1,t,g11,g12,g21,g22"

    def test_chunked_dump_is_the_one_chunk_dump(self, tmp_path,
                                                monkeypatch):
        ch = chart2(pts=8)
        sig = hyperbolic_model(ch)
        rows = []
        f = Field(sig.domain, lambda p: rows.append(len(p)) or sig(p),
                  shape=sig.shape)
        one, small = tmp_path / "one.csv", tmp_path / "small.csv"
        dump_grid_csv(f, one, ch.grid)
        monkeypatch.setattr(model, "_CHUNK", 7)
        rows.clear()
        dump_grid_csv(f, small, ch.grid)
        assert rows == [7] * 9 + [1]
        assert small.read_bytes() == one.read_bytes()

    def test_scalar_dump(self, tmp_path):
        dom = interval_domain(0.0, 1.0)
        f = Field(dom, lambda p: p[:, 0] ** 2)
        path = tmp_path / "s.csv"
        rows = dump_grid_csv(f, path, grid=GridSpec(points_per_axis=5))
        assert rows == 5
        assert path.read_text().splitlines()[0] == "t,value"
