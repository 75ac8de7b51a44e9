import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpforce.model import (
    CertificationError,
    ChartModel,
    Domain,
    DomainError,
    Field,
    GridSpec,
    c2_norm,
    difference,
    hyperbolic_model,
    interval_domain,
    profile_scalar,
)
from warpforce.manifold import punctured_hyperbolic
from warpforce.warpcore import (
    _STEP_SUP_D1,
    _STEP_SUP_D2,
    _step_jet,
    BumpFunction,
    RadialMetric,
    WarpFunction,
    apply_warp,
    blend,
    radial_slice,
    sinh_warped_cut,
    warp_force,
    warped_extension,
)


def sinh_squared_radial(H, r_lo=1.0, r_hi=4.0, k=2):
    """spatial(y, r) = sinh^2(r) H with exact jets."""
    H = np.asarray(H, dtype=float)
    names = tuple(f"y{i + 1}" for i in range(k)) + ("r",)
    dom = Domain(bounds=((-1.0, 1.0),) * k + ((r_lo, r_hi),), axis_names=names)

    def spatial(p):
        return (np.sinh(p[:, -1]) ** 2)[:, None, None] * H

    return RadialMetric(dom, spatial, analytic=True, name="sinh2H")


class TestBump:
    def test_plateaus_are_exact(self):
        b = BumpFunction()
        t = np.array([-1.0, 0.0, 0.05, 0.45, 0.5, 2.0])
        v = b(t)
        assert v[0] == 1.0 and v[1] == 1.0 and v[2] == 1.0
        assert v[3] == 0.0 and v[4] == 0.0 and v[5] == 0.0

    def test_monotone_and_bounded(self):
        b = BumpFunction()
        t = np.linspace(-0.1, 0.6, 400)
        v = b(t)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        assert np.all(np.diff(v) <= 1e-15)

    def test_certified_c2_value(self):
        b = BumpFunction(delta=0.05)
        # ramp width 0.4: sup|rho'| = 2/0.4, weighted second sup ~9.841/(2*0.16)
        assert b.sup_abs_d1 == pytest.approx(5.0, abs=1e-9)
        assert b.certified_c2 == pytest.approx(30.7533, abs=2e-3)
        assert b.certified_c2 < 48.0
        assert b.certified_c2 == max(b.per_order_sups.values())

    def test_certification_error_for_narrow_ramp(self):
        with pytest.raises(CertificationError):
            BumpFunction(delta=0.12)

    def test_delta_validation(self):
        for bad in (0.0, 0.25, -0.1, 0.3):
            with pytest.raises(ValueError):
                BumpFunction(delta=bad)

    def test_jet_matches_finite_differences(self):
        b = BumpFunction()
        t = np.linspace(-0.1, 0.6, 141)
        h = 1e-5
        v, d1, d2 = b.jet(t)
        assert np.allclose(v, b(t))
        fd1 = (b(t + h) - b(t - h)) / (2 * h)
        fd2 = (b(t + h) - 2 * b(t) + b(t - h)) / h ** 2
        assert np.abs(d1 - fd1).max() < 1e-7
        assert np.abs(d2 - fd2).max() < 1e-4

    def test_vanishes_from_is_exact_from_its_edge(self):
        # the least s the predicate accepts: rho is exactly 0.0 there and
        # beyond, and the float below it is refused
        b = BumpFunction()
        s = b.support_end
        while not b.vanishes_from(s):
            s = np.nextafter(s, np.inf)
        while b.vanishes_from(np.nextafter(s, -np.inf)):
            s = np.nextafter(s, -np.inf)
        t = np.array([s, np.nextafter(s, np.inf), s + 1e-12, s + 1e-3,
                      0.5, 10.0])
        assert all(b.vanishes_from(x) for x in t)
        assert (b(t) == 0.0).all() and (b.jet(t)[0] == 0.0).all()
        assert not b.vanishes_from(np.nextafter(s, -np.inf))
        assert abs(s - b.support_end) < 1e-15
        assert not b.vanishes_from(b.plateau_end)

    def test_step_sups_bound_the_sampled_sups(self):
        # the constants against 200,001 evenly spaced samples of [0, 1]:
        # sup|S'| = S'(1/2) is a sample, and the closest sample of
        # sup|S''| lies 5e-11 relative below it
        _, d1, d2 = _step_jet(np.linspace(0.0, 1.0, 200001))
        sup1, sup2 = float(np.abs(d1).max()), float(np.abs(d2).max())
        assert _STEP_SUP_D1 == sup1 == 2.0
        assert _STEP_SUP_D2 >= sup2
        assert _STEP_SUP_D2 == pytest.approx(sup2, rel=1e-9, abs=0.0)

    def test_measured_profile_norm_matches_certificate(self):
        b = BumpFunction()
        w = interval_domain(-0.2, 0.7)
        f = profile_scalar(w, b)
        nrm = c2_norm(f, GridSpec(points_per_axis=20001))
        assert nrm.value == pytest.approx(b.certified_c2, rel=1e-4)


class TestWarpFunction:
    def test_requires_t0_above_two(self):
        with pytest.raises(ValueError):
            WarpFunction(2.0)
        WarpFunction(2.0000001)

    def test_value_one_at_zero_exactly(self):
        nu = WarpFunction(5.0)
        assert nu(np.array([0.0]))[0] == 1.0

    def test_sinh_identity(self):
        nu = WarpFunction(6.0)
        tau = np.linspace(-3.0, 3.0, 101)
        lhs = np.exp(2 * tau) * nu(tau)
        rhs = (np.sinh(tau + 6.0) / np.sinh(6.0)) ** 2
        assert np.abs(lhs / rhs - 1.0).max() < 1e-13

    def test_domain_guard(self):
        nu = WarpFunction(3.0)
        with pytest.raises(DomainError):
            nu(np.array([-3.0]))

    def test_jet_matches_finite_differences(self):
        nu = WarpFunction(4.0)
        t = np.linspace(-2.0, 6.0, 81)
        h = 1e-5
        v, d1, d2 = profile_scalar(interval_domain(-2.0, 6.0),
                                   nu).jet(t[:, None])
        d1, d2 = d1[:, 0], d2[:, 0, 0]
        fd1 = (nu(t + h) - nu(t - h)) / (2 * h)
        fd2 = (nu(t + h) - 2 * nu(t) + nu(t - h)) / h ** 2
        assert np.abs(d1 - fd1).max() < 1e-8
        assert np.abs(d2 - fd2).max() < 1e-4

    @settings(max_examples=20, deadline=None)
    @given(st.floats(2.1, 12.0))
    def test_deviation_decays_like_exp_minus_2t0(self, t0):
        nu = WarpFunction(t0)
        w = interval_domain(0.0, 14.0 + 2.0 * t0)
        # nu - 1 with nu lifted through its own jet
        one = Field(w, lambda p: np.ones(len(p)), analytic=True)
        f = difference(profile_scalar(w, nu), one)
        nrm = c2_norm(f, GridSpec(points_per_axis=2001))
        ratio = nrm.value / np.exp(-2.0 * t0)
        assert 3.8 < ratio < 5.2


class TestChartOperators:
    def chart(self, n=2, xi=1.0):
        return ChartModel(n=n, xi=xi, grid=GridSpec(points_per_axis=16))

    def test_radial_slice_of_hyperbolic(self):
        ch = self.chart(n=3, xi=0.5)
        sig = hyperbolic_model(ch)
        a = radial_slice(sig, 0.7)
        y = a.domain.grid(GridSpec(points_per_axis=6))
        assert np.allclose(a(y), np.exp(1.4) * np.eye(2), rtol=1e-15)
        v, d1, d2 = a.jet(y)
        assert np.abs(d1).max() == 0.0

    def test_radial_slice_out_of_window(self):
        sig = hyperbolic_model(self.chart())
        with pytest.raises(DomainError):
            radial_slice(sig, 5.0)

    def test_warped_extension_of_slice_recovers_hyperbolic(self):
        ch = self.chart(n=3, xi=1.0)
        sig = hyperbolic_model(ch)
        for s in (-0.5, 0.0, 1.3):
            ext = warped_extension(radial_slice(sig, s), s, ch)
            dev = c2_norm(difference(ext, sig), GridSpec(points_per_axis=8))
            assert dev.value < 1e-10

    def test_warped_extension_dimension_check(self):
        ch2, ch3 = self.chart(n=2), self.chart(n=3)
        a = radial_slice(hyperbolic_model(ch3), 0.0)
        with pytest.raises(ValueError):
            warped_extension(a, 0.0, ch2)

    def test_apply_warp_with_unit_profile_is_identity(self):
        ch = self.chart()
        sig = hyperbolic_model(ch)

        class One:
            def __call__(self, t):
                return np.ones_like(np.asarray(t, dtype=float))

        h = apply_warp(sig, One())
        pts = ch.grid_points(GridSpec(points_per_axis=12))
        assert np.array_equal(h(pts), sig(pts))

    def test_apply_warp_scales_spatial_block_only(self):
        ch = self.chart()
        sig = hyperbolic_model(ch)
        nu = WarpFunction(3.0)
        h = apply_warp(sig, nu)
        pts = ch.grid_points(GridSpec(points_per_axis=8))
        G, Hm = sig(pts), h(pts)
        w = nu(pts[:, -1])
        assert np.allclose(Hm[:, 0, 0], w * G[:, 0, 0], rtol=1e-14)
        assert np.array_equal(Hm[:, 1, 1], np.ones(len(pts)))

    def test_apply_warp_requires_split(self):
        ch = self.chart()
        # a plain metric field has no spatial block to warp
        g = Field(ch.domain, lambda p: np.tile(np.eye(2), (len(p), 1, 1)),
                  shape=(2, 2))
        with pytest.raises(Exception):
            apply_warp(g, WarpFunction(3.0))

    def test_blend_plateaus_bitwise(self):
        ch = self.chart()
        sig = hyperbolic_model(ch)
        other = RadialMetric.on_chart(
            ch, lambda p: 2.0 * np.exp(2 * p[:, -1])[:, None, None] * np.eye(1))
        pts = ch.grid_points(GridSpec(points_per_axis=10))
        one = Field(ch.domain, lambda p: np.ones(len(p)))
        zero = Field(ch.domain, lambda p: np.zeros(len(p)))
        assert np.array_equal(blend(sig, other, one)(pts), sig(pts))
        assert np.array_equal(blend(sig, other, zero)(pts), other(pts))

    def test_blend_midpoint(self):
        ch = self.chart()
        sig = hyperbolic_model(ch)
        other = RadialMetric.on_chart(
            ch, lambda p: 3.0 * np.exp(2 * p[:, -1])[:, None, None] * np.eye(1))
        half = Field(ch.domain, lambda p: np.full(len(p), 0.5))
        pts = ch.grid_points(GridSpec(points_per_axis=6))
        mid = blend(sig, other, half)(pts)
        assert np.allclose(mid, 0.5 * sig(pts) + 0.5 * other(pts), rtol=1e-15)

    def counting_parts(self, ch):
        """Two analytic metrics a, b whose spatial calls are counted."""
        calls = {"a": 0, "b": 0}

        def part(key, c):
            def spatial(p):
                calls[key] += 1
                f = c * np.exp(2 * p[:, -1]) * (1.0 + 0.1 * np.sin(p[:, 0]))
                return f[:, None, None] * np.eye(ch.k)

            return RadialMetric.on_chart(ch, spatial, analytic=True, name=key)

        return part("a", 2.0), part("b", 3.0), calls

    @pytest.mark.parametrize("r0,kept,skipped", [(-10.0, "b", "a"),
                                                 (10.0, "a", "b")])
    def test_blend_plateau_skips_the_other_part(self, r0, kept, skipped):
        # rho_{r0} is exactly 0 (r0 = -10) or 1 (r0 = 10) on the chart
        ch = self.chart(n=3)
        a, b, calls = self.counting_parts(ch)
        rho = BumpFunction()
        lam = profile_scalar(ch.domain, lambda r: rho(r - r0))
        W = blend(a, b, lam)
        part = {"a": a, "b": b}[kept]
        pts = ch.grid_points(GridSpec(points_per_axis=8))
        assert np.array_equal(W.spatial(pts), part.spatial(pts))
        for got, want in zip(W.spatial_jet(pts), part.spatial_jet(pts)):
            assert np.array_equal(got, want)
        assert calls[skipped] == 0 and calls[kept] == 4

    def test_blend_mixed_weights_evaluate_both_parts(self):
        ch = self.chart(n=3)
        a, b, calls = self.counting_parts(ch)
        lam = profile_scalar(ch.domain, BumpFunction())
        W = blend(a, b, lam)
        pts = ch.grid_points(GridSpec(points_per_axis=8))
        l = lam(pts)
        assert l.min() == 0.0 and l.max() == 1.0
        want = (l[:, None, None] * a.spatial(pts)
                + (1.0 - l)[:, None, None] * b.spatial(pts))
        assert np.array_equal(W.spatial(pts), want)
        W.spatial_jet(pts)
        assert calls == {"a": 3, "b": 3}


class TestRadialOperators:
    def test_cut_values(self):
        H = np.array([[1.3, 0.2], [0.2, 0.9]])
        g = sinh_squared_radial(H)
        cut = radial_slice(g, 2.5)
        y = cut.domain.grid(GridSpec(points_per_axis=5))
        assert np.allclose(cut(y), np.sinh(2.5) ** 2 * H, rtol=1e-15)

    def test_cut_radius_guard(self):
        g = sinh_squared_radial(np.eye(2))
        with pytest.raises(DomainError):
            radial_slice(g, 9.0)

    @pytest.mark.parametrize("op", [sinh_warped_cut,
                                    lambda g, r0: warp_force(
                                        g, r0, BumpFunction())],
                             ids=["sinh_warped_cut", "warp_force"])
    def test_cut_radius_guard_comes_before_sinh(self, op):
        # sinh(1e300) overflows; the window check must refuse r0 first,
        # not let the RuntimeWarning (an error under pytest) escape
        g = sinh_squared_radial(np.eye(2))
        with pytest.raises(DomainError, match="outside radial window"):
            op(g, 1e300)

    def test_radial_metric_rejects_negative_window(self):
        with pytest.raises(ValueError):
            punctured_hyperbolic(2, r_range=(-1.0, 2.0))

    def test_sinh_warped_cut_fixed_point(self):
        H = np.array([[1.3, 0.2], [0.2, 0.9]])
        g = sinh_squared_radial(H)
        bar = sinh_warped_cut(g, 2.5)
        pts = g.domain.grid(GridSpec(points_per_axis=12))
        assert np.abs(bar.spatial(pts) - g.spatial(pts)).max() < 1e-12

    def test_warp_force_fixed_point_entrywise(self):
        for H in (np.eye(2), np.array([[1.3, 0.2], [0.2, 0.9]]),
                  np.diag([0.7, 1.5])):
            g = sinh_squared_radial(H)
            W = warp_force(g, 2.5, BumpFunction())
            pts = g.domain.grid(GridSpec(points_per_axis=12))
            assert np.abs(W(pts) - g(pts)).max() < 1e-12

    def test_warp_force_plateaus_bitwise(self):
        g = sinh_squared_radial(np.array([[1.3, 0.2], [0.2, 0.9]]))
        b = BumpFunction()
        r0 = 2.5
        W = warp_force(g, r0, b)
        bar = sinh_warped_cut(g, r0)
        pts = g.domain.grid(GridSpec(points_per_axis=14))
        inner = pts[pts[:, -1] <= r0 + b.plateau_end]
        outer = pts[pts[:, -1] >= r0 + b.support_end]
        assert len(inner) and len(outer)
        assert np.array_equal(W(inner), bar(inner))
        assert np.array_equal(W(outer), g(outer))

    def test_warp_force_propagates_jets(self):
        g = sinh_squared_radial(np.eye(2))
        W = warp_force(g, 2.5, BumpFunction())
        assert W.has_jet
        d = difference(W, g)
        assert c2_norm(d, GridSpec(points_per_axis=10)).value < 1e-11

    def test_warp_force_jet_matches_fd(self):
        # non-trivial instance: angular dependence in the spatial block
        k = 1
        dom = Domain(bounds=((-1.0, 1.0), (1.0, 4.0)), axis_names=("y1", "r"))

        def spatial(p):
            f = 1.0 + 0.3 * np.sin(p[:, 0]) + 0.1 * p[:, -1]
            return f[:, None, None] * np.ones((1, 1))

        def sjet(p):
            m = len(p)
            f = 1.0 + 0.3 * np.sin(p[:, 0]) + 0.1 * p[:, -1]
            v = f[:, None, None] * np.ones((m, 1, 1))
            d1 = np.zeros((m, 2, 1, 1))
            d1[:, 0, 0, 0] = 0.3 * np.cos(p[:, 0])
            d1[:, 1, 0, 0] = 0.1
            d2 = np.zeros((m, 2, 2, 1, 1))
            d2[:, 0, 0, 0, 0] = -0.3 * np.sin(p[:, 0])
            return v, d1, d2

        g = RadialMetric(dom, spatial, sjet)
        W = warp_force(g, 2.2, BumpFunction())
        f = W
        from warpforce.model import Field, _fd_jet
        bare = Field(f.domain, lambda p: f(p), shape=f.shape)
        pts = dom.grid(GridSpec(points_per_axis=7))
        v, d1, d2 = f.jet(pts)
        w, e1, e2 = _fd_jet(bare, pts, 1e-5)
        assert np.abs(v - w).max() == 0.0
        assert np.abs(d1 - e1).max() < 1e-6
        assert np.abs(d2 - e2).max() < 1e-3
