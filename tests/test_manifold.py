import numpy as np
import pytest

from warpforce.manifold import (
    CenteredManifold,
    closeness_at,
    manifold_from_config,
    perturbed_hyperbolic,
    pullback,
    punctured_hyperbolic,
    radial_chart,
    radial_closeness,
)
from warpforce.model import (
    DomainError,
    Field,
    GenerationError,
    GridSpec,
    _fd_jet,
    validate_metric,
)
from warpforce.warpcore import BumpFunction, warp_force


class TestPuncturedModel:
    def test_spatial_values_n2(self):
        m = punctured_hyperbolic(2)
        pts = np.array([[0.3, 1.0], [-1.0, 2.0]])
        S = m.metric.spatial(pts)
        assert S[0, 0, 0] == pytest.approx(np.sinh(1.0) ** 2, rel=1e-15)
        assert S[1, 0, 0] == pytest.approx(np.sinh(2.0) ** 2, rel=1e-15)

    def test_spatial_values_n3(self):
        m = punctured_hyperbolic(3)
        pts = np.array([[0.7, 0.2, 2.0]])
        S = m.metric.spatial(pts)
        s2 = np.sinh(2.0) ** 2
        assert S[0, 0, 0] == pytest.approx(s2, rel=1e-15)
        assert S[0, 1, 1] == pytest.approx(s2 * np.sin(0.7) ** 2, rel=1e-15)
        assert S[0, 0, 1] == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_jets_match_fd(self, n):
        m = punctured_hyperbolic(n, r_range=(0.5, 6.0))
        f = m.metric
        bare = Field(f.domain, lambda p: f(p), shape=f.shape)
        pts = m.metric.domain.grid(GridSpec(points_per_axis=5))
        v, d1, d2 = f.jet(pts)
        w, e1, e2 = _fd_jet(bare, pts, GridSpec(fd_step=1e-5))
        assert np.abs(v - w).max() == 0.0
        assert np.abs(d1 - e1).max() < 1e-7 * np.abs(d1).max()
        assert np.abs(d2 - e2).max() < 1e-5 * np.abs(d2).max()

    def test_rejects_other_dimensions(self):
        with pytest.raises(ValueError):
            punctured_hyperbolic(4)


class TestPerturbedModel:
    def test_amplitude_guard(self):
        with pytest.raises(GenerationError):
            perturbed_hyperbolic(2, amplitude=1.0)
        with pytest.raises(GenerationError):
            perturbed_hyperbolic(2, amplitude=-1.2)
        with pytest.raises(GenerationError):
            perturbed_hyperbolic(2, radial_width=0.0)

    def test_reduces_to_punctured_at_zero_amplitude(self):
        m0 = punctured_hyperbolic(2)
        mp = perturbed_hyperbolic(2, amplitude=0.0)
        pts = np.array([[0.1, 3.0], [1.2, 5.5]])
        assert np.allclose(mp.metric.spatial(pts), m0.metric.spatial(pts),
                           rtol=1e-15)

    @pytest.mark.parametrize("n", [2, 3])
    def test_jets_match_fd(self, n):
        m = perturbed_hyperbolic(n, amplitude=0.2, r_range=(0.5, 6.0),
                                 radial_center=3.0)
        f = m.metric
        bare = Field(f.domain, lambda p: f(p), shape=f.shape)
        pts = m.metric.domain.grid(GridSpec(points_per_axis=5))
        v, d1, d2 = f.jet(pts)
        w, e1, e2 = _fd_jet(bare, pts, GridSpec(fd_step=1e-5))
        assert np.abs(d1 - e1).max() < 1e-7 * np.abs(d1).max()
        assert np.abs(d2 - e2).max() < 1e-5 * np.abs(d2).max()

    def test_pullback_is_valid_metric(self):
        m = perturbed_hyperbolic(2, amplitude=0.3, radial_center=5.0)
        rc = radial_chart(m, 5.0, xi=1.0)
        pb = pullback(rc, m.metric)
        out = validate_metric(pb, grid=GridSpec(points_per_axis=12))
        assert out["min_eigenvalue"] > 0


class TestRadialChart:
    def test_scale(self):
        m = punctured_hyperbolic(2)
        rc = radial_chart(m, 6.0)
        assert rc.scale == pytest.approx(2.0 * np.exp(-6.0), rel=1e-15)
        assert rc.affine

    def test_map_points_product_structure(self):
        m = punctured_hyperbolic(2)
        rc = radial_chart(m, 5.0, y0=(0.4,))
        pts = np.array([[0.25, -0.7], [0.0, 0.0]])
        q, J = rc.map_points(pts)
        assert np.array_equal(J, np.full((2, 1, 1), rc.scale))
        assert q[:, 1] == pytest.approx(pts[:, 1] + 5.0)
        assert q[0, 0] == pytest.approx(0.4 + rc.scale * 0.25)
        assert q[1, 0] == pytest.approx(0.4)

    def test_radial_window_guard(self):
        m = punctured_hyperbolic(2, r_range=(0.05, 16.0))
        with pytest.raises(DomainError):
            radial_chart(m, 1.5, xi=1.0)
        with pytest.raises(DomainError):
            radial_chart(m, 15.5, xi=1.0)

    def test_angular_window_guard(self):
        m = punctured_hyperbolic(2)
        with pytest.raises(DomainError):
            radial_chart(m, 3.0, y0=(3.14,))

    def test_exp_map_geodesic_property(self):
        m = punctured_hyperbolic(3)
        rc = radial_chart(m, 5.0, y0=(1.1, 0.5))
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.9, 0.9, size=(40, 2))
        y, _ = rc.sphere(x)
        p0 = np.array([np.sin(1.1) * np.cos(0.5),
                       np.sin(1.1) * np.sin(0.5), np.cos(1.1)])
        P = np.stack([np.sin(y[:, 0]) * np.cos(y[:, 1]),
                      np.sin(y[:, 0]) * np.sin(y[:, 1]),
                      np.cos(y[:, 0])], axis=1)
        dist = np.arccos(np.clip(P @ p0, -1.0, 1.0))
        assert np.abs(dist - rc.scale * np.linalg.norm(x, axis=1)).max() < 1e-12

    def test_exp_map_jacobian_matches_fd(self):
        m = punctured_hyperbolic(3)
        rc = radial_chart(m, 4.0, y0=(1.3, -0.4))
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.8, 0.8, size=(25, 2))
        x = np.vstack([x, [[0.0, 0.0]]])  # include the center point
        _, J = rc.sphere(x)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (rc.sphere(x + e)[0] - rc.sphere(x - e)[0]) / (2 * h)
            assert np.abs(J[:, :, i] - fd).max() < 1e-7


class TestPullback:
    def test_product_structure_exact(self):
        m = punctured_hyperbolic(2)
        rc = radial_chart(m, 6.0)
        pb = pullback(rc, m.metric)
        pts = rc.chart.grid_points(GridSpec(points_per_axis=10))
        G = pb(pts)
        assert np.array_equal(G[:, 1, 1], np.ones(len(pts)))
        assert np.array_equal(G[:, 0, 1], np.zeros(len(pts)))

    def test_origin_value_oracle(self):
        # c^2 sinh^2(t0) = (1 - e^{-2 t0})^2
        m = punctured_hyperbolic(2)
        for t0 in (4.0, 6.0):
            rc = radial_chart(m, t0)
            G = pullback(rc, m.metric)(np.array([[0.0, 0.0]]))
            assert G[0, 0, 0] == pytest.approx((1.0 - np.exp(-2 * t0)) ** 2,
                                               rel=1e-14)

    def test_jets_affine_only(self):
        m2, m3 = punctured_hyperbolic(2), punctured_hyperbolic(3)
        assert pullback(radial_chart(m2, 5.0), m2.metric).has_jet
        assert not pullback(radial_chart(m3, 5.0), m3.metric).has_jet

    def test_jet_matches_fd_n2(self):
        m = punctured_hyperbolic(2)
        rc = radial_chart(m, 5.0)
        pb = pullback(rc, m.metric)
        bare = Field(pb.domain, lambda p: pb(p), shape=pb.shape)
        pts = rc.chart.grid_points(GridSpec(points_per_axis=6))
        v, d1, d2 = pb.jet(pts)
        w, e1, e2 = _fd_jet(bare, pts, GridSpec())
        assert np.abs(v - w).max() == 0.0
        assert np.abs(d1 - e1).max() < 1e-6 * max(1.0, np.abs(d1).max())
        assert np.abs(d2 - e2).max() < 1e-4 * max(1.0, np.abs(d2).max())

    def test_out_of_window_error(self):
        m = punctured_hyperbolic(2, r_range=(3.0, 8.3))
        rc = radial_chart(m, 6.0, xi=1.0)  # image [4, 8] fits
        pb = pullback(rc, m.metric)
        with pytest.raises(DomainError):
            pb(np.array([[0.0, 2.5]]))  # maps to r = 8.5 > 8.3


class TestCloseness:
    def test_decay_table_n2(self):
        m = punctured_hyperbolic(2)
        eps6 = closeness_at(m, 6.0, xi=1.0)
        assert eps6.derivative_source == "analytic"
        assert eps6.value == pytest.approx(1.228842e-5, rel=1e-4)
        eps7 = closeness_at(m, 7.0, xi=1.0)
        assert eps7.value / eps6.value == pytest.approx(np.exp(-2.0), rel=1e-4)

    def test_decay_ratio_n3(self):
        m = punctured_hyperbolic(3)
        g = GridSpec(points_per_axis=16)
        e6 = closeness_at(m, 6.0, xi=1.0, grid=g)
        e7 = closeness_at(m, 7.0, xi=1.0, grid=g)
        assert 1e-4 < e6.value < 1e-2
        assert e7.value / e6.value == pytest.approx(np.exp(-2.0), rel=0.05)

    def test_closeness_at_matches_explicit_chart(self):
        m = punctured_hyperbolic(2)
        rc = radial_chart(m, 6.0, xi=1.0)
        a = radial_closeness(rc, m.metric)
        b = closeness_at(m, 6.0, xi=1.0)
        assert a.value == b.value

    def test_warp_forced_matches_bitwise_beyond_support(self):
        m = punctured_hyperbolic(2)
        r0 = 4.0
        W = warp_force(m.metric, r0, BumpFunction())
        t0 = r0 + 0.5 + 2.0 + 0.3  # chart entirely outside the blend region
        rc = radial_chart(m, t0, xi=1.0)
        eps = radial_closeness(rc, m.metric)
        eta = radial_closeness(rc, W)
        assert eta.value == eps.value
        for key in eps.per_order_sups:
            assert eta.per_order_sups[key] == eps.per_order_sups[key]


class TestConfig:
    def test_punctured_roundtrip(self):
        m = manifold_from_config({"kind": "punctured", "n": 2,
                                  "r_range": [0.1, 12.0]})
        assert isinstance(m, CenteredManifold)
        assert m.kind == "punctured" and m.n == 2
        assert m.to_json()["r_range"] == [0.1, 12.0]

    def test_perturbed_roundtrip(self):
        cfg = {"kind": "perturbed", "n": 3, "amplitude": 0.01,
               "sphere_mode": 2, "radial_center": 4.0, "radial_width": 2.0}
        m = manifold_from_config(cfg)
        assert m.kind == "perturbed"
        assert m.params["amplitude"] == 0.01
        assert m.params["sphere_mode"] == 2

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            manifold_from_config({"kind": "flat"})
