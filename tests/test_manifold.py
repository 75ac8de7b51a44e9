import dataclasses

import numpy as np
import pytest

from warpforce import manifold, model
from warpforce.manifold import (
    CenteredManifold,
    closeness_at,
    manifold_from_config,
    perturbed_hyperbolic,
    polar_form,
    pullback,
    punctured_hyperbolic,
    radial_chart,
    radial_closeness,
)
from warpforce.model import (
    Domain,
    DomainError,
    Field,
    GenerationError,
    GridSpec,
    RadialMetric,
    _diag,
    _FD_STEP,
    _fd_jet,
    c2_norm,
    difference,
    hyperbolic_model,
)
from warpforce.warpcore import BumpFunction, warp_force


def fd_stencil(rc):
    """The flattened finite-difference stencil of the chart grid, as one
    norm chunk hands it to the pullback."""
    seen = []

    def record(p):
        seen.append(p)
        return np.zeros(len(p))

    _fd_jet(Field(rc.chart.domain, record), rc.chart.grid_points(),
            _FD_STEP)
    assert len(seen) == 1               # one evaluation of the stencil
    return seen[0]


class TestPuncturedModel:
    def test_spatial_values_n2(self):
        m = punctured_hyperbolic(2)
        pts = np.array([[0.3, 1.0], [-1.0, 2.0]])
        S = m.metric.spatial(pts)
        assert S[0, 0, 0] == pytest.approx(np.sinh(1.0) ** 2, rel=1e-15)
        assert S[1, 0, 0] == pytest.approx(np.sinh(2.0) ** 2, rel=1e-15)

    def test_spatial_values_n3(self):
        # the block is the conformal factor; polar_form carries sigma_S
        m = punctured_hyperbolic(3)
        pts = np.array([[0.7, 0.2, 2.0]])
        s2 = np.sinh(2.0) ** 2
        assert m.metric.spatial(pts).shape == (1, 1, 1)
        assert m.metric.spatial(pts)[0, 0, 0] == pytest.approx(s2, rel=1e-15)
        G = polar_form(m.metric)(pts)
        assert G.shape == (1, 3, 3)
        assert G[0, 0, 0] == pytest.approx(s2, rel=1e-15)
        assert G[0, 1, 1] == pytest.approx(s2 * np.sin(0.7) ** 2, rel=1e-15)
        assert G[0, 2, 2] == 1.0
        assert not G[0][~np.eye(3, dtype=bool)].any()

    @pytest.mark.parametrize("n", [2, 3])
    def test_blocks_are_bitwise_the_eye_product(self, n):
        # the 1 x 1 block f, and f sigma_S as the product of its diagonal
        # with np.eye (polar_form)
        def old(p):
            return (np.sinh(p[:, -1]) ** 2)[:, None, None]

        def old_perturbed(p):
            u = (p[:, -1] - 5.0) / 1.5
            ang = p[:, 0] if n == 2 else p[:, 1]
            factor = 1.0 + 0.05 * np.cos(3 * ang) * np.exp(-u ** 2)
            return factor[:, None, None] * old(p)

        def polar(ref):
            def fn(p):
                f = ref(p)[:, 0, 0]
                diag = [f] if n == 2 else [f, f * np.sin(p[:, 0]) ** 2]
                full = np.stack(diag + [np.ones(len(p))], axis=1)
                return full[:, :, None] * np.eye(n)
            return fn

        pts = punctured_hyperbolic(n).metric.domain.grid(
            GridSpec(points_per_axis=6))
        for m, ref in ((punctured_hyperbolic(n), old),
                       (perturbed_hyperbolic(n, amplitude=0.05),
                        old_perturbed)):
            want = RadialMetric(m.metric.domain, ref, analytic=True, k=1)
            assert np.array_equal(m.metric.spatial(pts), want.spatial(pts))
            for got, exp in zip(m.metric.spatial_jet(pts),
                                want.spatial_jet(pts)):
                assert np.array_equal(got, exp)
            assert np.array_equal(polar_form(m.metric)(pts), polar(ref)(pts))

    @pytest.mark.parametrize("n", [2, 3])
    def test_jets_match_fd(self, n):
        m = punctured_hyperbolic(n, r_range=(0.5, 6.0))
        f = m.metric
        bare = Field(f.domain, lambda p: f(p), shape=f.shape)
        pts = m.metric.domain.grid(GridSpec(points_per_axis=5))
        v, d1, d2 = f.jet(pts)
        w, e1, e2 = _fd_jet(bare, pts, 1e-5)
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
        w, e1, e2 = _fd_jet(bare, pts, 1e-5)
        assert np.abs(d1 - e1).max() < 1e-7 * np.abs(d1).max()
        assert np.abs(d2 - e2).max() < 1e-5 * np.abs(d2).max()

    def test_pullback_is_valid_metric(self):
        m = perturbed_hyperbolic(2, amplitude=0.3, radial_center=5.0)
        rc = radial_chart(m, 5.0, xi=1.0)
        pb = pullback(rc, m.metric)
        G = pb(pb.domain.grid(GridSpec(points_per_axis=12)))
        assert np.abs(G - np.swapaxes(G, 1, 2)).max() <= 1e-12
        assert np.linalg.eigvalsh(G).min() > 1e-10


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

    def test_longitude_guard_uses_the_disc_half_span(self):
        # at phi0 = 0.6 the disc of radius c = 2 e^{-2.8} spans
        # arcsin(sin c / sin phi0) = 0.2166 in longitude: past the seam at pi
        m = punctured_hyperbolic(3)
        with pytest.raises(DomainError, match="longitude"):
            radial_chart(m, 2.8, xi=0.5, y0=(0.6, np.pi - 0.2))
        radial_chart(m, 2.8, xi=0.5, y0=(0.6, np.pi - 0.25))

    def test_sphere_maps_rows_independently(self):
        m = punctured_hyperbolic(3, grid=GridSpec(points_per_axis=6))
        rc = radial_chart(m, 4.0, y0=(1.3, -0.4))
        x = fd_stencil(rc)[:, :2]
        y, J = rc.sphere(x)
        perm = np.random.default_rng(2).permutation(len(x))
        ys, Js = rc.sphere(x[perm])
        assert np.array_equal(ys, y[perm]) and np.array_equal(Js, J[perm])
        rows = [rc.sphere(x[i:i + 1]) for i in range(len(x))]
        assert np.array_equal(np.concatenate([r[0] for r in rows]), y)
        assert np.array_equal(np.concatenate([r[1] for r in rows]), J)

    def test_fd_chunk_maps_each_run_of_x_once(self, monkeypatch):
        m = punctured_hyperbolic(3, grid=GridSpec(points_per_axis=8))
        rc = radial_chart(m, 5.0, y0=(1.2, 0.3))
        exp_map, rows = manifold._exp_map, []

        def counting(x, *args):
            rows.append(len(x))
            return exp_map(x, *args)

        monkeypatch.setattr(manifold, "_exp_map", counting)
        pts = rc.chart.grid_points()
        _fd_jet(pullback(rc, m.metric), pts, _FD_STEP)
        # t is the fastest grid axis, so each of the 19 stencil offsets
        # passes every distinct x once, in one run
        distinct = len(np.unique(pts[:, :2], axis=0))
        assert rows == [19 * distinct]
        assert len(pts) == 8 * distinct

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
        # M = Dphi1^T sigma_S Dphi1, Dphi1 from central differences of
        # phi1; at t0 = 1.2 rows lie on both sides of the gamma series
        # switch, at t0 = 4 all below it
        m = punctured_hyperbolic(3)
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.7, 0.7, size=(25, 2))
        x = np.vstack([x, [[0.0, 0.0]]])  # include the center point
        for t0 in (1.2, 4.0):
            rc = radial_chart(m, t0, xi=0.1, y0=(1.3, -0.4))
            y, M = rc.sphere(x)
            assert (rc.scale * np.linalg.norm(x, axis=1) > 0.3).any() == \
                (t0 < 2.0)
            h = 1e-6
            J = np.empty((len(x), 2, 2))
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                J[:, :, i] = (rc.sphere(x + e)[0]
                              - rc.sphere(x - e)[0]) / (2 * h)
            sigma = np.zeros((len(x), 2, 2))
            sigma[:, 0, 0], sigma[:, 1, 1] = 1.0, np.sin(y[:, 0]) ** 2
            want = np.einsum("mai,mab,mbj->mij", J, sigma, J)
            assert np.abs(M - want).max() < 1e-7 * rc.scale


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
        w, e1, e2 = _fd_jet(bare, pts, _FD_STEP)
        assert np.abs(v - w).max() == 0.0
        assert np.abs(d1 - e1).max() < 1e-6 * max(1.0, np.abs(d1).max())
        assert np.abs(d2 - e2).max() < 1e-4 * max(1.0, np.abs(d2).max())

    def test_n3_sandwich_matches_einsum(self):
        # the pullback is Dphi1^T (f sigma_S) Dphi1, Dphi1 from central
        # differences of phi1 and f sigma_S from polar_form
        m = perturbed_hyperbolic(3, amplitude=0.05,
                                 grid=GridSpec(points_per_axis=8))
        rc = radial_chart(m, 5.0, y0=(1.2, 0.3))
        pts = fd_stencil(rc)[::7]
        q, _ = rc.map_points(pts)
        h, J = 1e-6, np.empty((len(pts), 2, 2))
        for i in range(2):
            e = np.zeros(3)
            e[i] = h
            J[:, :, i] = (rc.map_points(pts + e)[0][:, :2]
                          - rc.map_points(pts - e)[0][:, :2]) / (2 * h)
        S = polar_form(m.metric)(q)[:, :2, :2]
        want = np.einsum("mab,mac,mcd->mbd", J, S, J)
        G = pullback(rc, m.metric)(pts)[:, :2, :2]
        assert np.abs(G - want).max() <= 1e-7 * np.abs(want).max()

    def test_n2_sandwich_is_bitwise_the_matmul(self):
        m = perturbed_hyperbolic(2)
        rc = radial_chart(m, 6.0, xi=0.5)

        def matmul(pts):
            q, J = rc.map_points(pts)
            return np.swapaxes(J, 1, 2) @ m.metric.spatial(q) @ J

        ref = RadialMetric.on_chart(rc.chart, matmul, analytic=True)
        pb = pullback(rc, m.metric)
        pts = rc.chart.grid_points(GridSpec(points_per_axis=16))
        assert np.array_equal(pb.spatial(pts), ref.spatial(pts))
        for got, want in zip(pb.spatial_jet(pts), ref.spatial_jet(pts)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("y0", [None, (1.2, 0.3)])
    def test_n3_sandwich_within_4_ulps_of_the_matmul(self, y0):
        # the perturbed pullback is F(phi1(x), t + t0) times the punctured
        # closed form, F = f / sinh^2 r the conformal perturbation
        m = perturbed_hyperbolic(3, amplitude=0.05,
                                 grid=GridSpec(points_per_axis=8))
        rc = radial_chart(m, 5.0, y0=y0)
        pts = fd_stencil(rc)
        q, _ = rc.map_points(pts)
        F = m.metric.spatial(q)[:, 0, 0] / np.sinh(q[:, -1]) ** 2
        want = F[:, None, None] * self.n3_closed_form(pts, rc.t0, rc.scale)
        G = pullback(rc, m.metric).spatial(pts)
        scale = np.abs(want).max(axis=(1, 2))
        assert np.all(np.abs(G - want).max(axis=(1, 2)) <= 1e-13 * scale)

    @staticmethod
    def n3_closed_form(pts, t0, c):
        """The punctured n = 3 pullback block in the exp-map chart:
        c^2 sinh^2(t + t0) [beta(s) I + gamma(s) x x^T], s = |x|^2,
        beta = sin^2(c sqrt(s))/(c^2 s), gamma = (1 - beta)/s; their series
        in u^2 = c^2 s below 1e-6."""
        x, t = pts[:, :2], pts[:, -1]
        s = np.sum(x * x, axis=1)
        u2 = c * c * s
        small = u2 < 1e-6
        safe = np.where(small, 1.0, s)
        beta = np.where(small, 1.0 - u2 / 3.0 + 2.0 * u2 ** 2 / 45.0,
                        np.sin(c * np.sqrt(safe)) ** 2 / (c * c * safe))
        gamma = np.where(small, c * c * (1.0 / 3.0 - 2.0 * u2 / 45.0
                                         + u2 ** 2 / 315.0),
                         (1.0 - beta) / safe)
        G = beta[:, None, None] * np.eye(2) \
            + gamma[:, None, None] * x[:, :, None] * x[:, None, :]
        return (c * c * np.sinh(t + t0) ** 2)[:, None, None] * G

    @pytest.mark.parametrize("t0", [3.0, 6.0])
    @pytest.mark.parametrize("y0", [None, (1.2, 0.3)])
    def test_n3_punctured_pullback_is_the_closed_form(self, t0, y0):
        m = punctured_hyperbolic(3, grid=GridSpec(points_per_axis=32))
        rc = radial_chart(m, t0, y0=y0)
        pb = pullback(rc, m.metric)
        rng = np.random.default_rng(17)
        a, r = rng.uniform(-np.pi, np.pi, 200), np.sqrt(rng.uniform(0, 1, 200))
        seeded = np.column_stack([0.999 * r * np.cos(a), 0.999 * r * np.sin(a),
                                  rng.uniform(-1.999, 1.999, 200)])
        seeded[0, :2] = 0.0                 # the chart center
        for pts in (seeded, rc.chart.grid_points()):
            G = pb.spatial(pts)
            want = self.n3_closed_form(pts, t0, rc.scale)
            scale = np.abs(want).max(axis=(1, 2))
            assert np.all(np.abs(G - want).max(axis=(1, 2)) <= 1e-13 * scale)

    @pytest.mark.parametrize("t0", [2.2, 3.0, 5.0, 9.0, 13.0])
    @pytest.mark.parametrize("y0", [None, (1.3,)])
    def test_n2_punctured_pullback_minus_sigma_is_the_closed_form(self, t0,
                                                                 y0):
        # c^2 sinh^2(t + t0) - e^{2t}, c = 2 e^{-t0}, and its t-derivatives
        # c^2 sinh(2(t + t0)) - 2 e^{2t} and 2 c^2 cosh(2(t + t0)) - 4 e^{2t}.
        # The value cancels two terms of size e^{2t}, so the gate scales
        # with it (about 2.5e-16 4^k e^{2t} seen at the k-th derivative).
        m = punctured_hyperbolic(2)
        rc = radial_chart(m, t0, y0=y0)
        f = difference(pullback(rc, m.metric), hyperbolic_model(rc.chart))
        pts = rc.chart.grid_points()
        v, d1, d2 = (np.asarray(a) for a in f.jet(pts))
        t = pts[:, 1]
        c2, e2t = (2.0 * np.exp(-t0)) ** 2, np.exp(2.0 * t)
        want = (c2 * np.sinh(t + t0) ** 2 - e2t,
                c2 * np.sinh(2.0 * (t + t0)) - 2.0 * e2t,
                2.0 * c2 * np.cosh(2.0 * (t + t0)) - 4.0 * e2t)
        for k, (got, w) in enumerate(zip(
                (v[:, 0, 0], d1[:, 1, 0, 0], d2[:, 1, 1, 0, 0]), want)):
            assert np.all(np.abs(got - w) <= 2e-15 * 4 ** k * e2t), k
        # the field does not depend on x
        assert not d1[:, 0].any() and not d2[:, 0].any() \
            and not d2[:, :, 0].any()

    def test_out_of_window_error(self):
        m = punctured_hyperbolic(2, r_range=(3.0, 8.3))
        rc = radial_chart(m, 6.0, xi=1.0)  # image [4, 8] fits
        pb = pullback(rc, m.metric)
        with pytest.raises(DomainError):
            pb(np.array([[0.0, 2.5]]))  # maps to r = 8.5 > 8.3

    @pytest.mark.parametrize("leave", ["r", "phi"])
    def test_a_chart_whose_stencil_leaves_the_window_raises(self, leave):
        # the window is tested on the sphere rows the exp map evaluates and
        # by r's extremes; the error names the first stencil point outside
        m = punctured_hyperbolic(3, r_range=(3.0, 8.3),
                                 grid=GridSpec(points_per_axis=6))
        rc = radial_chart(m, 6.0, xi=1.0, y0=(1.2, 0.3))  # image [4, 8]
        if leave == "r":
            rc = dataclasses.replace(rc, t0=6.4)          # r up to 8.4
        else:                   # phi near 0.052 +- c, across the pole pad
            def sphere(x, inner=rc.sphere):
                y, M = inner(x)
                return y - [1.148, 0.0], M
            rc = dataclasses.replace(rc, sphere=sphere)
        pts = fd_stencil(rc)
        q = rc.map_points(pts)[0]
        bad = q[~m.metric.domain.contains(q)]
        assert 0 < len(bad) < len(q)
        point = tuple(round(float(v), 6) for v in bad[0])
        pb = pullback(rc, m.metric)
        with pytest.raises(DomainError) as exc:
            pb.spatial(pts)
        assert str(exc.value) == (f"pullback of 'punctured3d' hit "
                                  f"coordinates {point} outside its window")
        with pytest.raises(DomainError, match="'punctured3d' hit"):
            c2_norm(pb, rc.chart.grid)


def bitwise(a, b):
    """a and b hold the same float64 bits (signed zeros and NaNs too)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def gamma_branches(rho, c):
    """Both branches of the exp map's c^2 gamma at every row: its series
    in w = (c rho)^2 and (c^2 - s^2)/rho^2, s = sin(c rho)/rho (nan at
    rho = 0)."""
    w = (c * rho) ** 2
    series = c ** 4 * (1 / 3 - w * (2 / 45 - w * (1 / 315 - w * (
        2 / 14175 - w * (2 / 467775 - w * (4 / 42567525
                                           - w / 638512875))))))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sin(c * rho) / rho
        exact = (c * c - s * s) / (rho * rho)
    return series, exact


def exp_map_both_branches(x, c, p0, e1, e2):
    """manifold._exp_map with both branches of each series switch on every
    row, joined by np.where."""
    rho = np.linalg.norm(x, axis=1)
    th = c * rho
    small = rho < 1e-6
    safe = np.where(small, 1.0, rho)
    s = np.where(small, c * (1.0 - th ** 2 / 6.0), np.sin(th) / safe)
    u = x[:, 0, None] * e1 + x[:, 1, None] * e2
    P = np.cos(th)[:, None] * p0 + s[:, None] * u
    phi = np.arccos(np.clip(P[:, 2], -1.0, 1.0))
    psi = np.arctan2(P[:, 1], P[:, 0])
    safe = np.where(rho < 0.3 / c, 1.0, rho)
    cg = np.where(rho < 0.3 / c, gamma_branches(rho, c)[0],
                  (c * c - s * s) / (safe * safe))
    M = np.empty((len(x), 2, 2))
    M[:, 0, 0] = s * s + cg * x[:, 0] * x[:, 0]
    M[:, 0, 1] = M[:, 1, 0] = cg * x[:, 0] * x[:, 1]
    M[:, 1, 1] = s * s + cg * x[:, 1] * x[:, 1]
    return np.stack([phi, psi], axis=1), M


def exp_map_broadcast(x, c, p0, e1, e2):
    """phi1 of manifold._exp_map as written before it went column by
    column: (m, 3) broadcasts, np.linalg.norm, np.clip and np.stack."""
    rho = np.linalg.norm(x, axis=1)
    th = c * rho
    sin, cos = np.sin(th), np.cos(th)
    s = manifold._switched(rho, 1e-6, lambda: c * (1.0 - th ** 2 / 6.0),
                           lambda r: sin / r)
    u = x[:, 0, None] * e1 + x[:, 1, None] * e2
    P = cos[:, None] * p0 + s[:, None] * u
    phi = np.arccos(np.clip(P[:, 2], -1.0, 1.0))
    psi = np.arctan2(P[:, 1], P[:, 0])
    return np.stack([phi, psi], axis=1)


class TestSeriesSwitches:
    @staticmethod
    def frame(phi0=1.2, psi0=0.3, t0=5.0):
        """(c, p0, e1, e2) of the chart at radius t0 centered at (phi0,
        psi0), as radial_chart builds them."""
        p0 = np.array([np.sin(phi0) * np.cos(psi0),
                       np.sin(phi0) * np.sin(psi0), np.cos(phi0)])
        e1 = np.array([np.cos(phi0) * np.cos(psi0),
                       np.cos(phi0) * np.sin(psi0), -np.sin(phi0)])
        e2 = np.array([-np.sin(psi0), np.cos(psi0), 0.0])
        return 2.0 * np.exp(-t0), p0, e1, e2

    @staticmethod
    def switch_batches(c):
        """Rows below, at and just above each series switch (rho = 1e-6
        for s, c rho = 0.3 for gamma where it lies in the ball), and
        chart-grid radii: in one batch mixing both sides, in batches all
        on one side, and one row at a time."""
        cut = 0.3 / c
        radii = [0.0, 3e-7, np.nextafter(1e-6, 0.0), 1e-6,
                 np.nextafter(1e-6, 1.0), 5e-5, 1e-4, 2e-4, 0.03, 0.5, 0.96]
        if cut < 1.0:
            radii += [0.5 * cut, np.nextafter(cut, 0.0), cut,
                      np.nextafter(cut, 1.0), 0.5 + 0.5 * cut]
        x = np.array([[r * np.cos(a), r * np.sin(a)] for r in radii
                      for a in (0.0, 0.7)])
        x[::2, 1] = 0.0                 # |(r, 0)| is r exactly
        rho = np.linalg.norm(x, axis=1)
        assert 1e-6 in set(rho.tolist()) and (cut > 1.0 or cut in rho)
        return [x, x[rho >= cut], x[rho >= 1e-6], x[rho < 1e-6]] \
            + [x[i:i + 1] for i in range(len(x))]

    def test_exp_map_is_bitwise_both_branches(self):
        # at t0 = 1.2 the gamma switch lies in the ball
        for t0 in (5.0, 1.2):
            args = self.frame(t0=t0)
            for b in self.switch_batches(args[0]):
                for got, want in zip(manifold._exp_map(b, *args),
                                     exp_map_both_branches(b, *args)):
                    assert bitwise(got, want)

    @pytest.mark.parametrize("c", [0.6, 0.05])
    def test_gamma_branches_agree_at_the_switch(self, c):
        # within 5e-14 of each other across the switch at c rho = 0.3;
        # the series alone is good to 1e-16 below it
        cut = 0.3 / c
        rho = cut * np.linspace(0.5, 1.5, 101)
        series, exact = gamma_branches(rho, c)
        assert np.all(np.abs(series - exact) <= 5e-14 * series)
        args = self.frame(t0=-np.log(c / 2.0))
        assert args[0] == pytest.approx(c, rel=1e-15)
        # _exp_map itself, on either side of its switch (rows 0 and 1)
        rho = np.array([np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0)])
        x = np.column_stack([rho, np.zeros(3)])
        assert np.array_equal(np.linalg.norm(x, axis=1), rho)
        x = np.vstack([x, x @ [[0.6, 0.8], [-0.8, 0.6]]])
        _, M = manifold._exp_map(x, *args)
        cg = (M[:, 0, 0] - M[:, 1, 1]) / (x[:, 0] ** 2 - x[:, 1] ** 2)
        assert np.all(np.abs(cg - cg[1]) <= 5e-14 * cg[1])

    @pytest.mark.parametrize("y0", [(np.pi / 2, 0.0), (1.2, 0.3)])
    def test_exp_map_is_bitwise_the_broadcast_form(self, y0):
        m = punctured_hyperbolic(3, grid=GridSpec(points_per_axis=32))
        rc = radial_chart(m, 5.0, y0=y0)
        seen = []

        def record(p):
            seen.append(np.array(p[:, :2]))
            return np.zeros(len(p))

        c2_norm(Field(rc.chart.domain, record), rc.chart.grid)
        assert len(seen) > 1             # every piece of a 32-point chart
        args = self.frame(*y0)
        for b in self.switch_batches(args[0]) + [
                np.concatenate(seen), np.asfortranarray(seen[-1])]:
            y, M = manifold._exp_map(b, *args)
            assert y.flags.f_contiguous and M.flags.f_contiguous
            assert bitwise(y, exp_map_broadcast(b, *args))
            assert bitwise(M, exp_map_both_branches(b, *args)[1])


class TestSphereFactorsPerRun:
    """Both families evaluate their sphere-only factors (A cos(m ang), and
    sin^2 phi in polar_form) once per run of equal sphere coordinates;
    every number is the row-by-row formula's."""

    A, MODE, RC, RW = 0.05, 3, 5.0, 1.5

    @classmethod
    def formula(cls, n, perturbed):
        """The spatial block of the family, row by row, as a value
        function."""
        def fn(p):
            f = np.sinh(p[:, -1]) ** 2
            if perturbed:
                u = (p[:, -1] - cls.RC) / cls.RW
                f = (1.0 + cls.A * np.cos(cls.MODE * p[:, n - 2])
                     * np.exp(-u ** 2)) * f
            return _diag([f])
        return fn

    @classmethod
    def family(cls, n, perturbed, grid=GridSpec(points_per_axis=8)):
        if perturbed:
            return perturbed_hyperbolic(n, amplitude=cls.A,
                                        sphere_mode=cls.MODE,
                                        radial_center=cls.RC,
                                        radial_width=cls.RW, grid=grid)
        return punctured_hyperbolic(n, grid=grid)

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_n3_metrics_are_the_row_formula(self, perturbed):
        m = self.family(3, perturbed)
        rc = radial_chart(m, 5.0, y0=(1.2, 0.3))
        stencil = rc.map_points(fd_stencil(rc))[0]
        polar = m.metric.domain.grid(m.grid)
        for q in (stencil, polar, np.ascontiguousarray(stencil)):
            f = self.formula(3, perturbed)(q)
            assert bitwise(m.metric.spatial(q), f)
            want = np.zeros((len(q), 3, 3))
            want[:, 0, 0], want[:, 2, 2] = f[:, 0, 0], 1.0
            want[:, 1, 1] = f[:, 0, 0] * np.sin(q[:, 0]) ** 2
            assert bitwise(polar_form(m.metric)(q), want)

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_n2_jets_are_the_row_formula(self, perturbed):
        m = self.family(2, perturbed)
        ref = RadialMetric(m.metric.domain, self.formula(2, perturbed),
                           analytic=True)
        rc = radial_chart(m, 5.0, y0=0.4)
        pts = rc.chart.grid_points()
        polar = m.metric.domain.grid(m.grid)
        for f, g, x in ((pullback(rc, m.metric), pullback(rc, ref), pts),
                        (m.metric, ref, polar)):
            for got, want in zip(f.jet(x), g.jet(x)):
                assert bitwise(got, want)


class TestColumnMajor:
    """The n = 3 finite-difference path stores points and k x k blocks
    column-major; no number may depend on that layout."""

    @staticmethod
    def case():
        m = perturbed_hyperbolic(3, amplitude=0.05,
                                 grid=GridSpec(points_per_axis=8))
        rc = radial_chart(m, 5.0, y0=(1.2, 0.3))
        pb = pullback(rc, m.metric)
        return m, rc, pb, difference(pb, hyperbolic_model(rc.chart))

    def test_pullback_is_bitwise_at_either_layout(self):
        _, rc, pb, _ = self.case()
        pts = fd_stencil(rc)
        assert pts.flags.f_contiguous
        q, J = rc.map_points(pts)
        assert q.flags.f_contiguous and J.flags.f_contiguous
        G = pb.spatial(pts)
        assert G.flags.f_contiguous
        for other in (np.ascontiguousarray(pts), pts.copy(order="F")):
            assert bitwise(pb(other), pb(pts))
            assert bitwise(pb.spatial(other), G)

    def test_fd_jet_and_norm_are_bitwise_at_either_layout(self, monkeypatch):
        _, rc, _, f = self.case()
        pts = rc.chart.grid_points()
        assert pts.flags.f_contiguous
        fd = _fd_jet(f, pts, _FD_STEP)
        for got, want in zip(_fd_jet(f, np.ascontiguousarray(pts), _FD_STEP),
                             fd):
            assert bitwise(got, want)
        norm = c2_norm(f, rc.chart.grid)
        # 100 rows a piece: the walk takes its rows from grid_chunks, not
        # from the cached one-chunk grid
        monkeypatch.setattr(model, "_FD_ROWS", 19 * 100)
        chunks = Domain.grid_chunks
        monkeypatch.setattr(Domain, "grid_chunks", lambda self, specs, step: (
            (np.ascontiguousarray(x), parts)
            for x, parts in chunks(self, specs, step)))
        assert c2_norm(f, rc.chart.grid) == norm

    def test_sandwich_is_the_row_major_computation(self):
        # f M on row-major stacks: the conformal block times the chart's M
        m, rc, pb, _ = self.case()
        pts = fd_stencil(rc)
        q, M = rc.map_points(pts)
        f = m.metric.spatial(q)
        assert M.flags.f_contiguous and f.flags.f_contiguous
        want = np.ascontiguousarray(f) * np.ascontiguousarray(M)
        got = pb.spatial(pts)
        assert got.flags.f_contiguous and bitwise(got, want)


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
        assert m.r_range == (0.1, 12.0)

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

    @pytest.mark.parametrize("cfg,key", [
        ({"kind": "punctured", "amplitude": 0.5}, "amplitude"),
        ({"kind": "perturbed", "amplitud": 0.5}, "amplitud"),
        ({"n": 2, "grid": {"points_per_axis": 8}}, "grid"),
    ])
    def test_unknown_keys_are_named(self, cfg, key):
        with pytest.raises(ValueError, match=repr(key)):
            manifold_from_config(cfg)

    @pytest.mark.parametrize("r_range", [
        [], [0.05], [0.05, 16.0, 99], [-1.0, 3.0], [3.0, 1.0], [2.0, 2.0],
        [0.05, float("inf")], [float("nan"), 3.0], ["0.05", 16.0],
        [True, 16.0], 5.0, None])
    def test_r_range_must_be_two_ordered_finite_numbers(self, r_range):
        for build in (punctured_hyperbolic, perturbed_hyperbolic):
            with pytest.raises(ValueError, match="r_range"):
                build(3, r_range=r_range)

    def test_defaults_are_the_constructors(self):
        assert manifold_from_config({}).params == \
            punctured_hyperbolic().params
        assert manifold_from_config({"kind": "perturbed"}).params == \
            perturbed_hyperbolic().params
