import numpy as np
import pytest

from warpforce import manifold
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
    Domain,
    DomainError,
    Field,
    GenerationError,
    GridSpec,
    RadialMetric,
    _diag,
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
            rc.chart.grid)
    assert len(seen) == 1               # a small grid is one piece
    return seen[0]


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
    def test_blocks_are_bitwise_the_eye_product(self, n):
        def old(p):
            s2 = np.sinh(p[:, -1]) ** 2
            if n == 2:
                return s2[:, None, None]
            f = s2 * np.sin(p[:, 0]) ** 2
            return np.concatenate([s2[:, None], f[:, None]], axis=1)[
                :, :, None] * np.eye(2)

        def old_perturbed(p):
            u = (p[:, -1] - 5.0) / 1.5
            ang = p[:, 0] if n == 2 else p[:, 1]
            factor = 1.0 + 0.05 * np.cos(3 * ang) * np.exp(-u ** 2)
            return factor[:, None, None] * old(p)

        pts = punctured_hyperbolic(n).metric.domain.grid(
            GridSpec(points_per_axis=6))
        for m, ref in ((punctured_hyperbolic(n), old),
                       (perturbed_hyperbolic(n, amplitude=0.05),
                        old_perturbed)):
            want = RadialMetric(m.metric.domain, ref, analytic=True)
            assert np.array_equal(m.metric.spatial(pts), want.spatial(pts))
            for got, exp in zip(m.metric.spatial_jet(pts),
                                want.spatial_jet(pts)):
                assert np.array_equal(got, exp)

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
        _fd_jet(pullback(rc, m.metric), pts, rc.chart.grid)
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

    def test_n3_sandwich_matches_einsum(self):
        m = perturbed_hyperbolic(3, amplitude=0.05,
                                 grid=GridSpec(points_per_axis=8))
        rc = radial_chart(m, 5.0, y0=(1.2, 0.3))
        pts = fd_stencil(rc)
        q, J = rc.map_points(pts)
        want = np.einsum("mab,mac,mcd->mbd", J, m.metric.spatial(q), J)
        G = pullback(rc, m.metric)(pts)[:, :2, :2]
        assert np.abs(G - want).max() <= 1e-14 * np.abs(want).max()

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
        m = perturbed_hyperbolic(3, amplitude=0.05,
                                 grid=GridSpec(points_per_axis=8))
        rc = radial_chart(m, 5.0, y0=y0)
        q, J = rc.map_points(fd_stencil(rc))
        S = m.metric.spatial(q)
        want = np.swapaxes(J, 1, 2) @ S @ J
        G = pullback(rc, m.metric).spatial(fd_stencil(rc))
        # an entry's rounding scale is that of its terms: off the equator
        # the off-diagonal entries cancel, and FMA in the matmul moves them
        # by many of their own ulps
        scale = want if y0 is None \
            else np.swapaxes(np.abs(J), 1, 2) @ np.abs(S) @ np.abs(J)
        assert np.all(np.abs(G - want) <= 4 * np.spacing(np.abs(scale)))

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


def bitwise(a, b):
    """a and b hold the same float64 bits (signed zeros and NaNs too)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def exp_map_both_branches(x, c, p0, e1, e2):
    """manifold._exp_map as written before its series were skipped: both
    branches of each series switch on every row, joined by np.where."""
    rho = np.linalg.norm(x, axis=1)
    th = c * rho
    small = rho < 1e-6
    safe = np.where(small, 1.0, rho)
    s = np.where(small, c * (1.0 - th ** 2 / 6.0), np.sin(th) / safe)
    u = x[:, 0, None] * e1 + x[:, 1, None] * e2
    P = np.cos(th)[:, None] * p0 + s[:, None] * u
    phi = np.arccos(np.clip(P[:, 2], -1.0, 1.0))
    psi = np.arctan2(P[:, 1], P[:, 0])
    small = rho < 1e-4
    safe = np.where(small, 1.0, rho)
    q = np.where(small, -(c ** 3) / 3.0 * (1.0 - th ** 2 / 10.0),
                 (c * safe * np.cos(th) - np.sin(th)) / safe ** 3)
    dP = np.empty((len(x), 2, 3))
    for i, ei in enumerate((e1, e2)):
        dP[:, i] = (-c * s * x[:, i])[:, None] * p0 \
            + (q * x[:, i])[:, None] * u + s[:, None] * ei
    sin_phi2 = np.maximum(1.0 - P[:, 2] ** 2, 1e-18)
    dphi = -dP[:, :, 2] / np.sqrt(sin_phi2)[:, None]
    dpsi = (P[:, 0, None] * dP[:, :, 1] - P[:, 1, None] * dP[:, :, 0]) \
        / sin_phi2[:, None]
    return np.stack([phi, psi], axis=1), np.stack([dphi, dpsi], axis=1)


def exp_map_broadcast(x, c, p0, e1, e2):
    """manifold._exp_map as written before it went column by column: (m, 3)
    broadcasts, np.linalg.norm, np.clip and np.stack."""
    rho = np.linalg.norm(x, axis=1)
    th = c * rho
    sin, cos = np.sin(th), np.cos(th)
    s = manifold._switched(rho, 1e-6, lambda: c * (1.0 - th ** 2 / 6.0),
                           lambda r: sin / r)
    u = x[:, 0, None] * e1 + x[:, 1, None] * e2
    P = cos[:, None] * p0 + s[:, None] * u
    phi = np.arccos(np.clip(P[:, 2], -1.0, 1.0))
    psi = np.arctan2(P[:, 1], P[:, 0])
    q = manifold._switched(
        rho, 1e-4, lambda: -(c ** 3) / 3.0 * (1.0 - th ** 2 / 10.0),
        lambda r: (c * r * cos - sin) / r ** 3)
    dP = np.empty((len(x), 2, 3))
    for i, ei in enumerate((e1, e2)):
        dP[:, i] = (-c * s * x[:, i])[:, None] * p0 \
            + (q * x[:, i])[:, None] * u + s[:, None] * ei
    sin_phi2 = np.maximum(1.0 - P[:, 2] ** 2, 1e-18)
    dphi = -dP[:, :, 2] / np.sqrt(sin_phi2)[:, None]
    dpsi = (P[:, 0, None] * dP[:, :, 1] - P[:, 1, None] * dP[:, :, 0]) \
        / sin_phi2[:, None]
    return np.stack([phi, psi], axis=1), np.stack([dphi, dpsi], axis=1)


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
    def switch_batches():
        """Rows below, at and just above each series switch, and chart-grid
        radii: in one batch mixing both sides, in batches all on one side,
        and one row at a time."""
        radii = [0.0, 3e-7, np.nextafter(1e-6, 0.0), 1e-6,
                 np.nextafter(1e-6, 1.0), 5e-5, np.nextafter(1e-4, 0.0),
                 1e-4, np.nextafter(1e-4, 1.0), 2e-4, 0.03, 0.5, 0.96]
        x = np.array([[r * np.cos(a), r * np.sin(a)] for r in radii
                      for a in (0.0, 0.7)])
        x[::2, 1] = 0.0                 # |(r, 0)| is r exactly
        rho = np.linalg.norm(x, axis=1)
        assert {1e-6, 1e-4} <= set(rho.tolist())
        return [x, x[rho >= 1e-4], x[rho >= 1e-6], x[rho < 1e-6]] \
            + [x[i:i + 1] for i in range(len(x))]

    def test_exp_map_is_bitwise_both_branches(self):
        args = self.frame()
        for b in self.switch_batches():
            for got, want in zip(manifold._exp_map(b, *args),
                                 exp_map_both_branches(b, *args)):
                assert bitwise(got, want)

    @pytest.mark.parametrize("y0", [(np.pi / 2, 0.0), (1.2, 0.3)])
    def test_exp_map_is_bitwise_the_broadcast_form(self, y0):
        m = punctured_hyperbolic(3, grid=GridSpec(points_per_axis=32))
        rc = radial_chart(m, 5.0, y0=y0)
        seen = []

        def record(p):
            seen.append(np.array(p[:, :2]))
            return np.zeros(len(p))

        _fd_jet(Field(rc.chart.domain, record), rc.chart.grid_points(),
                rc.chart.grid)
        assert len(seen) > 1             # every piece of a 32-point chart
        args = self.frame(*y0)
        for b in self.switch_batches() + [np.concatenate(seen),
                                          np.asfortranarray(seen[-1])]:
            y, J = manifold._exp_map(b, *args)
            assert y.flags.f_contiguous and J.flags.f_contiguous
            for got, want in zip((y, J), exp_map_broadcast(b, *args)):
                assert bitwise(got, want)


class TestSphereFactorsPerRun:
    """Both families evaluate their sphere-only factors (A cos(m ang),
    sin^2 phi) once per run of equal sphere coordinates; every number is
    the row-by-row formula's."""

    A, MODE, RC, RW = 0.05, 3, 5.0, 1.5

    @classmethod
    def formula(cls, n, perturbed):
        """The spatial block of the family, row by row, as a value
        function."""
        def fn(p):
            s2 = np.sinh(p[:, -1]) ** 2
            diag = [s2] if n == 2 else [s2, s2 * np.sin(p[:, 0]) ** 2]
            if perturbed:
                u = (p[:, -1] - cls.RC) / cls.RW
                factor = 1.0 + cls.A * np.cos(cls.MODE * p[:, n - 2]) \
                    * np.exp(-u ** 2)
                diag = [factor * c for c in diag]
            return _diag(diag)
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
        polar = m.metric.domain.grid(m.metric.grid)
        for q in (stencil, polar, np.ascontiguousarray(stencil)):
            assert bitwise(m.metric.spatial(q), self.formula(3, perturbed)(q))

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_n2_jets_are_the_row_formula(self, perturbed):
        m = self.family(2, perturbed)
        ref = RadialMetric(m.metric.domain, self.formula(2, perturbed),
                           analytic=True, grid=m.metric.grid)
        rc = radial_chart(m, 5.0, y0=0.4)
        pts = rc.chart.grid_points()
        polar = m.metric.domain.grid(m.metric.grid)
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
        fd = _fd_jet(f, pts, f.grid)
        for got, want in zip(_fd_jet(f, np.ascontiguousarray(pts), f.grid),
                             fd):
            assert bitwise(got, want)
        norm = c2_norm(f)
        grid = Domain.grid
        monkeypatch.setattr(Domain, "grid", lambda self, spec:
                            np.ascontiguousarray(grid(self, spec)))
        assert c2_norm(f) == norm

    def test_sandwich_is_the_row_major_computation(self):
        m, rc, _, _ = self.case()
        q, J = rc.map_points(fd_stencil(rc))
        S = m.metric.spatial(q)
        assert S.flags.f_contiguous
        Jc, Sc = np.ascontiguousarray(J), np.ascontiguousarray(S)
        # (J^T S) J entry by entry, on row-major stacks
        want = np.empty(J.shape)
        for i in range(2):
            T = [Jc[:, 0, i] * Sc[:, 0, b] + Jc[:, 1, i] * Sc[:, 1, b]
                 for b in range(2)]
            for j in range(2):
                want[:, i, j] = T[0] * Jc[:, 0, j] + T[1] * Jc[:, 1, j]
        for a, b in ((J, S), (Jc, Sc)):
            got = manifold._sandwich(a, b)
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
