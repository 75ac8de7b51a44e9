import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpforce.model import (
    C2Norm,
    ChartModel,
    DomainError,
    Field,
    GenerationError,
    GridSpec,
    ScalarField,
    _fd_jet,
    ball_domain,
    c2_norm,
    difference,
    dump_grid_csv,
    hyperbolic_model,
    interval_domain,
    is_eps_close,
    metric_deviation,
    polynomial_scalar,
    RadialMetric,
    profile_scalar,
    scalar_times_jet,
    validate_metric,
)


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
        assert g.fd_step == 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(points_per_axis=2)
        with pytest.raises(ValueError):
            GridSpec(boundary_margin=0.5)
        with pytest.raises(ValueError):
            GridSpec(fd_step=0.0)

    def test_halved(self):
        assert GridSpec(points_per_axis=64).halved().points_per_axis == 32
        assert GridSpec(points_per_axis=5).halved().points_per_axis == 4


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

    def test_chart_validation(self):
        with pytest.raises(ValueError):
            ChartModel(n=1)
        with pytest.raises(ValueError):
            ChartModel(n=2, xi=0.0)


class TestC2Norm:
    def test_hyperbolic_norm_oracle(self):
        for xi in (1.0, 0.5):
            ch = chart2(xi=xi)
            nrm = c2_norm(hyperbolic_model(ch))
            assert nrm.derivative_source == "analytic"
            assert nrm.value == pytest.approx(sigma_norm_oracle(xi), rel=1e-12)

    def test_value_is_max_of_per_order(self):
        nrm = c2_norm(hyperbolic_model(chart2()))
        assert nrm.value == max(nrm.per_order_sups.values())
        assert set(nrm.per_order_sups) == {"1", "dx1", "dt",
                                           "dx1dx1", "dx1dt", "dtdt"}

    def test_pure_second_weight_is_half(self):
        nrm = c2_norm(hyperbolic_model(chart2()))
        # d2/dt2 e^{2t} = 4 e^{2t}; stored weighted contribution is half that
        assert nrm.per_order_sups["dtdt"] == pytest.approx(
            nrm.per_order_sups["dt"], rel=1e-12)

    def test_fd_matches_jet(self):
        sig = hyperbolic_model(chart2())
        fd = Field(sig.domain, lambda p: sig(p), shape=sig.shape, name="fd",
                   grid=sig.grid)
        n_fd = c2_norm(fd)
        n_jet = c2_norm(sig)
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
            dev = metric_deviation(pert, sig)
            assert dev.value == pytest.approx(0.01 * sigma_norm_oracle(xi),
                                              rel=1e-5)

    def test_is_eps_close_threshold(self):
        ch = chart2(xi=0.5)
        sig = hyperbolic_model(ch)
        pert = RadialMetric.on_chart(
            ch,
            lambda p: 1.01 * np.exp(2 * p[:, -1])[:, None, None] * np.eye(1),
        )
        oracle = 0.01 * sigma_norm_oracle(0.5)
        ok, dev = is_eps_close(pert, 2.0 * oracle)
        assert ok and isinstance(dev, C2Norm)
        bad, _ = is_eps_close(pert, 0.5 * oracle)
        assert not bad

    def test_stencil_domain_error_names_point(self):
        w = interval_domain(0.0, 5.0)
        f = ScalarField(w, lambda p: np.exp(-p[:, 0]), name="decay")
        with pytest.raises(DomainError) as exc:
            c2_norm(f)
        assert "decay" in str(exc.value)
        assert "(" in str(exc.value)  # names the offending point

    def test_to_json_roundtrip_fields(self):
        nrm = c2_norm(hyperbolic_model(chart2()))
        d = nrm.to_json()
        assert d["value"] == nrm.value
        assert d["grid"]["points_per_axis"] == 64
        assert d["derivative_source"] == "analytic"


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

        def jet(p):
            return scalar_times_jet(f.jet(p), g.jet(p))

        prod = ScalarField(dom, lambda p: f(p) * g(p), jet=jet, name="fg")
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
        w, e1, e2 = _fd_jet(f, pts, GridSpec())
        assert np.abs(v - w).max() == 0.0
        assert np.abs(d1 - e1).max() < 1e-9
        assert np.abs(d2 - e2).max() < 1e-6

    def test_profile_lift_shift(self):
        dom = chart2().domain

        class Sq:
            def __call__(self, t):
                return t ** 2

            def jet(self, t):
                return t ** 2, 2 * t, 2 * np.ones_like(t)

        f = profile_scalar(dom, Sq(), shift=0.5)
        pts = np.array([[0.3, 1.5], [0.0, -1.0]])
        assert f(pts) == pytest.approx((pts[:, 1] - 0.5) ** 2)
        v, d1, d2 = f.jet(pts)
        assert d1[:, 0] == pytest.approx(0.0)
        assert d1[:, 1] == pytest.approx(2 * (pts[:, 1] - 0.5))
        assert d2[:, 1, 1] == pytest.approx(2.0)

    def test_difference_propagates_jets(self):
        ch = chart2()
        sig = hyperbolic_model(ch)
        d = difference(sig, sig)
        assert d.has_jet
        assert c2_norm(d).value == 0.0


class TestValidateMetric:
    def test_hyperbolic_passes(self):
        out = validate_metric(hyperbolic_model(chart2()))
        assert out["min_eigenvalue"] > 0
        assert out["symmetry_defect"] == 0.0

    def test_rejects_indefinite(self):
        ch = chart2()
        bad = RadialMetric.on_chart(
            ch, lambda p: -np.ones((len(p), 1, 1)), name="bad")
        with pytest.raises(GenerationError):
            validate_metric(bad)

    def test_rejects_asymmetric(self):
        ch = ChartModel(n=3, xi=0.5, grid=GridSpec(points_per_axis=8))

        def fn(p):
            out = np.tile(np.eye(3), (len(p), 1, 1))
            out[:, 0, 1] = 0.5
            return out

        bad = Field(ch.domain, fn, shape=(3, 3), name="asym", grid=ch.grid)
        with pytest.raises(GenerationError):
            validate_metric(bad)


class TestDump:
    def test_csv_shape_and_determinism(self, tmp_path):
        ch = chart2(pts=8)
        sig = hyperbolic_model(ch)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        n1 = dump_grid_csv(sig, p1)
        n2 = dump_grid_csv(sig, p2)
        assert n1 == n2 == 64
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        header = b1.decode().splitlines()[0]
        assert header == "x1,t,g11,g12,g21,g22"

    def test_scalar_dump(self, tmp_path):
        dom = interval_domain(0.0, 1.0)
        f = ScalarField(dom, lambda p: p[:, 0] ** 2)
        path = tmp_path / "s.csv"
        rows = dump_grid_csv(f, path, grid=GridSpec(points_per_axis=5))
        assert rows == 5
        assert path.read_text().splitlines()[0] == "t,value"
