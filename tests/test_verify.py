import json

import numpy as np
import pytest

from warpforce.model import (
    ChartModel,
    DomainError,
    Field,
    GridSpec,
    WarpforceError,
    c2_norm,
    difference,
    hyperbolic_model,
)
from warpforce.manifold import perturbed_hyperbolic, punctured_hyperbolic
from warpforce.warpcore import BumpFunction, WarpFunction, apply_warp
from warpforce.verify import (
    CSV_COLUMNS,
    TheoremConfig,
    check_lemma_1_1,
    check_lemma_2_1,
    check_lemma_2_2,
    check_lemma_2_3,
    check_lemma_3_1,
    check_lemma_3_2,
    check_main_theorem,
    error_report,
    fd_oracle_check,
    make_report,
    measured_with_error,
    random_ball_metric,
    random_close_metric,
    random_lambda,
    random_warp_profile,
    remark_decay,
    reports_to_csv_rows,
    run_check,
    available_checks,
    theorem_centers,
)

CH = ChartModel(n=2, xi=1.0, grid=GridSpec())


def unit_lambda(chart):
    # a constant value function is its own jet, with zero derivatives
    return Field(chart.domain, lambda p: np.ones(len(p)), analytic=True)


# ---------------------------------------------------------------------------
# report plumbing


def test_report_pass_iff_strict():
    g = GridSpec()
    assert make_report("x", {}, 1.0, 2.0, 0.0, g, "jet").passed
    assert not make_report("x", {}, 2.0, 2.0, 0.0, g, "jet").passed
    assert not make_report("x", {}, 3.0, 2.0, 0.0, g, "jet").passed


def test_report_zero_zero_flagged_pass():
    r = make_report("x", {}, 0.0, 0.0, 0.0, GridSpec(), "jet")
    assert r.passed and r.marginal and r.margin == 0.0


def test_report_marginal_threshold():
    g = GridSpec()
    assert make_report("x", {}, 1.0, 1.1, 0.05, g, "jet").marginal
    assert not make_report("x", {}, 1.0, 2.0, 0.05, g, "jet").marginal


def test_error_report_schema():
    r = error_report("x", {"t0": 3.0}, GridSpec(), "chart misfit")
    assert not r.passed and np.isnan(r.lhs) and "chart misfit" in r.notes


def test_csv_rows_columns_and_params_roundtrip():
    reps = run_check("lemma2.1", config={"t0_values": [3.0]})
    rows = reports_to_csv_rows(reps)
    assert list(rows[0].keys()) == CSV_COLUMNS
    assert json.loads(rows[0]["params"])["t0"] == 3.0
    assert rows[0]["passed"] == "true"


def test_measured_with_error_fd_proxy():
    sigma = hyperbolic_model(CH)
    bare = Field(CH.domain, lambda p: np.exp(2.0 * p[:, 1]))
    full, err = measured_with_error(bare)
    assert full.derivative_source == "finite-difference"
    assert err >= 3e-6 * full.value
    _, err_jet = measured_with_error(difference(sigma, sigma))
    assert err_jet == 0.0


# ---------------------------------------------------------------------------
# decay profile bound


def test_decay_bound_sweep_passes():
    for t0 in (2.1, 3.0, 6.0):
        r = check_lemma_2_1(t0)
        assert r.passed and not r.marginal
        assert r.rhs == pytest.approx(5.2 * np.exp(-2.0 * t0))
        assert r.lhs > 0.7 * r.rhs  # bound is tight, not slack


def test_decay_bound_rejects_small_t0():
    with pytest.raises(ValueError):
        check_lemma_2_1(1.5)


# ---------------------------------------------------------------------------
# warp comparison and sinh rewarping


def test_warp_comparison_trivial_exact_zero():
    reps = run_check("lemma2.2", instances=0)
    assert reps[0].lhs == 0.0 and reps[0].rhs == 0.0
    assert reps[0].passed and reps[0].marginal


def test_warp_comparison_random_instance():
    rng = np.random.default_rng(11)
    g = random_close_metric(CH, rng)
    r = check_lemma_2_2(g, random_warp_profile(rng))
    assert r.passed and r.lhs > 0.0


def test_rewarping_base_instance_passes():
    r1, r2 = check_lemma_2_3(hyperbolic_model(CH), 4.0)
    assert r1.passed and r2.passed
    assert r1.params["eps"] == 0.0


def test_rewarping_triangle_structure():
    rng = np.random.default_rng(5)
    g = random_close_metric(CH, rng)
    r1, r2 = check_lemma_2_3(g, 4.0)
    eps = r1.params["eps"]
    assert r2.lhs <= r1.lhs + eps + 1e-10


def test_rewarping_shift_passes():
    r1, r2 = check_lemma_2_3(hyperbolic_model(CH), 4.0, s=-0.5)
    assert r1.passed and r2.passed


def test_rewarping_rejects_slice_shift_outside_profile_domain():
    # t - s + t0 dips below zero on the window
    with pytest.raises(DomainError):
        check_lemma_2_3(hyperbolic_model(CH), 2.1, s=1.9)


# ---------------------------------------------------------------------------
# warped extensions


def test_extension_trivial_exact_zero():
    reps = run_check("lemma3.1", instances=0)
    assert reps[0].lhs == 0.0 and reps[0].passed and reps[0].marginal


def test_extension_bound_scales_linearly():
    rng = np.random.default_rng(3)
    a = random_ball_metric(1, rng)
    b = random_ball_metric(1, rng)

    def doubled(x):
        return a(x) + 2.0 * (b(x) - a(x))

    from warpforce.model import ball_domain
    b2x = Field(ball_domain(1), doubled, analytic=True, shape=(1, 1))
    r = check_lemma_3_1(a, b, 0.4, CH)
    r2 = check_lemma_3_1(a, b2x, 0.4, CH)
    assert r2.lhs == pytest.approx(2.0 * r.lhs, rel=1e-9)
    assert r2.rhs == pytest.approx(2.0 * r.rhs, rel=1e-9)


def test_slice_extension_trivial_exact_zero():
    r = check_lemma_3_2(hyperbolic_model(CH), 0.0)
    assert r.lhs == 0.0 and r.rhs == 0.0 and r.passed and r.marginal


def test_slice_extension_sweep_passes():
    rng = np.random.default_rng(9)
    g = random_close_metric(CH, rng)
    for s in (-1.5, -0.4, 0.0, 0.8, 1.5):
        assert check_lemma_3_2(g, s).passed


def test_slice_extension_rejects_outside_window():
    with pytest.raises(DomainError):
        check_lemma_3_2(hyperbolic_model(CH), 2.5)


# ---------------------------------------------------------------------------
# blending


def test_blend_trivial_exact_zero():
    sigma = hyperbolic_model(CH)
    r = check_lemma_1_1(sigma, sigma, unit_lambda(CH))
    assert r.lhs == 0.0 and r.rhs == 0.0 and r.passed and r.marginal


def test_blend_constant_half():
    rng = np.random.default_rng(21)
    g1 = random_close_metric(CH, rng)
    g2 = random_close_metric(CH, rng)
    half = Field(CH.domain, lambda p: np.full(len(p), 0.5), analytic=True)
    r = check_lemma_1_1(g1, g2, half)
    assert r.passed
    assert r.params["lam_norm"] == pytest.approx(0.5)


def test_blend_bump_weight():
    """Blend weight from the plateau profile, fields of rewarped type."""
    rng = np.random.default_rng(22)
    g1 = random_close_metric(CH, rng, amplitude=0.1)
    g2 = apply_warp(g1, WarpFunction(4.0))
    from warpforce.model import profile_scalar
    # the lift of rho's own jet along t, which the hand-written jet spelled out
    lam = profile_scalar(CH.domain, BumpFunction().shifted(-1.2))
    r = check_lemma_1_1(g1, g2, lam)
    assert r.passed and r.lhs > 0.0


# ---------------------------------------------------------------------------
# suites and registry


def test_registry_names():
    names = available_checks()
    for want in ("lemma1.1", "lemma2.1", "lemma2.2", "lemma2.3",
                 "lemma3.1", "lemma3.2", "theorem", "all"):
        assert want in names


def test_registry_rejects_unknown():
    with pytest.raises(ValueError, match="unknown check"):
        run_check("lemma9.9")


def test_suites_deterministic_under_seed():
    a = run_check("lemma1.1", seed=3, instances=4)
    b = run_check("lemma1.1", seed=3, instances=4)
    c = run_check("lemma1.1", seed=4, instances=4)
    assert [r.lhs for r in a] == [r.lhs for r in b]
    assert [r.lhs for r in a] != [r.lhs for r in c]


def test_suite_splits_instances_across_excess_values():
    reps = run_check("lemma3.2", seed=0, instances=5, xi_values=(1.0, 1.5))
    random = [r for r in reps if r.params.get("instance") != "trivial"]
    assert len(random) == 5
    assert {r.params["xi"] for r in random} == {1.0, 1.5}


def test_all_suites_pass_small():
    reps = run_check("all", seed=1, instances=6,
                     config={"centers_per_zone": 2})
    assert all(r.passed for r in reps)


# ---------------------------------------------------------------------------
# deformation audit


@pytest.fixture(scope="module")
def small_audit():
    m = perturbed_hyperbolic(n=2, amplitude=1e-3, r_range=(0.05, 16.0))
    return check_main_theorem(m, 4.0, 1.5, centers_per_zone=3, seed=2)


def test_audit_passes_and_counts_zones(small_audit):
    inst = small_audit
    assert inst.passed
    assert inst.case_counts == {1: 3, 2: 3, 3: 3}
    assert len(inst.reports) == 9
    assert inst.eps > 0.0
    assert inst.bound == pytest.approx(
        np.exp(16.0 + 6.0 * 1.5) * (np.exp(-8.0) + inst.eps))


def test_audit_chart_excess_is_reduced_by_one(small_audit):
    for r in small_audit.reports:
        assert r.params["excess"] == 0.5


def test_audit_case1_eta_equals_eps_exactly(small_audit):
    case1 = [r for r in small_audit.reports if r.params["case"] == 1]
    assert case1
    for r in case1:
        assert r.lhs == r.params["eps_center"]


def test_audit_case3_actually_blends(small_audit):
    case3 = [r for r in small_audit.reports if r.params["case"] == 3]
    inner = min(case3, key=lambda r: r.params["t0"])
    assert inner.lhs != inner.params["eps_center"]


def test_audit_guard_recorded(small_audit):
    assert small_audit.decay_constant <= small_audit.guard_constant
    assert "guard" in small_audit.notes
    assert small_audit.eta_max >= max(r.lhs for r in small_audit.reports)


def test_audit_to_json_roundtrips(small_audit):
    blob = json.dumps(small_audit.to_json())
    back = json.loads(blob)
    assert back["r0"] == 4.0 and len(back["reports"]) == 9


def test_audit_zone_classification():
    rng = np.random.default_rng(0)
    # case 1 lies beyond r0 + 1/2 + (1 + xi), case 2 beyond r0 + 1/2 + xi
    for t0, _, case in theorem_centers(5.0, 1.5, (0.05, 16.0), 4, rng):
        if t0 > 5.0 + 0.5 + (1.0 + 1.5):
            assert case == 1
        elif t0 > 5.0 + 0.5 + 1.5:
            assert case == 2
        else:
            assert case == 3


def test_audit_rejects_bad_geometry():
    m = punctured_hyperbolic(2, r_range=(0.05, 9.0))
    with pytest.raises(DomainError):
        check_main_theorem(m, 4.0, 1.5, centers_per_zone=2, seed=0)
    with pytest.raises(ValueError):
        check_main_theorem(m, 4.0, 1.0, centers_per_zone=2, seed=0)
    with pytest.raises(ValueError):
        check_main_theorem(m, 2.0, 1.5, centers_per_zone=2, seed=0)


def test_audit_chart_misfit_becomes_error_entry(monkeypatch):
    import warpforce.verify as V
    real = V.radial_chart

    def flaky(manifold, t0, **kw):
        if t0 < 3.0:
            raise DomainError("synthetic misfit")
        return real(manifold, t0, **kw)

    monkeypatch.setattr(V, "radial_chart", flaky)
    m = perturbed_hyperbolic(n=2, amplitude=1e-3, r_range=(0.05, 16.0))
    inst = check_main_theorem(m, 4.0, 1.5, centers_per_zone=3, seed=2)
    errs = [r for r in inst.reports if "synthetic misfit" in r.notes]
    assert errs and not inst.passed
    assert len(inst.reports) == 9  # instance still reports every center
    for r in errs:
        assert np.isnan(r.lhs) and not r.passed


def test_theorem_config_from_dict():
    cfg = TheoremConfig.from_dict({"r0_values": [5.0], "xi": 1.2,
                                   "grid": {"points_per_axis": 32}})
    assert cfg.r0_values == (5.0,) and cfg.grid.points_per_axis == 32
    assert json.dumps(cfg.to_json())


# ---------------------------------------------------------------------------
# decay demonstration and FD oracle


def test_remark_decay_rows():
    rows = remark_decay(t0_values=(5.0, 6.0, 7.0))
    assert [r["t0"] for r in rows] == [5.0, 6.0, 7.0]
    assert np.isnan(rows[0]["ratio_to_prev"])
    for row in rows[1:]:
        assert abs(row["ratio_to_prev"] - np.exp(-2.0)) < 0.01


def test_fd_oracle_on_synthetic_metric():
    g = random_close_metric(CH, np.random.default_rng(7))
    rep = fd_oracle_check(g)
    assert rep["passed"]
    assert rep["errors"][1e-4]["d2"] < rep["errors"][4e-4]["d2"]


def test_fd_oracle_on_generator_fields():
    rng = np.random.default_rng(13)
    assert fd_oracle_check(random_lambda(CH, rng))["passed"]
    assert fd_oracle_check(random_ball_metric(1, rng))["passed"]


def test_fd_oracle_requires_jet():
    bare = Field(CH.domain, lambda p: np.exp(p[:, 1]))
    with pytest.raises(WarpforceError):
        fd_oracle_check(bare)
