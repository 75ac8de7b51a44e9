import dataclasses
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from warpforce import cli, model
from warpforce.model import (
    ChartModel,
    DomainError,
    Field,
    GridSpec,
    Jet,
    RadialMetric,
    WarpforceError,
    c2_norm,
    difference,
    hyperbolic_model,
    interval_domain,
    profile_scalar,
)
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
from warpforce.warpcore import BumpFunction, WarpFunction, apply_warp, \
    blend, radial_slice, warp_force, warped_extension
from warpforce.verify import (
    CSV_COLUMNS,
    TheoremConfig,
    _Stream,
    _angular_center,
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
    read_document,
    run_check,
    run_theorem_sweep,
    available_checks,
    seeded_reports,
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
    # |margin| decides: a FAIL within 3x its estimate is marginal, a clear
    # FAIL is not (every finite FAIL was, its margin being negative)
    assert make_report("x", {}, 2.0, 1.0, 0.4, g, "jet").marginal
    clear = make_report("lemma1.1", {}, 2.0, 1.0, 0.0, g, "analytic")
    assert not clear.passed and not clear.marginal


def test_error_report_schema():
    r = error_report("x", {"t0": 3.0}, GridSpec(), "chart misfit")
    assert not r.passed and np.isnan(r.lhs) and "chart misfit" in r.notes


def test_csv_rows_columns_and_params_roundtrip():
    reps = run_check("lemma2.1", {"lemma2.1": {"t0_values": [3.0]}})
    rows = reports_to_csv_rows(reps)
    assert list(rows[0].keys()) == CSV_COLUMNS
    assert json.loads(rows[0]["params"])["t0"] == 3.0
    assert rows[0]["passed"] == "true"


def test_measured_with_error_fd_proxy():
    sigma = hyperbolic_model(CH)
    bare = Field(CH.domain, lambda p: np.exp(2.0 * p[:, 1]))
    ((full, err),) = measured_with_error([bare], CH.grid)
    assert full.derivative_source == "finite-difference"
    assert err >= 3e-6 * full.value
    ((_, err_jet),) = measured_with_error([difference(sigma, sigma)], CH.grid)
    assert err_jet == 0.0


def _assert_merged_probe_is_two_norms(fields, spec):
    together = measured_with_error(fields, spec)
    walk = model._c2_norms(fields, (spec, spec.halved()))
    assert len(together) == len(walk) == len(fields)
    for f, (full, err), both in zip(fields, together, walk):
        # each field's norm, error and source are its one-field walk's
        assert measured_with_error([f], spec) == [(full, err)]
        alone = c2_norm(f, spec)
        half = c2_norm(f, spec.halved())
        assert full == alone        # value, per_order_sups, grid, source
        assert list(full.per_order_sups) == list(alone.per_order_sups)
        assert err == abs(alone.value - half.value) / 3.0 + (
            3e-6 * alone.value
            if alone.derivative_source == "finite-difference" else 0.0)
        # the probe's own sups, bitwise: read them back through the walk
        assert both == [alone, half]


def test_merged_probe_is_bitwise_two_norms_on_an_n2_chart():
    g = random_close_metric(CH, np.random.default_rng(3))
    _assert_merged_probe_is_two_norms(
        [difference(apply_warp(g, WarpFunction(3.0)), hyperbolic_model(CH))],
        GridSpec())


def test_merged_probe_is_bitwise_one_field_walks_of_mixed_fields():
    # analytic fields that share g walk together with an FD field, one
    # stencil piece (1,820 rows) a step, across a piece that ends the N
    # grid and begins the N/2 grid (8281 + 2025 rows)
    g = random_close_metric(CH, np.random.default_rng(5))
    sigma = hyperbolic_model(CH)
    fd = Field(CH.domain, lambda p: np.exp(2.0 * p[:, 1]) * np.cos(p[:, 0]),
               name="fd")
    fields = [difference(apply_warp(g, WarpFunction(3.0)), sigma), fd,
              difference(g, sigma), g]
    assert [f.has_jet for f in fields] == [True, False, True, True]
    _assert_merged_probe_is_two_norms(fields, GridSpec(points_per_axis=91))


def test_merged_probe_is_bitwise_two_norms_on_the_decay_interval():
    window = interval_domain(0.0, 20.0)
    f = difference(profile_scalar(window, WarpFunction(3.0)),
                   Field(window, lambda p: np.full(len(p), 1.0),
                         analytic=True))
    spec = GridSpec(points_per_axis=4001)
    assert len(window.grid(spec)) + len(window.grid(spec.halved())) \
        == 4001 + 2000
    _assert_merged_probe_is_two_norms([f], spec)


def test_merged_probe_is_bitwise_two_norms_across_a_chunk_boundary():
    m = perturbed_hyperbolic(n=3)
    spec = GridSpec(points_per_axis=24)
    rc = radial_chart(m, 6.0, xi=0.5, grid=spec)
    f = difference(pullback(rc, m.metric), hyperbolic_model(rc.chart))
    assert not f.has_jet
    n_full = len(f.domain.grid(spec))
    # the N grid ends in a partial chunk, and the two grids need two chunks
    assert n_full % model._CHUNK and n_full > model._CHUNK
    _assert_merged_probe_is_two_norms([f], spec)


def test_merged_probe_grids_that_share_a_chunk_evaluate_once():
    calls = []

    def fn(p):
        calls.append(len(p))
        return np.exp(p[:, -1])

    f = Field(CH.domain, fn, analytic=True)
    spec = GridSpec(points_per_axis=80)      # 6400 + 1600 rows
    measured_with_error([f], spec)
    assert calls == [6400 + 1600]
    del calls[:]
    measured_with_error([f], GridSpec(points_per_axis=91))  # 8281 + 2025
    assert calls == [8192, 89 + 2025]   # a chunk ends N and begins N/2
    # an n = 3 chart shares by its ball-masked rows, not by 20^3 + 10^3
    del calls[:]
    n3 = ChartModel(n=3, xi=0.5)
    spec = GridSpec(points_per_axis=20)
    measured_with_error([Field(n3.domain, fn, analytic=True)], spec)
    assert calls == [6120] == [len(n3.grid_points(spec))
                               + len(n3.grid_points(spec.halved()))]


def test_merged_probe_error_is_the_fields_error():
    def fn(p):
        raise DomainError(f"refused a batch of {len(p)} points")

    f = Field(interval_domain(0.0, 1.0), fn, analytic=True, name="refuser")
    spec = GridSpec(points_per_axis=100)
    with pytest.raises(DomainError, match="^refused a batch of 100 points$"):
        c2_norm(f, spec)
    # the N and N/2 grids are one batch: the error is the field's, raised once
    with pytest.raises(DomainError, match="^refused a batch of 150 points$"):
        measured_with_error([f], spec)


def test_lemma_1_1_evaluates_lam_once_per_row_of_its_walk():
    # lam is listed after the blend that contains it, so its norm reads the
    # blend's evaluation from the chunk's memo
    rows = []
    ch = ChartModel(n=2, xi=1.0, grid=GridSpec(points_per_axis=16))

    def fn(p):
        rows.append(len(p))
        return 0.5 + 0.25 * np.sin(p[:, 0])

    lam = Field(ch.domain, fn, analytic=True)
    g1, g2 = (random_close_metric(ch, np.random.default_rng(s))
              for s in (1, 2))
    assert check_lemma_1_1(g1, g2, lam).passed
    assert rows == [16 ** 2 + 8 ** 2]


def test_lemma_2_3_evaluates_g_once_per_row_of_its_walk():
    # its three norms walk the N and N/2 grids together, so g sees each of
    # their rows once, though they span three chunks
    rows = []
    chart = ChartModel(n=2, xi=1.0, grid=GridSpec(points_per_axis=128))

    def spatial(p):
        rows.append(len(p))
        return (np.exp(2.0 * p[:, -1])
                * (1.0 + 0.1 * np.sin(p[:, 0])))[:, None, None]

    g = RadialMetric.on_chart(chart, spatial, analytic=True)
    assert all(r.passed for r in check_lemma_2_3(g, 3.0))
    assert sum(rows) == 128 ** 2 + 64 ** 2 == 20480


def test_reports_walk_a_field_named_under_two_keys_once(monkeypatch):
    # a finite-difference field, which no chunk memo shares: named twice,
    # it still takes one stencil per piece, and both keys get its norm
    from warpforce import verify
    rows = []
    fd_jet = model._fd_jet
    monkeypatch.setattr(model, "_fd_jet", lambda f, pts, h: (
        rows.append(len(pts)) or fd_jet(f, pts, h)))
    spec = GridSpec(points_per_axis=16)
    f = Field(CH.domain, lambda p: np.sin(p[:, 0]) * np.exp(p[:, 1]))
    (alone,) = verify._reports([{"a": f}], spec,
                               [("x", "a", lambda n: 1e3)], {}, ("a",))
    once = list(rows)
    assert sum(once) == 16 ** 2 + 8 ** 2
    rows.clear()
    (twice,) = verify._reports([{"a": f, "b": f}], spec,
                               [("x", "a", lambda n: 1e3)], {}, ("a", "b"))
    assert rows == once
    assert twice.params == {"a": alone.lhs, "b": alone.lhs}
    assert twice.error_estimate == alone.error_estimate


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


@pytest.mark.parametrize("t0", [1e308, float("inf"), float("nan")])
def test_decay_bound_refuses_a_window_that_is_not_finite(t0):
    # 14 + 2e308 built the window [0, inf], warned "invalid value
    # encountered in multiply" and measured lhs = nan
    with pytest.raises(ValueError, match="lemma2.1 t0 must keep the window"):
        check_lemma_2_1(t0)


@pytest.mark.parametrize("t0", [2.1, 2.5, 3.0, 4.0, 6.0, 8.0])
def test_decay_field_and_its_sup_are_the_closed_form(t0):
    # nu = u^2 with u = (1 - a e^{-2t}) / (1 - a), a = e^{-2 t0}, is
    # (e^{-t} sinh(t + t0) / sinh t0)^2; u' = 2 a e^{-2t} / (1 - a) and
    # u'' = -2 u'.  Seen: at most 4.6e-16 off, sup 7.5e-17 off.
    window = interval_domain(0.0, 14.0 + 2.0 * t0)
    f = difference(profile_scalar(window, WarpFunction(t0)),
                   Field(window, lambda p: np.ones(len(p)), analytic=True))
    t = window.grid(GridSpec(points_per_axis=4001))
    a = np.exp(-2.0 * t0)
    e = a * np.exp(-2.0 * t[:, 0])
    u, u1 = (1.0 - e) / (1.0 - a), 2.0 * e / (1.0 - a)
    want = (u * u - 1.0, 2.0 * u * u1, 2.0 * (u1 * u1 - 2.0 * u * u1))
    v, d1, d2 = f.jet(t)
    for got, w in zip((v, d1[:, 0], d2[:, 0, 0]), want):
        assert np.abs(got - w).max() <= 2e-15
    sup = max(np.abs(want[0]).max(), np.abs(want[1]).max(),
              0.5 * np.abs(want[2]).max())
    assert abs(check_lemma_2_1(t0).lhs - sup) <= 1e-15


@pytest.mark.parametrize("t0", [2.1, 2.5, 3.0, 4.0, 6.0, 8.0])
def test_decay_derivatives_are_the_closed_form_to_rounding(t0):
    # relative gates: far out in the window nu' = 2 u u' and
    # nu'' = 2 u' (u' - 2 u) are tiny, and forming q' as 2 (1 - q) from
    # q = 1 - e^{-2(t + t0)} cancelled (nu' read exactly 0 there, and the
    # sup 4a / (1 - a), at t = 0, was 1.3e-10 off for t0 = 8).  Seen: at
    # most 7.6e-15 off, the sup 2.3e-16 off.
    window = interval_domain(0.0, 14.0 + 2.0 * t0)
    t = window.grid(GridSpec(points_per_axis=4001))
    a = np.exp(-2.0 * t0)
    e = a * np.exp(-2.0 * t[:, 0])
    u, u1 = (1.0 - e) / (1.0 - a), 2.0 * e / (1.0 - a)
    _, d1, d2 = profile_scalar(window, WarpFunction(t0)).jet(t)
    for got, w in ((d1[:, 0], 2.0 * u * u1),
                   (d2[:, 0, 0], 2.0 * u1 * (u1 - 2.0 * u))):
        assert np.abs(got / w - 1.0).max() <= 1e-14
    assert abs(check_lemma_2_1(t0).lhs / (4.0 * a / (1.0 - a)) - 1.0) \
        <= 1e-15


# ---------------------------------------------------------------------------
# warp comparison and sinh rewarping


def test_warp_comparison_trivial_exact_zero():
    reps = run_check("lemma2.2", {"instances": 0})
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
    reps = run_check("lemma3.1", {"instances": 0})
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
    rho = BumpFunction()
    lam = profile_scalar(CH.domain, lambda t: rho(t + 1.2))
    r = check_lemma_1_1(g1, g2, lam)
    assert r.passed and r.lhs > 0.0


def test_blend_evaluates_lambda_once_per_grid():
    # lam_norm is the N-grid norm of the (N, N/2) walk that the blend's
    # norm walks again, so the blend finds lam's values in its memo
    rng = np.random.default_rng(23)
    g1 = random_close_metric(CH, rng)
    g2 = random_close_metric(CH, rng)
    calls = []
    lam = Field(CH.domain, lambda p: calls.append(len(p))
                or 0.5 + 0.5 * np.sin(0.3 + p[:, 0] - p[:, 1]), analytic=True)
    r = check_lemma_1_1(g1, g2, lam)
    assert calls == [64 * 64 + 32 * 32]
    assert r.params["lam_norm"] == c2_norm(lam, CH.grid).value


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


@pytest.mark.parametrize("doc,message", [
    ({"centers_per_zone": 2}, "unknown top-level key 'centers_per_zone'"),
    ({"bogus_key": 1}, "unknown top-level key 'bogus_key'"),
    ({"instances": -3}, "instances must be >= 0 (got -3)"),
    ({"instances": True}, "top-level instances must be an integer, got True"),
    ({"instances": 2.5}, "top-level instances must be an integer, got 2.5"),
    ({"xi_values": []}, "xi_values must be a non-empty list"),
], ids=["theorem-key", "bogus-key", "negative", "bool", "float", "no-xi"])
def test_run_check_refuses_what_the_cli_refuses(monkeypatch, doc, message):
    # the library reads the whole document as the CLI does: a misplaced
    # or unknown key ran the default 96-center sweep, -3 instances ran only
    # the trivial ones, and [] excess values would divide by zero
    from warpforce import verify
    calls = []
    for name in ("check_main_theorem", "_run_lemma_suite", "check_lemma_2_1"):
        monkeypatch.setattr(verify, name, lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError) as exc:
        run_check("all", doc)
    assert message in str(exc.value) and calls == []


@pytest.mark.parametrize("doc", [
    {"theorem": {"warp_speed": 9}}, {"manifold": {"kind": "nope"}},
    {"lemma3.2": {"bogus": 1}}, {"lemma2.1": {"t0_value": [5.0]}},
    {"xi_values": []}, {"t0_values": []}, {"lemma2.1": {"t0_values": [1e308]}},
], ids=["theorem-key", "manifold-kind", "lemma3.2-key", "lemma2.1-key",
        "no-xi", "no-t0", "t0-overflow"])
def test_every_check_refuses_a_bad_section_alike(monkeypatch, doc):
    # one read of the whole document: lemma2.1 ran its six passing reports
    # on each of these, which no part of that run read
    from warpforce import verify
    calls = []
    for name in ("check_main_theorem", "_run_lemma_suite", "check_lemma_2_1"):
        monkeypatch.setattr(verify, name, lambda *a, **k: calls.append(a))
    messages = set()
    for name in available_checks():
        with pytest.raises(ValueError) as exc:
            run_check(name, doc)
        messages.add(str(exc.value))
    assert len(messages) == 1 and calls == []


def test_read_document_reads_every_section():
    # each section becomes what its reader makes of it; the theorem's seed
    # and grid give way to the document's own, and `points` sets both grids
    doc = read_document({})
    assert doc["theorem"] == TheoremConfig() and doc["grid"] == GridSpec()
    assert doc["manifold"].kind == "punctured" and doc["manifold"].n == 2
    assert doc["lemma2.1"] == {"t0_values": (2.1, 2.5, 3.0, 4.0, 6.0, 8.0)}
    assert doc["lemma3.2"] == {} and doc["t0_values"] is None
    doc = read_document({"seed": 4, "grid": {"boundary_margin": 0.1},
                         "theorem": {"seed": 2, "r0_values": [5.0]}},
                        points=8)
    assert doc["theorem"].seed == 4 and doc["theorem"].r0_values == (5.0,)
    assert doc["theorem"].grid == doc["grid"] == GridSpec(8, 0.1)
    doc = read_document({"theorem": {"seed": 2,
                                     "grid": {"points_per_axis": 16}}})
    assert doc["seed"] == 0 and doc["grid"] == GridSpec()
    assert doc["theorem"].seed == 2 and doc["theorem"].grid == GridSpec(16)


def test_run_check_refuses_the_old_keywords():
    # a top-level {"t0_values": [3.0]} is demo-remark's key, so a config=
    # that meant the lemma2.1 section must not run its six default t0s
    with pytest.raises(TypeError):
        run_check("lemma2.1", config={"t0_values": [3.0]})


def test_seeded_lemma_rows_rebuild_from_their_reports(tmp_path, capsys):
    # a seeded row is a function of its suite, seed, instance, excess and
    # grid, all in its report: five rows per suite (both lemma2.3 parts)
    # rebuild bitwise from reports.json alone
    from warpforce.cli import main
    assert main(["verify", "all", "--grid", "8", "--instances", "10",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = {}
    for row in json.loads((tmp_path / "reports.json").read_text()):
        idx = row["params"].get("instance", "trivial")
        if idx != "trivial" and idx % 2 == 0:      # both excess values
            rows.setdefault((row["name"].split("(")[0], idx), []).append(row)
    assert sorted(len(want) for want in rows.values()) == [1] * 20 + [2] * 5
    for (suite, idx), want in rows.items():
        p = want[0]["params"]
        got = seeded_reports(suite, p["seed"], idx, p["xi"],
                             GridSpec(**want[0]["grid"]))
        assert json.dumps([r.to_json() for r in got]) == json.dumps(want)


def test_suites_deterministic_under_seed():
    a = run_check("lemma1.1", {"seed": 3, "instances": 4})
    b = run_check("lemma1.1", {"seed": 3, "instances": 4})
    c = run_check("lemma1.1", {"seed": 4, "instances": 4})
    assert [r.lhs for r in a] == [r.lhs for r in b]
    assert [r.lhs for r in a] != [r.lhs for r in c]


# every range a generator, a suite or the theorem's centers draw from
_DRAW_RANGES = [(0.02, 0.3), (0.5, 2.0), (-np.pi, np.pi), (-1.5, 1.5),
                (0.0, 0.5), (-0.6, 0.6), (0.4, 1.5), (0.0, 1.0),
                (-0.8, 0.8), (-0.5, 0.5), (0.8, 1.3), (-2.0, 2.0),
                (2.2, 8.0), (-1.0, 1.0), (3.55, 7.0)]


@pytest.mark.parametrize("shape", ["seed", "suite", "theorem", "wide"])
def test_seeded_stream_is_numpy_default_rng_bit_for_bit(shape):
    # the instances of a seed no longer depend on numpy.random: _Stream
    # replays default_rng(seed).uniform, scalar and sized draws in order
    seeds = {
        "seed": list(range(100)) + [2**32 - 1, 2**32, 2**40 + 9, 2**64,
                                    2**64 + 77, 2**100 + 3],
        "suite": [(s, zlib.crc32(name.encode()) & 0xFFFF, i)
                  for s in (0, 1, 7, 2**33) for name in
                  ("lemma1.1", "lemma2.2", "lemma2.3", "lemma3.1", "lemma3.2")
                  for i in range(8)],
        "theorem": [(s, int(r0 * 8)) for s in range(20)
                    for r0 in (4.0, 5.0, 6.0, 7.0, 4.5)],
        # more than the pool's 4 words: the words after the 4th are mixed
        # into every pool word
        "wide": [(s, 2**64 + s, 3, 2**96 - 1) for s in range(50)]
        + [tuple(range(k)) for k in range(5, 12)],
    }[shape]
    for seed in seeds:
        ours, oracle = _Stream(seed), np.random.default_rng(seed)
        for low, high in _DRAW_RANGES:
            assert ours.uniform(low, high).hex() == \
                oracle.uniform(low, high).hex(), seed
            assert [x.hex() for x in ours.uniform(low, high, size=3)] == \
                [x.hex() for x in oracle.uniform(low, high, size=3)], seed
        assert ours.uniform() == oracle.uniform()


@pytest.mark.parametrize("seed,error", [(-1, ValueError),
                                        ((3, -2), ValueError),
                                        (1.5, TypeError), ("7", TypeError)])
def test_seeded_stream_refuses_what_is_not_a_non_negative_int(seed, error):
    with pytest.raises(error):
        _Stream(seed)


_NO_NUMPY_RANDOM = """
import contextlib, io, sys
from warpforce import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["verify", "all", "--grid", "8", "--instances", "2",
              "--out", sys.argv[1]])
print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
"""


def test_a_run_never_imports_numpy_random(tmp_path):
    # numpy.random's import pulls in secrets, hashlib and libcrypto: 6 MB of
    # a bare `verify all` process's peak RSS
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_RANDOM, str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "[]\n"
    assert (tmp_path / "out" / "reports.csv").exists()


def test_suite_splits_instances_across_excess_values():
    reps = run_check("lemma3.2", {"seed": 0, "instances": 5,
                                  "xi_values": [1.0, 1.5]})
    random = [r for r in reps if r.params.get("instance") != "trivial"]
    assert len(random) == 5
    assert {r.params["xi"] for r in random} == {1.0, 1.5}


def _probed(f, spec):
    """f's norm on grid spec and its refinement-probe error, from two
    c2_norm calls of their own."""
    full = c2_norm(f, spec).value
    return full, abs(full - c2_norm(f, spec.halved()).value) / 3.0


def _expected_reports(check, args, kw):
    """(lhs, error estimate, params norms) of each report of the check
    called with args and kw: every norm and probe error measured alone,
    the estimate the lhs error plus err_k |d rhs / d n_k| over the rhs's
    norms n_k, the partial derivatives written out by hand."""
    if check == "check_lemma_2_1":
        (t0,) = args
        window = interval_domain(0.0, 14.0 + 2.0 * t0)
        one = Field(window, lambda p: np.ones(len(p)), analytic=True)
        lhs, err = _probed(difference(profile_scalar(
            window, WarpFunction(t0)), one), GridSpec(points_per_axis=4001))
        return [(lhs, err, {})]
    if check == "check_lemma_3_1":
        a, b, s, chart = args
        lhs, err = _probed(difference(warped_extension(a, s, chart),
                                      warped_extension(b, s, chart)),
                           chart.grid)
        eab, e_ab = _probed(difference(a, b), chart.grid)
        factor = 4.0 * np.exp(4.0 * (1.0 + chart.xi))
        return [(lhs, err + factor * e_ab, {"eps_ab": eab})]
    g = args[0]
    spec, sigma = g.chart.grid, hyperbolic_model(g.chart)
    if check == "check_lemma_1_1":
        g1, g2, lam = args
        (e1, err1), (e2, err2), (L, err_l) = (
            _probed(f, spec) for f in (difference(g1, sigma),
                                      difference(g2, sigma), lam))
        lhs, err = _probed(difference(blend(g1, g2, lam), sigma), spec)
        return [(lhs, err + 4.0 * (1.0 + L) * (err1 + err2)
                 + 4.0 * (e1 + e2) * err_l,
                 {"lam_norm": L, "eps1": e1, "eps2": e2})]
    s = args[1] if check == "check_lemma_3_2" else kw.get("s", 0.0)
    if check == "check_lemma_2_2":
        nu = args[1].shifted(s) if s != 0.0 else args[1]
        one = Field(g.domain, lambda p: np.ones(len(p)), analytic=True)
        N, err_n = _probed(difference(one, profile_scalar(g.domain, nu)),
                           spec)
        G, err_g = _probed(g, spec)
        lhs, err = _probed(difference(g, apply_warp(g, nu)), spec)
        return [(lhs, err + 4.0 * G * err_n + 4.0 * N * err_g,
                 {"nu_dev": N, "g_norm": G})]
    eps, err_e = _probed(difference(g, sigma), spec)
    if check == "check_lemma_3_2":
        ext = warped_extension(radial_slice(g, s), s, g.chart)
        lhs, err = _probed(difference(ext, sigma), spec)
        return [(lhs, err + 4.0 * np.exp(4.0 * (1.0 + g.chart.xi)) * err_e,
                 {"eps": eps})]
    t0 = args[1]
    h = apply_warp(g, WarpFunction(t0), s=s)
    (l1, err1), (l2, err2) = (_probed(difference(h, g), spec),
                              _probed(difference(h, sigma), spec))
    return [(l1, err1 + 21.0 * np.exp(-2.0 * t0) * err_e, {"eps": eps}),
            (l2, err2 + 21.0 * np.exp(2.0 * (1.0 + g.chart.xi)) * err_e,
             {"eps": eps})]


@pytest.mark.parametrize("name", ["lemma1.1", "lemma2.1", "lemma2.2",
                                  "lemma2.3", "lemma3.1", "lemma3.2"])
def test_error_estimate_carries_every_probe_error_into_the_rhs(
        name, monkeypatch):
    # every rhs is multilinear in its norms, so the first-order error of
    # the margin is the lhs probe error plus err_k |d rhs / d n_k| summed
    # over the norms n_k the rhs reads (lam's too, in lemma1.1)
    from warpforce import verify
    calls = []

    def recording(check, original):
        def wrapped(*args, **kw):
            out = original(*args, **kw)
            calls.append((check, args, kw,
                          out if isinstance(out, list) else [out]))
            return out
        return wrapped

    for check in ("check_lemma_1_1", "check_lemma_2_1", "check_lemma_2_2",
                  "check_lemma_2_3", "check_lemma_3_1", "check_lemma_3_2"):
        monkeypatch.setattr(verify, check,
                            recording(check, getattr(verify, check)))
    reports = run_check(name, {"instances": 3,
                               "grid": {"points_per_axis": 8}})
    # the suite runner adds the instance (and seed) to the check's params
    assert [r for *_, out in calls for r in out] == [dataclasses.replace(
        r, params={k: v for k, v in r.params.items()
                   if k not in ("instance", "seed")}) for r in reports]
    for check, args, kw, out in calls:
        want = _expected_reports(check, args, kw)
        assert len(out) == len(want)
        for r, (lhs, err, norms) in zip(out, want):
            assert r.lhs == lhs
            assert r.error_estimate == pytest.approx(err, rel=1e-12, abs=0)
            assert {k: r.params[k] for k in norms} == norms


def test_all_suites_pass_small():
    # centers_per_zone is a theorem key: 4 r0 x 3 zones x 2 centers
    reps = run_check("all", {"seed": 1, "instances": 6,
                             "theorem": {"centers_per_zone": 2}})
    assert all(r.passed for r in reps)
    assert sum(r.name == "theorem" for r in reps) == 24


def test_a_verify_all_pass_builds_each_grid_once(monkeypatch):
    # the grid cache holds what a pass walks again: at maxsize 2, or with
    # lemma2.1's windows walked between the suites, this pass built 14 or
    # 13 grids for its 11
    walked = set()
    cached = model._grid_rows
    monkeypatch.setattr(model, "_grid_rows", lambda domain, specs: (
        walked.add((domain, specs)) or cached(domain, specs)))
    cached.cache_clear()
    run_check("all", {"instances": 2}, points=8)
    assert len(walked) > cached.cache_info().maxsize
    assert cached.cache_info().misses == len(walked)


# ---------------------------------------------------------------------------
# deformation audit


@pytest.fixture(scope="module")
def small_audit():
    return check_main_theorem(TheoremConfig(
        xi=1.5, amplitude=1e-3, r_range=(0.05, 16.0), centers_per_zone=3,
        seed=2), 4.0)


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


def assert_eps_center_is_closeness(inst, manifold, spec, bump_delta=0.05):
    """Every report's eps_center equals g's closeness on its chart of grid
    spec, computed here.  Where the chart lies beyond the bump, eta's norm (recomputed as
    the audit takes it) equals that closeness key by key.  Returns how many
    charts lay beyond it."""
    g = manifold.metric
    bump = BumpFunction(delta=bump_delta)
    W = warp_force(g, inst.r0, bump)
    beyond = 0
    for r in inst.reports:
        p = r.params
        rc = radial_chart(manifold, p["t0"], xi=p["excess"],
                          y0=_angular_center(manifold.n, p["theta0"]),
                          grid=spec)
        want = radial_closeness(rc, g)
        assert p["eps_center"] == want.value
        ((eta, _),) = measured_with_error(
            [difference(pullback(rc, W), hyperbolic_model(rc.chart))], spec)
        assert r.lhs == eta.value
        floor = rc.chart.domain.bounds[-1][0] + rc.t0   # lowest radius
        if bump.vanishes_from(floor - inst.r0):
            assert list(eta.per_order_sups) == list(want.per_order_sups)
            assert eta == want          # value, every key, grid and source
            beyond += 1
        else:
            assert p["case"] == 3       # zones 1 and 2 lie beyond the bump
    return beyond


def test_eps_center_is_closeness_of_g_at_every_center(small_audit):
    m = perturbed_hyperbolic(n=2, amplitude=1e-3, r_range=(0.05, 16.0))
    assert assert_eps_center_is_closeness(small_audit, m, GridSpec()) >= 6


def test_eps_center_is_closeness_of_g_on_the_n3_golden_sweep():
    cfg = TheoremConfig(n=3, r0_values=(5.0,), centers_per_zone=1,
                        grid=GridSpec(points_per_axis=8))
    (inst,) = run_theorem_sweep(cfg)
    assert assert_eps_center_is_closeness(inst, cfg.manifold(),
                                          cfg.grid) == 2


def count_walks(monkeypatch):
    """The fields of each norm walk of verify's report runner, a list per
    walk, as the audit goes on."""
    from warpforce import verify
    walks, measured = [], verify.measured_with_error
    monkeypatch.setattr(verify, "measured_with_error", lambda fields, spec: (
        walks.append(list(fields)) or measured(fields, spec)))
    return walks


@pytest.mark.parametrize("below", [False, True], ids=["edge", "one-below"])
def test_eps_center_at_the_edge_of_the_bump(monkeypatch, below):
    # the chart's lowest radius exactly at r0 + support_end, or one float
    # below it: the audit's one walk takes eta alone at the first and eta
    # and g at the second, and both give g's closeness
    from warpforce import verify
    r0, xi = 4.0, 1.5
    bump = BumpFunction()
    lo = -(1.0 + (xi - 1.0))            # the measurement chart's lower t
    edge = r0 + bump.support_end
    t0 = edge - lo
    assert lo + t0 == edge
    if below:
        t0 = np.nextafter(t0, -np.inf)
        assert lo + t0 == np.nextafter(edge, -np.inf)
    assert bump.vanishes_from(lo + t0 - r0) != below
    monkeypatch.setattr(verify, "theorem_centers",
                        lambda *a: [(float(t0), 0.25, 3)])
    walks = count_walks(monkeypatch)
    m = perturbed_hyperbolic(n=2)
    cfg = TheoremConfig(xi=xi, centers_per_zone=1,
                        grid=GridSpec(points_per_axis=16))
    inst = check_main_theorem(cfg, r0)
    assert [len(fields) for fields in walks] == [1 + below]
    (r,) = inst.reports
    rc = radial_chart(m, t0, xi=xi - 1.0, y0=(0.25,), grid=cfg.grid)
    assert r.params["eps_center"] == radial_closeness(rc, m.metric).value


def test_n3_golden_sweep_walks_g_once(monkeypatch):
    # every center is one walk; only the zone-3 chart, which reaches into
    # the bump, walks g beside eta, and the others take eps_center from
    # eta (2,352 FD base rows in six walks before PR 17 reused eta, and
    # 1,840 in four while g's zone-3 field took no N/2 probe)
    rows = []
    walks = count_walks(monkeypatch)
    fd_jet = model._fd_jet
    monkeypatch.setattr(model, "_fd_jet", lambda f, pts, spec: (
        rows.append(len(pts)) or fd_jet(f, pts, spec)))
    (inst,) = run_theorem_sweep(TheoremConfig(
        n=3, r0_values=(5.0,), centers_per_zone=1,
        grid=GridSpec(points_per_axis=8)))
    assert [len(fields) for fields in walks] == [
        2 if r.params["case"] == 3 else 1 for r in inst.reports]
    assert len(walks) == 3
    assert sum(rows) == 1856


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


def test_to_json_is_the_dataclass_deep_copy(small_audit):
    want = dataclasses.asdict(small_audit)
    want["reports"] = list(want.pop("reports"))
    got = small_audit.to_json()
    assert got == want and list(got) == list(want)
    assert [list(r) for r in got["reports"]] == \
        [list(r) for r in want["reports"]]
    # a copy: editing it leaves the instance and its reports as they were
    got["reports"][0]["params"]["t0"] = -1.0
    got["case_counts"][1] = -1
    assert small_audit.reports[0].params["t0"] != -1.0
    assert small_audit.case_counts[1] == 3
    r = check_lemma_2_1(3.0)
    got = r.to_json()
    assert got == dataclasses.asdict(r)
    got["params"]["window"].append(1.0)
    assert len(r.params["window"]) == 2


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
    r_range = (0.05, 9.0)
    with pytest.raises(DomainError):
        check_main_theorem(TheoremConfig(
            xi=1.5, r_range=r_range, centers_per_zone=2), 4.0)
    with pytest.raises(ValueError):
        check_main_theorem(TheoremConfig(
            xi=1.0, r_range=r_range, centers_per_zone=2), 4.0)
    with pytest.raises(ValueError):
        check_main_theorem(TheoremConfig(
            xi=1.5, r_range=r_range, centers_per_zone=2), 2.0)


def test_audit_refuses_a_vacuous_sweep():
    with pytest.raises(ValueError, match="centers_per_zone"):
        check_main_theorem(TheoremConfig(
            xi=1.5, centers_per_zone=0, grid=GridSpec(points_per_axis=8)),
            5.0)
    with pytest.raises(ValueError, match="r0 value"):
        run_theorem_sweep(TheoremConfig(r0_values=()))


def test_nan_samples_make_the_norm_nan_and_the_check_fail():
    # Python's max(sup, nan) keeps sup, which read this field as 0.0
    ch = ChartModel(n=2)
    f = Field(ch.domain, lambda p: np.where(p[:, 1] > 0, np.nan, 5.0))
    with np.errstate(invalid="ignore"):
        nrm = c2_norm(f, ch.grid)
        ((full, err),) = measured_with_error([f], ch.grid)
    assert np.isnan(nrm.value)
    assert all(np.isnan(v) for v in nrm.per_order_sups.values())
    assert np.isnan(full.value)
    r = make_report("nan", {}, full.value, 1.0, err, full.grid,
                    full.derivative_source)
    assert not r.passed and not r.marginal


def test_audit_nan_closeness_fails_the_sweep(monkeypatch):
    g = perturbed_hyperbolic(2).metric

    def spatial(p):
        return np.where(p[:, -1, None, None] > 6.5, np.nan, g.spatial(p))

    m = CenteredManifold(RadialMetric(g.domain, spatial), kind="perturbed")
    monkeypatch.setattr(TheoremConfig, "manifold", lambda cfg: m)
    cfg = TheoremConfig(xi=1.5, centers_per_zone=1,
                        grid=GridSpec(points_per_axis=8))
    with np.errstate(invalid="ignore"):
        inst = check_main_theorem(cfg, 5.0)
    assert np.isnan(inst.eps) and np.isnan(inst.eta_max)
    assert np.isnan(inst.decay_constant) and not inst.passed
    assert not any(r.passed or r.marginal for r in inst.reports)


def test_audit_chart_misfit_becomes_error_entry(monkeypatch):
    import warpforce.verify as V
    real = V.radial_chart

    def flaky(manifold, t0, **kw):
        if t0 < 3.0:
            raise DomainError("synthetic misfit")
        return real(manifold, t0, **kw)

    monkeypatch.setattr(V, "radial_chart", flaky)
    inst = check_main_theorem(TheoremConfig(
        xi=1.5, amplitude=1e-3, r_range=(0.05, 16.0), centers_per_zone=3,
        seed=2), 4.0)
    errs = [r for r in inst.reports if "synthetic misfit" in r.notes]
    assert errs and not inst.passed
    assert len(inst.reports) == 9  # instance still reports every center
    for r in errs:
        assert np.isnan(r.lhs) and not r.passed


def test_main_theorem_n3_end_to_end():
    # the config alone names the n = 3 manifold, and every n = 3 norm is a
    # finite-difference norm of an exp-map pullback; eps and eta_max were
    # recorded from the einsum sandwich that ran the exp map at every
    # stencil point
    inst = check_main_theorem(TheoremConfig(
        n=3, xi=1.5, centers_per_zone=1, grid=GridSpec(points_per_axis=8)),
        5.0)
    assert inst.passed and len(inst.reports) == 3
    assert all(r.derivative_source == "finite-difference"
               for r in inst.reports)
    assert inst.eps == pytest.approx(0.009297131953189819, rel=1e-9)
    assert inst.eta_max == pytest.approx(0.0013963645055052134, rel=1e-9)


def test_n3_eta_holds_when_the_fd_step_doubles(monkeypatch):
    # the zone-1 chart of this sweep (t0 = 9.635) read eta = 7.105e-7 at
    # model._FD_STEP and 5.894e-7 at twice and four times the step when the
    # pullback was a Jacobian sandwich: a one-ulp event divided by h^2.
    # The closed-form pullback reads 5.894e-7 at all three steps.
    cfg = TheoremConfig(n=3, centers_per_zone=1, seed=17,
                        grid=GridSpec(points_per_axis=32))

    def zone_1():
        (r,) = [r for r in check_main_theorem(cfg, 5.0).reports
                if r.params["case"] == 1]
        return r

    at_h = zone_1()
    assert at_h.params["t0"] == pytest.approx(9.635, abs=1e-3)
    monkeypatch.setattr(model, "_FD_STEP", 2 * model._FD_STEP)
    assert zone_1().lhs == pytest.approx(at_h.lhs, rel=0.01)


def test_the_config_describes_the_manifold_it_audits():
    # cfg.manifold() is the one place a config becomes a manifold, and the
    # constructors' signatures hold the defaults of its fields
    fields = {"n": 3, "amplitude": 0.01, "sphere_mode": 2,
              "radial_center": 6.0, "radial_width": 1.0,
              "r_range": (0.1, 15.0)}
    m = TheoremConfig(**fields).manifold()
    assert m.kind == "perturbed" and m.n == 3
    assert m.params == fields | {"r_range": [0.1, 15.0]}
    cfg = TheoremConfig()
    assert cfg.manifold().params == perturbed_hyperbolic().params
    assert cfg.bump_delta == BumpFunction().delta


def test_theorem_config_from_dict():
    cfg = TheoremConfig.from_dict({"r0_values": [5.0], "xi": 1.2,
                                   "grid": {"points_per_axis": 32}})
    assert cfg.r0_values == (5.0,) and cfg.grid.points_per_axis == 32


@pytest.mark.parametrize("read,what", [
    (manifold_from_config, "manifold"),
    (TheoremConfig.from_dict, "theorem"),
    (lambda sec: run_check("lemma2.1", {"lemma2.1": sec}), "lemma2.1"),
    (lambda sec: run_check("lemma3.2", {"lemma3.2": sec}), "lemma3.2"),
], ids=["manifold", "theorem", "lemma2.1", "lemma3.2"])
def test_config_objects_refuse_unknown_keys_alike(read, what):
    # one reader: the same message names the object, the key and the keys
    # that the object knows
    with pytest.raises(ValueError,
                       match=rf"^unknown {what} key 'warp_speed'; known: "):
        read({"warp_speed": 9})
    with pytest.raises(ValueError,
                       match=rf"^{what} config must be an object, got 9$"):
        read(9)


# ---------------------------------------------------------------------------
# decay demonstration and FD oracle


def test_remark_decay_rows():
    rows = remark_decay(t0_values=(5.0, 6.0, 7.0))
    assert [r["t0"] for r in rows] == [5.0, 6.0, 7.0]
    assert np.isnan(rows[0]["ratio_to_prev"])
    for row in rows[1:]:
        assert abs(row["ratio_to_prev"] - np.exp(-2.0)) < 0.01


def test_remark_rows_are_the_closed_form():
    # on the n=2 punctured chart (excess 1, t in [-t_max, t_max] on the
    # inset grid) the field pullback - sigma is f = e^{-4 t0 - 2t} -
    # 2 e^{-2 t0} whatever x is, so |f'| = |f''| / 2 = 2 e^{-4 t0 - 2t}.
    # The norm forms f as a difference of two blocks of size e^{2t}, so the
    # gate is absolute, in units of eps e^{2 t_max}: 8.9 seen (dt and dtdt
    # at t0 = 9), where f' itself is 2.2e-14.
    rows = remark_decay()
    m = punctured_hyperbolic(2, r_range=(0.05, max(r["t0"] for r in rows)
                                          + 2.5))
    t_max = 2.0 * (1.0 - 2.0 * 0.02)
    t = np.linspace(-t_max, t_max, 64)
    unit = np.finfo(float).eps * np.exp(2.0 * t_max)
    for row in rows:
        t0 = row["t0"]
        e = np.exp(-4.0 * t0 - 2.0 * t)
        want = {"1": np.abs(e - 2.0 * np.exp(-2.0 * t0)).max(),
                "dt": 2.0 * e.max(), "dtdt": 2.0 * e.max()}
        got = closeness_at(m, t0)
        assert got.value == row["eps"]
        assert {k: v for k, v in got.per_order_sups.items()
                if k not in want} == {"dx1": 0.0, "dx1dx1": 0.0,
                                      "dx1dt": 0.0}
        for key, w in want.items():
            assert abs(got.per_order_sups[key] - w) <= 16.0 * unit, (t0, key)


def test_fd_oracle_on_synthetic_metric():
    g = random_close_metric(CH, np.random.default_rng(7))
    rep = fd_oracle_check(g, CH.grid)
    assert rep["passed"]
    assert rep["errors"][1e-4]["d2"] < rep["errors"][4e-4]["d2"]


def test_fd_oracle_on_generator_fields():
    rng = np.random.default_rng(13)
    assert fd_oracle_check(random_lambda(CH, rng), CH.grid)["passed"]
    assert fd_oracle_check(random_ball_metric(1, rng), GridSpec())["passed"]


def test_fd_oracle_requires_jet():
    bare = Field(CH.domain, lambda p: np.exp(p[:, 1]))
    with pytest.raises(WarpforceError):
        fd_oracle_check(bare, CH.grid)


def test_generators_refuse_blocks_of_the_wrong_shape():
    # both generators write a 1 x 1 block; a k x k declaration must refuse
    # it instead of broadcasting it to the singular [[a, a], [a, a]]
    rng = np.random.default_rng(0)
    g = random_close_metric(ChartModel(n=3, grid=GridSpec(points_per_axis=8)),
                            rng)
    pts = g.domain.grid(g.chart.grid)
    at_jet = Jet.seed(pts)
    for call in (lambda: g(pts), lambda: g(at_jet), lambda: g.jet(pts),
                 lambda: g.spatial(pts), lambda: g.spatial(at_jet),
                 lambda: g.spatial_jet(pts)):
        with pytest.raises(WarpforceError, match="'synthetic'.*declared"):
            call()
    a = random_ball_metric(2, rng)
    y = a.domain.grid(GridSpec(points_per_axis=8))
    for call in (lambda: a(y), lambda: a(Jet.seed(y)), lambda: a.jet(y)):
        with pytest.raises(WarpforceError, match="'ball-metric'.*declared"):
            call()
    # the n = 2 instances the lemma suites draw keep their 1 x 1 blocks
    g2 = random_close_metric(CH, rng)
    assert g2.spatial(CH.grid_points()).shape[1:] == (1, 1)
    assert random_ball_metric(1, rng).jet(np.array([[0.3]]))[0].shape \
        == (1, 1, 1)
