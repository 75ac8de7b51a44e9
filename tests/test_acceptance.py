"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion is a single test so the verbose listing carries the verdicts too.
"""

import time

import numpy as np
import pytest

from warpforce.model import (
    ChartModel,
    Domain,
    GridSpec,
    c2_norm,
    hyperbolic_model,
)
from warpforce.manifold import (
    perturbed_hyperbolic,
    pullback,
    radial_chart,
)
from warpforce.warpcore import (
    BumpFunction,
    RadialMetric,
    WarpFunction,
    apply_warp,
    radial_slice,
    sinh_warped_cut,
    warp_force,
    warped_extension,
)
from warpforce.verify import (
    TheoremConfig,
    check_lemma_2_1,
    fd_oracle_check,
    remark_decay,
    run_check,
    run_theorem_sweep,
)

from polynomials import polynomial_scalar


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def constant_sinh_metric(H, r_lo=1.0, r_hi=4.0):
    H = np.asarray(H, dtype=float)
    k = H.shape[0]
    bounds = tuple((-1.2, 1.2) for _ in range(k)) + ((r_lo, r_hi),)
    names = tuple(f"y{i + 1}" for i in range(k)) + ("r",)
    dom = Domain(bounds=bounds, axis_names=names)

    def spatial(p):
        return np.sinh(p[:, -1])[:, None, None] ** 2 * H

    return RadialMetric(dom, spatial, analytic=True, name="sinh-warped")


def test_criterion_01_decay_constant_bound():
    worst_time = 0.0
    worst_margin_ratio = np.inf
    for t0 in (2.1, 2.5, 3.0, 4.0, 6.0, 8.0):
        t = time.time()
        r = check_lemma_2_1(t0)
        worst_time = max(worst_time, time.time() - t)
        ok = r.passed and r.margin > 3.0 * r.error_estimate
        if not ok:
            report(1, False, f"t0={t0}: lhs={r.lhs} rhs={r.rhs} "
                             f"err={r.error_estimate}")
        if r.error_estimate > 0:
            worst_margin_ratio = min(worst_margin_ratio,
                                     r.margin / r.error_estimate)
    report(1, worst_time <= 1.0,
           f"6 points < 5.2 e^(-2 t0), slowest {worst_time:.2f}s/point")


def test_criterion_02_lemma_suites():
    t_start = time.time()
    exact_zero_trivials = {"lemma1.1", "lemma2.2", "lemma3.1", "lemma3.2"}
    counts = {}
    for name in ("lemma1.1", "lemma2.2", "lemma2.3", "lemma3.1", "lemma3.2"):
        reps = run_check(name, {"seed": 0, "instances": 100,
                                "xi_values": [1.0, 1.5]})
        for r in reps:
            counts[r.name] = counts.get(r.name, 0) + 1
            if not r.passed:
                report(2, False, f"{r.name} {r.params} lhs={r.lhs} "
                                 f"rhs={r.rhs}")
        trivials = [r for r in reps if r.params.get("instance") == "trivial"]
        assert trivials, name
        for r in trivials:
            if name in exact_zero_trivials and r.lhs != 0.0:
                report(2, False, f"{name} trivial lhs={r.lhs} != 0")
            if name == "lemma2.3" and r.params["eps"] != 0.0:
                report(2, False, f"{name} trivial eps={r.params['eps']} != 0")
    elapsed = time.time() - t_start
    for key in ("lemma1.1", "lemma2.2", "lemma2.3(1)", "lemma2.3(2)",
                "lemma3.1", "lemma3.2"):
        assert counts[key] >= 100, (key, counts)
    report(2, elapsed <= 300.0,
           f"{sum(counts.values())} instance checks pass in {elapsed:.1f}s")


def test_criterion_03_fixed_point():
    worst = 0.0
    for H in (np.array([[1.0]]), np.array([[0.37]]), np.array([[2.6]])):
        g = constant_sinh_metric(H)
        W = warp_force(g, 2.5, BumpFunction())
        pts = g.domain.grid(GridSpec(points_per_axis=24))
        worst = max(worst, float(np.abs(W(pts) - g(pts)).max()))
    report(3, worst <= 1e-12,
           f"3 constant spatial factors, worst entrywise {worst:.2e}")


def test_criterion_04_plateau_exactness():
    m = perturbed_hyperbolic(2, amplitude=1e-3)
    g = m.metric
    r0, delta = 5.0, 0.05
    W = warp_force(g, r0, BumpFunction(delta=delta))
    bar = sinh_warped_cut(g, r0)
    pts = g.domain.grid(m.grid)
    r = pts[:, -1]
    inner = pts[r <= r0 + delta]
    outer = pts[r >= r0 + 0.5 - delta]
    assert len(inner) > 100 and len(outer) > 100
    d_in = float(np.abs(W(inner) - bar(inner)).max())
    d_out = float(np.abs(W(outer) - g(outer)).max())
    report(4, d_in == 0.0 and d_out == 0.0,
           f"inner plateau diff {d_in:.1e}, outer plateau diff {d_out:.1e} "
           f"on {len(inner)}+{len(outer)} points")


def test_criterion_05_pullback_identity():
    m = perturbed_hyperbolic(2, amplitude=1e-3)
    g = m.metric
    r0 = 5.0
    bar = sinh_warped_cut(g, r0)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(12):
        t0 = rng.uniform(3.3, 6.7)
        s = r0 - t0
        rc = radial_chart(m, t0, xi=1.5, y0=(rng.uniform(-1.0, 1.0),))
        lhs = pullback(rc, bar)
        cut = radial_slice(pullback(rc, g), s)
        rhs = apply_warp(warped_extension(cut, s, rc.chart),
                         WarpFunction(r0), s=s)
        pts = rc.chart.grid_points()
        worst = max(worst, float(np.abs(lhs(pts) - rhs(pts)).max()))
    report(5, worst <= 1e-10,
           f"12 random centers, worst entrywise {worst:.2e}")


def test_criterion_06_bump_certification():
    bump = BumpFunction(delta=0.05)
    report(6, bump.certified_c2 < 48.0,
           f"measured plateau-profile norm {bump.certified_c2:.4f} < 48")


@pytest.fixture(scope="module")
def theorem_sweep():
    t = time.time()
    instances = run_theorem_sweep(TheoremConfig())
    return instances, time.time() - t


def test_criterion_07_deformation_bound(theorem_sweep):
    instances, elapsed = theorem_sweep
    rows = 0
    guard = 0.0
    for inst in instances:
        for r in inst.reports:
            rows += 1
            if not r.passed:
                report(7, False, f"r0={inst.r0} {r.params} lhs={r.lhs} "
                                 f"rhs={r.rhs} {r.notes}")
        if inst.decay_constant > inst.guard_constant:
            report(7, False, f"r0={inst.r0} decay constant "
                             f"{inst.decay_constant:.3g} exceeds guard")
        guard = max(guard, inst.decay_constant)
    report(7, elapsed <= 600.0,
           f"{rows} center rows bounded, decay constant {guard:.3g} "
           f"(guard 1e3, not a derived bound) in {elapsed:.1f}s")


def test_criterion_08_excess_bookkeeping(theorem_sweep):
    instances, _ = theorem_sweep
    case1 = 0
    for inst in instances:
        for r in inst.reports:
            if r.params["excess"] != inst.xi - 1.0:
                report(8, False, f"chart excess {r.params['excess']}")
            if r.params["case"] == 1:
                case1 += 1
                if r.lhs != r.params["eps_center"]:
                    report(8, False,
                           f"case-1 eta {r.lhs!r} != eps "
                           f"{r.params['eps_center']!r} at "
                           f"t0={r.params['t0']:.3f}")
    report(8, case1 >= 32,
           f"all charts at excess xi-1; {case1} case-1 centers have "
           f"eta == eps bitwise")


def test_criterion_09_decay_demonstration():
    rows = remark_decay()
    by_t0 = {row["t0"]: row["eps"] for row in rows}
    contrast = by_t0[2.2] / by_t0[8.0]
    lo, hi = np.exp(-2.0) / 2.0, 2.0 * np.exp(-2.0)
    ratios = [row["ratio_to_prev"] for row in rows
              if row["t0"] - 1.0 >= 5.0 and row["t0"] <= 9.0]
    ok = contrast > 100.0 and all(lo <= q <= hi for q in ratios)
    report(9, ok, f"contrast {contrast:.0f} > 100, step ratios "
                  f"{[f'{q:.4f}' for q in ratios]} within [e^-2/2, 2e^-2]")


def test_criterion_10_fd_oracle_agreement():
    ch = ChartModel(n=2, xi=1.0, grid=GridSpec())
    sigma = hyperbolic_model(ch)
    rs = fd_oracle_check(sigma, ch.grid)
    coeffs = np.zeros((4, 4))
    coeffs[3, 0], coeffs[1, 2], coeffs[0, 3], coeffs[2, 1] = 0.7, -1.1, 0.4, 0.9
    poly = polynomial_scalar(ch.domain, coeffs)
    rp = fd_oracle_check(poly, ch.grid)
    ok = rs["passed"] and rp["passed"]
    report(10, ok,
           f"model metric C=(d1 {rs['C']['d1']:.3g}, d2 {rs['C']['d2']:.3g}); "
           f"polynomial C=(d1 {rp['C']['d1']:.3g}, d2 {rp['C']['d2']:.3g}); "
           f"errors shrink as h^2")
