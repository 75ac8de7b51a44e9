"""The second-order Taylor type: each primitive against closed forms and
against central differences, parts constant along the batch against full
ones, plateau exactness of blends, and the FD oracle on a warp-forced
pullback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpforce.model import (
    ChartModel,
    Domain,
    Field,
    GridSpec,
    Jet,
    RadialMetric,
    WarpforceError,
    _diag,
    _fd_jet,
    _per_run,
    c2_norm,
    hyperbolic_model,
    interval_domain,
    profile_scalar,
)
from warpforce.manifold import perturbed_hyperbolic, pullback, radial_chart
from warpforce.verify import fd_oracle_check, random_close_metric
from warpforce.warpcore import (BumpFunction, WarpFunction, apply_warp,
                                 blend, radial_slice, warp_force,
                                 warped_extension)

# (0.5, 2) x (0.5, 2): away from zero, so quotients and powers are smooth
BOX = Domain(bounds=((0.5, 2.0), (0.5, 2.0)), axis_names=("x", "y"))
PTS = np.random.default_rng(11).uniform(0.7, 1.8, size=(40, 2))
A, B, C = 0.7, -0.3, 0.2       # the affine argument a = A x + B y + C

# f(a), f'(a), f''(a) of each elementary function
UNARY = {
    np.exp: (np.exp, np.exp, np.exp),
    np.sin: (np.sin, np.cos, lambda a: -np.sin(a)),
    np.cos: (np.cos, lambda a: -np.sin(a), lambda a: -np.cos(a)),
    np.sinh: (np.sinh, np.cosh, np.sinh),
    np.cosh: (np.cosh, np.sinh, np.cosh),
}


def scalar(fn, shape=()):
    return Field(BOX, fn, analytic=True, shape=shape)


def assert_matches_fd(f, d1_tol=1e-7, d2_tol=1e-4, value_rtol=0.0):
    v, d1, d2 = f.jet(PTS)
    w, e1, e2 = _fd_jet(f, PTS, 1e-5)
    # the value part is the array path, bitwise unless a hand-written
    # profile jet supplies it
    assert np.allclose(v, w, rtol=value_rtol, atol=0.0)
    assert np.abs(d1 - e1).max() < d1_tol
    assert np.abs(d2 - e2).max() < d2_tol


@pytest.mark.parametrize("ufunc", list(UNARY), ids=lambda u: u.__name__)
def test_unary_closed_form(ufunc):
    f0, f1, f2 = UNARY[ufunc]
    f = scalar(lambda p: ufunc(A * p[:, 0] + B * p[:, 1] + C))
    a = A * PTS[:, 0] + B * PTS[:, 1] + C
    v, d1, d2 = f.jet(PTS)
    grad = np.array([A, B])
    assert np.array_equal(v, f0(a))
    assert np.allclose(d1, f1(a)[:, None] * grad, rtol=1e-14, atol=1e-15)
    assert np.allclose(d2, f2(a)[:, None, None] * np.outer(grad, grad),
                       rtol=1e-14, atol=1e-15)
    assert_matches_fd(f)


@pytest.mark.parametrize("name,fn,grad,hess", [
    ("add", lambda x, y: x + y,
     lambda x, y: (np.ones_like(x), np.ones_like(x)),
     lambda x, y: (0 * x, 0 * x, 0 * x)),
    ("sub", lambda x, y: 2.0 - x - y,
     lambda x, y: (-np.ones_like(x), -np.ones_like(x)),
     lambda x, y: (0 * x, 0 * x, 0 * x)),
    ("mul", lambda x, y: x * y,
     lambda x, y: (y, x), lambda x, y: (0 * x, 1 + 0 * x, 0 * x)),
    ("div", lambda x, y: x * y / 2.5,
     lambda x, y: (y / 2.5, x / 2.5),
     lambda x, y: (0 * x, 1 / 2.5 + 0 * x, 0 * x)),
    ("neg", lambda x, y: -(x * x),
     lambda x, y: (-2 * x, 0 * x), lambda x, y: (-2 + 0 * x, 0 * x, 0 * x)),
    ("pow3", lambda x, y: x ** 3 * y ** 2,
     lambda x, y: (3 * x ** 2 * y ** 2, 2 * x ** 3 * y),
     lambda x, y: (6 * x * y ** 2, 6 * x ** 2 * y, 2 * x ** 3)),
    ("pow_neg", lambda x, y: y ** -1,
     lambda x, y: (0 * x, -y ** -2.0),
     lambda x, y: (0 * x, 0 * x, 2 * y ** -3.0)),
    ("pow01", lambda x, y: x ** 1 + y ** 0,
     lambda x, y: (np.ones_like(x), 0 * x),
     lambda x, y: (0 * x, 0 * x, 0 * x)),
])
def test_arithmetic_closed_form(name, fn, grad, hess):
    f = scalar(lambda p: fn(p[:, 0], p[:, 1]))
    x, y = PTS[:, 0], PTS[:, 1]
    v, d1, d2 = f.jet(PTS)
    gx, gy = grad(x, y)
    hxx, hxy, hyy = hess(x, y)
    assert np.array_equal(v, fn(x, y))
    assert np.allclose(d1, np.stack([gx, gy], axis=1), rtol=1e-13, atol=1e-14)
    want = np.stack([np.stack([hxx, hxy], axis=1),
                     np.stack([hxy, hyy], axis=1)], axis=1)
    assert np.allclose(d2, want, rtol=1e-13, atol=1e-13)
    assert_matches_fd(f)


def test_hessian_is_exactly_symmetric():
    f = scalar(lambda p: np.sin(p[:, 0] * p[:, 1]) * np.cosh(p[:, 1]) ** 2)
    _, _, d2 = f.jet(PTS)
    assert np.array_equal(d2, np.swapaxes(d2, 1, 2))
    assert_matches_fd(f)


def test_indexing_and_broadcast_against_constants():
    H = np.array([[1.3, 0.2], [0.2, 0.9]])

    def fn(p):
        q = p[:, ::-1]                       # reversed coordinates
        return (q[:, 0] * np.exp(q[:, 1]))[:, None, None] * H + H

    f = scalar(fn, shape=(2, 2))
    x, y = PTS[:, 0], PTS[:, 1]
    v, d1, d2 = f.jet(PTS)
    e = np.exp(x)
    assert np.allclose(d1[:, 0], (y * e)[:, None, None] * H, rtol=1e-14)
    assert np.allclose(d1[:, 1], e[:, None, None] * H, rtol=1e-14)
    assert np.allclose(d2[:, 0, 1], e[:, None, None] * H, rtol=1e-14)
    assert np.abs(d2[:, 1, 1]).max() == 0.0
    assert_matches_fd(f)


def test_concatenate_mixes_jets_and_constants():
    def fn(p):
        col = (p[:, 0] * p[:, 1])[:, None]
        return np.concatenate([p, col, np.full((len(p), 1), 2.5)], axis=-1)

    f = scalar(fn, shape=(4,))
    v, d1, d2 = f.jet(PTS)
    assert np.array_equal(v[:, 3], np.full(len(PTS), 2.5))
    assert np.array_equal(d1[:, :, :2], np.broadcast_to(np.eye(2),
                                                        (len(PTS), 2, 2)))
    assert np.allclose(d1[:, :, 2], PTS[:, ::-1], rtol=1e-15)
    assert np.abs(d1[:, :, 3]).max() == 0.0 and np.abs(d2[..., 3]).max() == 0.0
    assert_matches_fd(f)


def test_matmul_with_constant_operands():
    J = np.array([[0.5, -1.0], [0.25, 2.0]])

    def fn(p):
        M = ((p[:, 0] ** 2 * p[:, 1])[:, None, None] * np.eye(2)
             + p[:, :1, None])
        return J @ M @ J.T

    f = scalar(fn, shape=(2, 2))
    x, y = PTS[:, 0], PTS[:, 1]
    v, d1, d2 = f.jet(PTS)
    JJ = J @ J.T
    ones = J @ np.ones((2, 2)) @ J.T
    assert np.allclose(d1[:, 1], (x ** 2)[:, None, None] * JJ, rtol=1e-14)
    assert np.allclose(d1[:, 0], (2 * x * y)[:, None, None] * JJ + ones,
                       rtol=1e-14)
    assert np.allclose(d2[:, 0, 0], (2 * y)[:, None, None] * JJ, rtol=1e-14)
    assert_matches_fd(f)


def test_chain_lifts_a_profile_jet():
    class Cube:
        def __call__(self, t):
            if isinstance(t, Jet):
                return t.chain(*self.jet(t.v))
            return t ** 3

        def jet(self, t):
            return t ** 3, 3 * t ** 2, 6 * t

    f = profile_scalar(BOX, Cube())
    y = PTS[:, 1]
    v, d1, d2 = f.jet(PTS)
    assert np.array_equal(d1[:, 1], 3 * y ** 2)
    assert np.array_equal(d2[:, 1, 1], 6 * y)
    assert np.abs(d1[:, 0]).max() == 0.0 and np.abs(d2[:, 0]).max() == 0.0
    assert_matches_fd(f)


_WARP, _BUMP = WarpFunction(3.0), BumpFunction()


def lifted_jet(profile):
    """(p, p', p'') of a 1-D profile at an array t, from the jet of its
    lift by profile_scalar."""
    def jet(t):
        v, d1, d2 = profile_scalar(interval_domain(0.0, 2.0),
                                   profile).jet(t[:, None])
        return v, d1[:, 0], d2[:, 0, 0]
    return jet


@pytest.mark.parametrize("profile,jet", [
    (_WARP, lifted_jet(_WARP)),
    (lambda t: _BUMP(t - 1.0), lambda t: _BUMP.jet(t - 1.0)),
], ids=["warp", "shifted-bump"])
def test_hand_jet_profiles_lift_themselves(profile, jet):
    # called directly inside a value function, not only via profile_scalar;
    # the warp profile is one Jet expression, the bump lifts its hand jet
    f = scalar(lambda p: profile(p[:, 1]) * p[:, 0])
    v, d1, d2 = f.jet(PTS)
    p, p1, p2 = jet(PTS[:, 1])
    assert np.array_equal(v, f(PTS))        # one formula for the value
    assert np.array_equal(d1[:, 0], p)
    assert np.array_equal(d1[:, 1], p1 * PTS[:, 0])
    assert np.array_equal(d2[:, 1, 1], p2 * PTS[:, 0])
    assert np.array_equal(d2[:, 0, 1], p1)
    assert_matches_fd(f, d2_tol=1e-3, value_rtol=1e-15)


def test_plain_array_result_is_a_constant():
    f = scalar(lambda p: np.full(len(p), 0.5))
    v, d1, d2 = f.jet(PTS)
    assert np.array_equal(v, np.full(len(PTS), 0.5))
    assert d1.shape == (len(PTS), 2) and not d1.any()
    assert d2.shape == (len(PTS), 2, 2) and not d2.any()


def test_jet_outputs_are_ndarrays_and_values_survive_asarray():
    f = scalar(lambda p: np.exp(p[:, 0]))
    out = f.jet(PTS)
    assert isinstance(out, tuple)
    assert all(type(a) is np.ndarray for a in out)
    seeded = Jet.seed(PTS)
    assert np.array_equal(np.asarray(seeded), PTS)
    assert len(seeded) == len(PTS) and seeded.shape == PTS.shape


@pytest.mark.parametrize("fn", [
    lambda p: np.tanh(p[:, 0]),                      # ufunc not supported
    lambda p: np.stack([p[:, 0], p[:, 1]], axis=1),  # function not supported
    lambda p: 1.0 / p[:, 0],                         # division by a Jet
    lambda p: p[:, :, None] @ p[:, None, :],         # Jet @ Jet
])
def test_unsupported_operations_raise(fn):
    with pytest.raises(TypeError):
        scalar(fn, shape=(2,)).jet(PTS)


def test_jet_operands_carry_the_result_axes():
    # a constant with more axes than the Jet would misalign its derivatives
    with pytest.raises(ValueError):
        scalar(lambda p: p[:, 0] * np.ones((3, 1))).jet(PTS)


def test_unmarked_field_stays_on_finite_differences():
    f = Field(BOX, lambda p: np.exp(p[:, 0]))
    assert not f.has_jet
    assert c2_norm(f, GridSpec(points_per_axis=8)).derivative_source \
        == "finite-difference"
    with pytest.raises(WarpforceError):
        f(Jet.seed(PTS))


# ---------------------------------------------------------------------------
# composites


CH = ChartModel(n=2, xi=1.0, grid=GridSpec(points_per_axis=16))


def test_blend_plateaus_bitwise_in_jets():
    sigma = hyperbolic_model(CH)
    other = random_close_metric(CH, np.random.default_rng(4))
    one = Field(CH.domain, lambda p: np.ones(len(p)), analytic=True)
    zero = Field(CH.domain, lambda p: np.zeros(len(p)), analytic=True)
    pts = CH.grid_points()
    for lam, same in ((one, sigma), (zero, other)):
        got = blend(sigma, other, lam).jet(pts)
        want = same.jet(pts)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_value_function_that_drops_the_jet_raises():
    # np.asarray keeps a Jet's value and drops its derivatives
    f = Field(interval_domain(0, 2), lambda p: np.asarray(p)[:, 0] ** 2,
              analytic=True, name="square")
    with pytest.raises(WarpforceError, match="square"):
        f.jet([[0.5], [1.0]])


def test_one_point_jet_is_checked_against_its_mirror():
    # a lone point is evaluated beside lo + hi - p, so a dropped Jet shows
    # there too; the domain centre 1.0 is its own mirror and stays unchecked
    f = Field(interval_domain(0, 2), lambda p: np.asarray(p)[:, 0] ** 2,
              analytic=True, name="square")
    with pytest.raises(WarpforceError, match="square"):
        f.jet([[0.5]])
    flat = RadialMetric.on_chart(
        CH, lambda p: np.asarray(p)[:, 1, None, None] + 3.0, analytic=True,
        name="flat")
    with pytest.raises(WarpforceError, match="flat"):
        flat.spatial_jet([[0.2, 0.7]])


def test_one_point_jet_is_the_row_of_a_batch():
    g = perturbed_hyperbolic(3, amplitude=0.05).metric
    pts = np.array([[1.1, 0.4, 5.2], [0.7, -2.0, 3.0]])
    for one, batch in zip(g.jet(pts[:1]), g.jet(pts)):
        assert np.array_equal(one, batch[:1])
    for one, batch in zip(g.spatial_jet(pts[1:]), g.spatial_jet(pts)):
        assert np.array_equal(one, batch[1:])


def test_blend_parts_that_drop_the_jet_raise():
    sigma = hyperbolic_model(CH)
    one = Field(CH.domain, lambda p: np.ones(len(p)), analytic=True)
    lam = Field(CH.domain, lambda p: 0.5 + 0.1 * np.asarray(p)[:, 0],
                analytic=True, name="lam")
    flat = RadialMetric.on_chart(
        CH, lambda p: np.asarray(p)[:, 1, None, None] + 3.0, analytic=True,
        name="flat")
    pts = CH.grid_points()
    # the weight meets the Jet in Field.__call__, the metric in spatial_jet
    for g, name in ((blend(sigma, sigma, lam), "lam"),
                    (blend(flat, sigma, one), "flat")):
        with pytest.raises(WarpforceError, match=name):
            g.jet(pts)


def test_warp_force_plateaus_bitwise_in_jets():
    m = perturbed_hyperbolic(2, amplitude=0.05)
    g = m.metric
    rho = BumpFunction()
    r0 = 5.0
    W = warp_force(g, r0, rho)
    pts = g.domain.grid(GridSpec(points_per_axis=24))
    outer = pts[pts[:, -1] >= r0 + rho.support_end]
    for a, b in zip(W.jet(outer), g.jet(outer)):
        assert np.array_equal(a, b)


def test_value_part_is_the_value_path():
    m = perturbed_hyperbolic(2, amplitude=0.05)
    rc = radial_chart(m, 5.0)
    pb = pullback(rc, m.metric)
    pts = rc.chart.grid_points(GridSpec(points_per_axis=12))
    assert np.array_equal(pb.jet(pts)[0], pb(pts))
    v, d1, d2 = pb.spatial_jet(pts)
    assert np.array_equal(v, pb.spatial(pts))
    assert d1.shape == (len(pts), 2, 1, 1)
    assert d2.shape == (len(pts), 2, 2, 1, 1)


@pytest.mark.parametrize("order", ["pullback-of-forced", "forced-pullback"])
def test_warp_forced_perturbed_pullback_passes_fd_oracle(order):
    m = perturbed_hyperbolic(2, amplitude=0.05)
    rc = radial_chart(m, 5.0, xi=1.0)
    rho = BumpFunction()
    if order == "pullback-of-forced":
        f = pullback(rc, warp_force(m.metric, 4.8, rho))
    else:
        f = warp_force(pullback(rc, m.metric), -0.2, rho)
    assert isinstance(f, RadialMetric) and f.has_jet
    res = fd_oracle_check(f, grid=GridSpec(points_per_axis=16))
    assert res["passed"], res


# ---------------------------------------------------------------------------
# parts constant along the batch


def materialised(x: Jet) -> Jet:
    """x with every part a full array of its own, a part one row long
    widened to the whole batch."""
    return Jet(np.array(x.v), *(np.array(np.broadcast_to(p, p.shape[:o]
                                                         + x.shape))
                                for o, p in ((1, x.d1), (2, x.d2))))


# each op at an affine Jet a and the seed p, with the derivative parts it
# keeps one row long when a and p have one-row parts (None: an integer
# index, whose result has no batch axis)
JET_OPS = {
    **{u.__name__: (lambda a, p, u=u: u(a), ()) for u in UNARY},
    **{f"pow{k}": (lambda a, p, k=k: a ** k, ()) for k in (-1, 0, 1, 2, 3)},
    "scalar-mul": (lambda a, p: 2.5 * a, ("d1", "d2")),
    "scalar-div": (lambda a, p: a / 3.0, ("d1", "d2")),
    "neg": (lambda a, p: -a, ("d1", "d2")),
    "jet-add": (lambda a, p: a + p[:, 0], ("d1", "d2")),
    "jet-sub": (lambda a, p: p[:, 1] - a, ("d1", "d2")),
    "jet-mul": (lambda a, p: a * p[:, 1], ("d2",)),
    "concatenate": (lambda a, p: np.concatenate(
        [p, a[:, None], np.full((len(p), 1), 2.5)], axis=1), ("d1", "d2")),
    "index": (lambda a, p: a[:, None, None], ("d1", "d2")),
    "index-array": (lambda a, p: a[np.arange(len(a))[::-1]], ("d1", "d2")),
    "slice": (lambda a, p: a[2:], ("d1", "d2")),
    "index-int": (lambda a, p: a[1], None),
    "index-neg-int": (lambda a, p: p[-2], None),
    "index-int-of-product": (lambda a, p: (a * p[:, 1])[1], None),
    "slice-of-product": (lambda a, p: (a * p[:, 1])[1:], ("d2",)),
    "widen-trailing": (lambda a, p: a[:, None] + np.ones((1, 3)),
                       ("d1", "d2")),
    "concatenate-batch": (lambda a, p: np.concatenate([a, a * p[:, 1]]),
                          ()),
    "diag": (lambda a, p: _diag([a, a * p[:, 1]]), ("d2",)),
    # one run of equal rows: a curved factor whose parts are one row long
    "mul-one-run": (lambda a, p: a * _per_run(lambda u: np.sin(u[:, 0]),
                                              p[np.zeros(len(p), int)]), ()),
}

box_points = st.integers(2, 9).flatmap(lambda m: st.lists(
    st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    min_size=m, max_size=m)).map(np.array)


@pytest.mark.parametrize("name", list(JET_OPS))
@settings(max_examples=20, deadline=None)
@given(pts=box_points, coeffs=st.tuples(st.floats(-1.0, 1.0),
                                        st.floats(-1.0, 1.0),
                                        st.floats(5.0, 6.0)))
def test_one_row_parts_match_full_parts(name, pts, coeffs):
    op, kept = JET_OPS[name]
    a0, b0, c0 = coeffs
    p = Jet.seed(pts)
    a = a0 * p[:, 0] + b0 * p[:, 1] + c0          # 1 <= a: powers finite
    assert a.d1.shape[1] == 1 and a.d2.shape[2] == 1
    got = op(a, p)
    want = op(materialised(a), materialised(p))
    wide = materialised(got)
    for part in ("v", "d1", "d2"):
        assert np.array_equal(getattr(wide, part), getattr(want, part))
    for part in ("d1", "d2"):         # the batch axis follows the d axes
        o = int(part[1])
        if kept is None:
            assert getattr(got, part).shape == getattr(want, part).shape
        else:
            assert getattr(got, part).shape[o] == (1 if part in kept
                                                   else len(got)), part


def test_non_finite_derivatives_propagate_as_with_full_parts():
    # exp(800 x) overflows for x > 0.89: a zero hessian times an infinite
    # f' is NaN, so that term is kept wherever f' is not finite
    ch = ChartModel(n=2, xi=1.0, grid=GridSpec(points_per_axis=16))

    def fn(p):
        return np.exp(800.0 * p[:, 0])

    lean = Field(ch.domain, fn, analytic=True)
    full = Field(ch.domain, lambda p: fn(materialised(p)), analytic=True)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = c2_norm(lean, ch.grid), c2_norm(full, ch.grid)
        pts = ch.grid_points()
        jets = lean.jet(pts), full.jet(pts)
    assert np.isnan(got.value) and got.per_order_sups["1"] == np.inf
    assert str(got) == str(want)          # NaN != NaN: compare as text
    for a, b in zip(*jets):
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.array_equal(np.isinf(a), np.isinf(b))
        assert np.array_equal(a, b, equal_nan=True)
    _, _, d2 = jets[0]
    assert np.isnan(d2).any() and not np.isinf(d2).any()


@pytest.mark.parametrize("fn,shape", [
    (hyperbolic_model(CH), (2, 2)),
    (profile_scalar(CH.domain, lambda t: 2.0 * t - 0.5), ()),
    (lambda p: (p[:, :1, None] - 3.0 * p[:, 1:, None]) * np.ones((1, 2, 2)),
     (2, 2)),
], ids=["hyperbolic", "affine-profile", "affine-block"])
def test_field_jet_widens_one_row_parts(fn, shape):
    lean = Field(CH.domain, fn, analytic=True, shape=shape)
    full = Field(CH.domain, lambda p: fn(materialised(p)), analytic=True,
                 shape=shape)
    pts = CH.grid_points()
    m, d = pts.shape
    got, want = lean.jet(pts), full.jet(pts)
    assert got[1].shape == (m, d) + shape
    assert got[2].shape == (m, d, d) + shape
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    for n in (4, 8):
        spec = GridSpec(points_per_axis=n)
        assert c2_norm(lean, spec) == c2_norm(full, spec)


def test_frozen_slice_is_evaluated_once_per_distinct_x():
    ch = ChartModel(n=2, xi=1.0, grid=GridSpec(points_per_axis=16))
    g = random_close_metric(ch, np.random.default_rng(6))
    rows = []

    def counted(p):
        rows.append(len(p))
        return g.spatial(p)

    s = 0.4
    ext = warped_extension(
        radial_slice(RadialMetric.on_chart(ch, counted, analytic=True), s),
        s, ch)
    pts = ch.grid_points()
    distinct = len(np.unique(pts[:, 0]))
    got = c2_norm(ext, ch.grid)
    assert rows == [distinct]
    rows.clear()
    ext.spatial(pts)
    assert rows == [distinct]
    # the same extension with its slice evaluated on every row
    a = radial_slice(g, s)
    whole = apply_warp(RadialMetric.on_chart(ch, lambda p: a(p[:, :1]),
                                             analytic=True),
                       lambda t: np.exp(2.0 * (t - s)))
    assert got == c2_norm(whole, ch.grid)


def test_per_run_evaluates_every_row_unless_rows_repeat_with_one_row_parts():
    calls = []

    def fn(x):
        calls.append(len(x))
        return np.sin(x[:, :1] * x[:, 1:]), x[:, ::-1] * 2.0

    pts = np.random.default_rng(8).uniform(0.5, 2.0, size=(12, 2))
    repeated = np.repeat(pts[:4], 3, axis=0)
    for x, want_rows in ((pts, 12), (repeated, 4)):
        calls.clear()
        got = _per_run(fn, x)
        assert calls == [want_rows]
        for a, b in zip(got, fn(x)):
            assert np.array_equal(a, b)
    # equal values are equal rows only when the derivatives are one row long
    for x, want_rows in ((Jet.seed(repeated), 4),
                         (materialised(Jet.seed(repeated)), 12)):
        calls.clear()
        got = _per_run(fn, x)
        assert calls == [want_rows]
        for a, b in zip(got, fn(x)):
            a, b = materialised(a), materialised(b)
            for part in ("v", "d1", "d2"):
                assert np.array_equal(getattr(a, part), getattr(b, part))


def rowwise(x):
    """A row-by-row function of (m, 2) points with results of shape (m,),
    (m, 2) and (m, 2, 2), the last two row-major."""
    a = np.sin(x[:, 0]) * x[:, 1]
    b = np.concatenate([(x[:, 1] * 2.0)[:, None], np.cos(x[:, :1])],
                       axis=1)
    return a, b, a[:, None, None] * x[:, :, None] * x[:, None, :]


@pytest.mark.parametrize("runs", [[1] * 9, [7], [1], [3, 1, 2, 4], [1, 5, 1]],
                         ids=["distinct", "equal", "one-row", "ends",
                              "middle"])
def test_per_run_is_fn_on_every_row(runs):
    rng = np.random.default_rng(len(runs))
    x = np.asfortranarray(np.repeat(rng.uniform(0.5, 2.0, (len(runs), 2)),
                                    runs, axis=0))
    calls = []

    def fn(u):
        calls.append(len(u))
        return rowwise(u)

    want = rowwise(x)
    for one in (False, True):       # a tuple, and one array
        got = (_per_run(lambda u: fn(u)[2], x),) if one else _per_run(fn, x)
        assert calls.pop() == len(runs) and not calls
        for a, b in zip(got, want[2:] if one else want):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
            # a spread array has a contiguous batch axis
            assert a.flags.f_contiguous or len(runs) == len(x)
    # a Jet is split into runs only when its parts are one row long
    for jet, heads in ((Jet.seed(x), len(runs)),
                       (materialised(Jet.seed(x)), len(x))):
        got = _per_run(fn, jet)
        assert calls.pop() == heads and not calls
        for a, b in zip(got, rowwise(jet)):
            a, b = materialised(a), materialised(b)
            for part in ("v", "d1", "d2"):
                assert np.array_equal(getattr(a, part), getattr(b, part))
