"""The second-order Taylor type: each primitive against closed forms and
against central differences, plateau exactness of blends, and the FD oracle
on a warp-forced pullback."""

import numpy as np
import pytest

from warpforce.model import (
    ChartModel,
    Domain,
    Field,
    GridSpec,
    Jet,
    RadialMetric,
    WarpforceError,
    _fd_jet,
    c2_norm,
    hyperbolic_model,
    interval_domain,
    profile_scalar,
)
from warpforce.manifold import perturbed_hyperbolic, pullback, radial_chart
from warpforce.verify import fd_oracle_check, random_close_metric
from warpforce.warpcore import (BumpFunction, WarpFunction, blend,
                                 warp_force)

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
    w, e1, e2 = _fd_jet(f, PTS, GridSpec(fd_step=1e-5))
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


def test_einsum_with_constant_operands():
    J = np.array([[0.5, -1.0], [0.25, 2.0]])

    def fn(p):
        M = ((p[:, 0] ** 2 * p[:, 1])[:, None, None] * np.eye(2)
             + p[:, :1, None])
        return np.einsum("ab,mbc,dc->mad", J, M, J)

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


@pytest.mark.parametrize("profile", [WarpFunction(3.0),
                                     BumpFunction().shifted(1.0)],
                         ids=["warp", "shifted-bump"])
def test_hand_jet_profiles_lift_themselves(profile):
    # called directly inside a value function, not only via profile_scalar
    f = scalar(lambda p: profile(p[:, 1]) * p[:, 0])
    v, d1, d2 = f.jet(PTS)
    p, p1, p2 = profile.jet(PTS[:, 1])
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
