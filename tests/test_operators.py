import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magbag.analysis import laplacian_identity
from magbag.glued import ball_evaluator
from magbag.monopole import ScaledMonopole, ps_evaluator
from magbag.operators import (
    _stencil_points,
    adjointness_gap,
    apply_D,
    bump_pair,
    deformation_identity,
    fd_curvature,
    flat_bg,
    hash_bilinear,
    weitzenbock_defect,
)
from magbag.shell import InvalidParameterError
from magbag.su2 import bracket, form_norm, wedge_dual

from oracles import (
    bracket_apply_D,
    broadcast_bump_pair,
    concatenated_stencil_points,
    dirac_evaluator,
    full_table_fd_curvature,
    union_support_pairings,
    where_bump_pair,
    whole_grid_adjointness_gap,
)

ORIGIN = ScaledMonopole(center=np.zeros(3), scale=1.0)


def constant_pair(alpha, eta):
    alpha = np.asarray(alpha, dtype=float)
    eta = np.asarray(eta, dtype=float)

    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        shp = pts.shape[:-1]
        return np.broadcast_to(alpha, (*shp, 3, 3)).copy(), np.broadcast_to(
            eta, (*shp, 3)
        ).copy()

    return ev


# --- curvature ---------------------------------------------------------------

def test_curvature_constant_background():
    cur = fd_curvature(constant_pair(np.zeros((3, 3)), [0, 0, 1.0]), np.zeros((1, 3)))
    assert np.all(cur.star_F == 0) and np.all(cur.d_phi == 0)


def deformed_by(bg, q):
    def ev(pts):
        a, phi = bg(pts)
        al, et = q(pts)
        return a + al, phi + et

    return ev


def test_curvature_equals_the_full_table(cfg100):
    # (*F)_m from its three cyclic entries gives the bits of (1/2) hodge_star(F):
    # F_lj = -F_jl exactly, so F_jl - F_lj = 2 F_jl
    rng = np.random.default_rng(31)
    i = 11
    ball = ball_evaluator(cfg100, i)
    dirs = rng.normal(size=(300, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    # radii over the whole ball: the glued pair's tail sums switch on in part of it
    x_ball = cfg100.points[i] + 0.9 * cfg100.L * rng.uniform(0.0, 1.0, size=(300, 1)) * dirs
    x_core = rng.uniform(-3, 3, size=(300, 3))
    q = bump_pair([0.2, 0.1, -0.3], 1.5, 32)
    q_ball = bump_pair(cfg100.points[i] + 0.1 * cfg100.L, 0.5 * cfg100.L, 33)
    cases = [
        (ps_evaluator(ORIGIN), x_core),
        (ball, x_ball),
        (deformed_by(ps_evaluator(ORIGIN), q), x_core),
        (deformed_by(ball, q_ball), x_ball),
    ]
    for ev, x in cases:
        for h in (1e-4, 5e-5):
            cur = fd_curvature(ev, x, h=h)
            star_F, d_phi = full_table_fd_curvature(ev, x, h=h)
            assert np.array_equal(cur.star_F, star_F)
            assert np.array_equal(cur.d_phi, d_phi)


def test_curvature_core_solves():
    rng = np.random.default_rng(0)
    X = rng.uniform(-3, 3, size=(30, 3))
    cur = fd_curvature(ps_evaluator(ORIGIN), X, h=1e-4)
    assert form_norm(cur.g).max() < 1e-7


def test_curvature_abelian_flux_density():
    p = np.array([0.1, 0.2, 0.3])
    x = p + np.array([0, 0, 2.0])
    cur = fd_curvature(dirac_evaluator(p, 1.0), x[None, :], h=1e-4)
    nhat = np.array([0, 0, 1.0])
    radial = np.einsum("m,mk->k", nhat, cur.star_F[0])
    assert np.dot(radial, nhat) == pytest.approx(0.25, abs=1e-7)


# --- the first-order operator ------------------------------------------------

def test_apply_D_zero_pair():
    first, second = apply_D(constant_pair(np.zeros((3, 3)), np.zeros(3)), flat_bg(), np.zeros(3))
    assert np.all(first == 0) and np.all(second == 0)


@pytest.mark.parametrize("background", ["flat", "core"])
def test_apply_D_equals_the_unconditional_brackets(background):
    # flat_bg's connection is zero, and apply_D skips its brackets
    rng = np.random.default_rng(34)
    bg = flat_bg() if background == "flat" else ps_evaluator(ORIGIN)
    q = bump_pair([0.1, -0.2, 0.3], 1.5, 35)
    x = rng.uniform(-2, 2, size=(500, 3))  # inside and outside the bump's support
    for sign in (1.0, -1.0):
        got = apply_D(q, bg, x, sign=sign)
        want = bracket_apply_D(q, bg, x, sign=sign)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_bump_equals_the_where_profile():
    rng = np.random.default_rng(36)
    centre, width = np.array([0.5, -0.25, 0.125]), 2.0
    q, want = bump_pair(centre, width, 37), where_bump_pair(centre, width, 37)
    axis = -4.0 + (8.0 / 48) * (np.arange(48) + 0.5)
    nodes = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    stencils = _stencil_points(rng.uniform(-3, 3, size=(400, 3)), 1e-4)
    # one width from the centre along an axis: t = 1 exactly, the support's edge
    edge = centre + width * np.concatenate([np.eye(3), -np.eye(3)])
    assert np.all(np.sum(((edge - centre) / width) ** 2, axis=-1) == 1.0)
    just_inside = np.nextafter(edge, centre)
    for pts in (nodes, stencils, edge, just_inside, edge[0]):
        got, ref = q(pts), want(pts)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    assert np.all(q(edge)[1] == 0.0) and np.all(np.any(q(just_inside)[1] != 0.0, axis=-1))


# a point, one row, a batch, its stencils and a batch of stencils
POINT_SHAPES = [(3,), (1, 3), (300, 3), (300, 7, 3), (2, 5, 7, 3)]


def _same_bits(got, want):
    # array_equal cannot tell -0.0 from 0.0
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_bump_and_stencil_keep_the_broadcast_bits():
    rng = np.random.default_rng(34)
    centre, width = np.array([0.5, 0.0, -0.25]), 2.0
    q, want = bump_pair(centre, width, 37), broadcast_bump_pair(centre, width, 37)
    # random points around the support, a third of their coordinates -0.0 or
    # 0.0, led by the support's edge (t = 1 exactly) and the points just inside
    edge = centre + width * np.concatenate([np.eye(3), -np.eye(3)])
    pts = centre + rng.uniform(-1.5 * width, 1.5 * width, size=(2100, 3))
    zero = rng.random(pts.shape) < 1 / 3
    pts[zero] = rng.choice([-0.0, 0.0], size=np.count_nonzero(zero))
    pts[:6], pts[6:12] = edge, np.nextafter(edge, centre)
    for shape in POINT_SHAPES:
        x = pts[:math.prod(shape[:-1])].reshape(shape)
        for got, ref in zip(q(x), want(x)):
            assert _same_bits(got, ref) and got.flags.c_contiguous
        for h in (1e-4, 0.5):
            got = _stencil_points(x, h)
            assert _same_bits(got, concatenated_stencil_points(x, h)) and got.flags.c_contiguous
    a, _ = q(pts)  # signed zeros reach the kernels and leave them
    assert np.signbit(pts[pts == 0.0]).any() and np.signbit(a[a == 0.0]).any()


def test_apply_D_batched_equals_rows():
    # a (2, 7, 3) table of points gives the same bits as its rows
    rng = np.random.default_rng(14)
    X = rng.uniform(-1, 1, size=(2, 7, 3))
    q = bump_pair([0.1, 0, 0], 2.0, 15)
    bg = ps_evaluator(ORIGIN)
    first, second = apply_D(q, bg, X)
    assert first.shape == (2, 7, 3, 3) and second.shape == (2, 7, 3)
    for i in range(2):
        f, s = apply_D(q, bg, X[i])
        np.testing.assert_array_equal(first[i], f)
        np.testing.assert_array_equal(second[i], s)


@pytest.mark.parametrize("background", ["flat", "core", "glued"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_apply_D_rows_are_independent(background, cfg100, data):
    # the blocked adjointness scan relies on apply_D(x[rows]) == apply_D(x)[rows]
    # bit for bit, whatever the batch around a row
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = data.draw(st.integers(1, 400), label="n")
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    if background == "glued":
        i = 11
        centre, radius = cfg100.points[i], 0.9 * cfg100.L
        bg = ball_evaluator(cfg100, i)
    else:
        centre, radius = np.zeros(3), 2.0
        bg = flat_bg() if background == "flat" else ps_evaluator(ORIGIN)
    # radii over the whole ball: the glued pair's tail sums switch on in part of it
    x = centre + radius * rng.uniform(0.0, 1.0, size=(n, 1)) * dirs
    q = bump_pair(centre + 0.1 * radius, radius, 16)
    start = data.draw(st.integers(0, n - 1), label="start")
    stop = data.draw(st.integers(start + 1, n), label="stop")
    step = data.draw(st.integers(1, 3), label="step")
    rows = slice(start, stop, step)
    for sign in (1.0, -1.0):
        whole = apply_D(q, bg, x, sign=sign)
        part = apply_D(q, bg, x[rows], sign=sign)
        np.testing.assert_array_equal(part[0], whole[0][rows])
        np.testing.assert_array_equal(part[1], whole[1][rows])


def test_adjoint_is_phi_negation():
    q = bump_pair([0.1, 0, 0], 2.0, 2)

    def neg_bg(pts):
        a, phi = ps_evaluator(ORIGIN)(pts)
        return a, -phi

    # one point, and a (1, 2, 3) batch
    for x in (np.array([0.3, -0.2, 0.5]), np.array([[[0.3, -0.2, 0.5], [1.1, 0.4, -0.6]]])):
        d1 = apply_D(q, ps_evaluator(ORIGIN), x, sign=-1.0)
        d2 = apply_D(q, neg_bg, x)
        np.testing.assert_allclose(d1[0], d2[0], atol=1e-12)
        np.testing.assert_allclose(d1[1], d2[1], atol=1e-12)


def test_flat_DDdagger_is_laplacian():
    # with vanishing background, D Ddag acts as minus the flat Laplacian
    q = bump_pair([0, 0, 0], 2.0, 3)
    bg = flat_bg(0.0)
    x = np.array([0.2, 0.3, -0.1])
    h = 1e-3
    ddag = functools.partial(apply_D, q, bg, h=h, sign=-1.0)
    got = apply_D(ddag, bg, x, h)

    lap_a = np.zeros((3, 3))
    lap_e = np.zeros(3)
    a0, e0 = q(x[None, :])
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        ap, ep = q(np.stack([x + e, x - e]))
        lap_a += (ap[0] - 2 * a0[0] + ap[1]) / h**2
        lap_e += (ep[0] - 2 * e0[0] + ep[1]) / h**2
    assert np.abs(got[0] + lap_a).max() < 2e-4 * max(1.0, np.abs(lap_a).max())
    assert np.abs(got[1] + lap_e).max() < 2e-4 * max(1.0, np.abs(lap_e).max())


# --- hash ---------------------------------------------------------------------

def test_hash_symmetry_and_zero():
    rng = np.random.default_rng(4)
    qa = (rng.normal(size=(3, 3)), rng.normal(size=3))
    qb = (rng.normal(size=(3, 3)), rng.normal(size=3))
    h1 = hash_bilinear(qa, qb)
    h2 = hash_bilinear(qb, qa)
    np.testing.assert_array_equal(h1[0], h2[0])
    assert np.all(h1[1] == 0)
    hz = hash_bilinear(qa, (np.zeros((3, 3)), np.zeros(3)))
    assert np.all(hz[0] == 0)


def test_hash_diagonal_matches_quadratic_term():
    # hash(q, q) must equal *(alpha ^ alpha) - [alpha, eta]
    rng = np.random.default_rng(5)
    alpha = rng.normal(size=(3, 3))
    eta = rng.normal(size=3)
    got = hash_bilinear((alpha, eta), (alpha, eta))[0]
    want = 0.5 * wedge_dual(alpha, alpha) - bracket(alpha, eta[None, :])
    np.testing.assert_allclose(got, want, atol=1e-13)


# --- identities ----------------------------------------------------------------

def test_deformation_identity_zero_pair():
    z = constant_pair(np.zeros((3, 3)), np.zeros(3))
    d = deformation_identity(z, ps_evaluator(ORIGIN), np.array([1.0, 0.5, -0.2]))
    assert d < 1e-12


def test_deformation_identity_core_background():
    # one exact identity pins the signs of bracket, wedge, D and hash at
    # once; the stencil is linear, so the defect sits at rounding level
    # (far below the nominal O(h^2) budget) for every step size
    q = bump_pair([0.9, -0.4, 0.7], 1.5, 6)
    x = np.array([0.9, -0.4, 0.7])
    a0, e0 = q(x[None, :])
    scale = np.sqrt(np.sum(a0**2) + np.sum(e0**2))
    for h in (1e-4, 5e-5):
        d = deformation_identity(q, ps_evaluator(ORIGIN), x, h=h)
        assert d / scale < 1e-9


def test_deformation_identity_flat_shift_invariance():
    # adding a constant to eta's third component on a vanishing background
    # leaves the defect at rounding level
    bg = flat_bg(0.0)
    x = np.array([0.1, 0.2, 0.3])
    q = bump_pair(x, 1.0, 7)

    def shifted(pts):
        a, e = q(pts)
        e = e.copy()
        e[..., 2] += 0.37
        return a, e

    d1 = deformation_identity(q, bg, x, h=1e-4)
    d2 = deformation_identity(shifted, bg, x, h=1e-4)
    assert abs(d1 - d2) < 1e-10


def test_deformation_linearization():
    # first-order t-expansion of the deformed residual reproduces D
    bg = ps_evaluator(ORIGIN)
    q = bump_pair([1.1, 0.2, -0.5], 1.2, 8)
    x = np.array([1.1, 0.2, -0.5])
    D1, _ = apply_D(q, bg, x, h=1e-4)
    g0 = fd_curvature(bg, x[None, :], h=1e-4).g[0]
    t = 1e-5

    def deformed(pts):
        a, phi = bg(pts)
        al, et = q(pts)
        return a + t * al, phi + t * et

    gt = fd_curvature(deformed, x[None, :], h=1e-4).g[0]
    lin = (gt - g0) / t
    assert np.abs(lin - D1).max() < 1e-4 * max(1.0, np.abs(D1).max())


def test_weitzenbock_flat_constant_exact():
    bg = flat_bg(0.8)
    u = constant_pair(np.eye(3) * 0.3, [0.1, -0.2, 0.4])
    d = weitzenbock_defect(u, bg, np.array([0.5, 0.5, 0.5]), h=1e-4)
    assert d < 1e-9


def test_weitzenbock_core_background_order():
    u = bump_pair([1.2, 0.1, -0.3], 1.0, 9)
    x = np.array([1.2, 0.1, -0.3])
    d1 = weitzenbock_defect(u, ps_evaluator(ORIGIN), x, h=2e-4)
    d2 = weitzenbock_defect(u, ps_evaluator(ORIGIN), x, h=1e-4)
    assert d1 / d2 == pytest.approx(4.0, abs=0.9)


def test_weitzenbock_glued_background_order(cfg100):
    # residual-supported region, where the curvature term G(u) is nonzero
    i = 11
    u_dir = np.array([0.6, 0.64, 0.48])
    u_dir /= np.linalg.norm(u_dir)
    x = cfg100.points[i] + 0.17 * cfg100.L * u_dir
    u = bump_pair(x, 0.05 * cfg100.L, 10)
    bg = ball_evaluator(cfg100, i)
    d1 = weitzenbock_defect(u, bg, x, h=4e-5)
    d2 = weitzenbock_defect(u, bg, x, h=2e-5)
    assert d1 / d2 == pytest.approx(4.0, abs=1.2)


# `operator_suite(seed=0)` values, to the bit: the Weitzenboeck check's
# nested stencils are `_central_differences` batches of the same points
OPERATOR_SUITE_SEED0 = {
    "deformation_identity_rel": "0x1.4ddbc553531cdp-42",
    "weitzenbock_order_flat": "0x1.0000000000000p+2",
    "weitzenbock_order_core": "0x1.000022ac17502p+2",
    "weitzenbock_order_glued": "0x1.0000eaae2ca05p+2",
    "adjointness_gap_rel": "0x1.b91f5f2334176p-33",
    "hash_symmetry": "0x0.0p+0",
    "local_degree_sum": "0x0.0p+0",
}


def test_operator_suite_values_are_pinned():
    from magbag.suites import operator_suite

    got = {e["check"]: e["value"] for e in operator_suite(seed=0)}
    assert got == {k: float.fromhex(v) for k, v in OPERATOR_SUITE_SEED0.items()}


def test_adjointness_gap_flat():
    q1 = bump_pair([0.2, 0.1, -0.3], 1.2, 11)
    q2 = bump_pair([-0.3, 0.25, 0.1], 1.2, 12)
    gap, scale = adjointness_gap(q1, q2, flat_bg(), ((-2, 2), (-2, 2), (-2, 2)), n_nodes=20)
    assert gap / scale < 1e-6
    # sign flip of both pairs leaves the gap unchanged (bilinearity)
    def neg(ev):
        def out(pts):
            a, e = ev(pts)
            return -a, -e

        return out

    gap2, _ = adjointness_gap(neg(q1), neg(q2), flat_bg(), ((-2, 2), (-2, 2), (-2, 2)), n_nodes=20)
    assert abs(gap - gap2) < 1e-12 * max(1.0, scale)


def test_adjointness_gap_matches_union_support():
    # each pairing is integrated over its partner's support only
    q1 = bump_pair([0.4, 0.1, -0.2], 0.9, 21)
    q2 = bump_pair([-0.3, -0.2, 0.1], 0.8, 22)
    box, n = ((-2, 2), (-2, 2), (-2, 2)), 24
    gap, scale = adjointness_gap(q1, q2, flat_bg(), box, n_nodes=n)
    axis = -2.0 + (4.0 / n) * (np.arange(n) + 0.5)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    total1, total2 = union_support_pairings(q1, q2, flat_bg(), pts, (4.0 / n) ** 3)
    assert scale == pytest.approx(abs(total1), rel=1e-14)
    assert abs(gap - abs(total1 - total2)) <= 1e-14 * scale


def test_adjointness_gap_zero_pair():
    z = constant_pair(np.zeros((3, 3)), np.zeros(3))
    q = bump_pair([0, 0, 0], 1.0, 13)
    gap, _ = adjointness_gap(z, q, flat_bg(), ((-2, 2), (-2, 2), (-2, 2)), n_nodes=12)
    assert gap == 0.0


def _suite_pairs():
    return (
        bump_pair(np.array([0.2, 0.1, -0.3]), 1.2, 3),
        bump_pair(np.array([-0.3, 0.25, 0.1]), 1.2, 4),
    )


BOX = ((-2, 2), (-2, 2), (-2, 2))


@pytest.mark.parametrize("n_nodes", [12, 20, 48, 64])
def test_adjointness_gap_equals_whole_grid(n_nodes):
    # 64^3 nodes fill 36 scan blocks of 7281 rows, the last partial, and each
    # support (about 30k nodes) ends in a partial apply_D block of 1040 rows
    q1, q2 = _suite_pairs()
    got = adjointness_gap(q1, q2, flat_bg(), BOX, n_nodes=n_nodes)
    assert got == whole_grid_adjointness_gap(q1, q2, flat_bg(), BOX, n_nodes=n_nodes)


def test_adjointness_gap_zero_pair_equals_whole_grid():
    z = constant_pair(np.zeros((3, 3)), np.zeros(3))
    q = bump_pair([0, 0, 0], 1.0, 13)
    for pair in ((z, q), (q, z)):
        got = adjointness_gap(*pair, flat_bg(), BOX, n_nodes=20)
        assert got == whole_grid_adjointness_gap(*pair, flat_bg(), BOX, n_nodes=20)


@pytest.mark.parametrize("centre", [[-1.9, 0.0, 0.0], [1.9, 0.0, 0.0]])
def test_adjointness_gap_rejects_support_on_the_boundary(centre):
    # the first and the last scan block each hold a touched face
    q = bump_pair(centre, 0.5, 17)
    for pair in ((q, _suite_pairs()[0]), (_suite_pairs()[0], q)):
        with pytest.raises(ValueError, match="boundary"):
            adjointness_gap(*pair, flat_bg(), BOX, n_nodes=48)


def test_adjointness_gap_rejects_an_underflowing_pair_on_the_boundary():
    # 1e-170 squares to zero: the support is where an entry is nonzero
    tiny = constant_pair(np.full((3, 3), 1e-170), np.full(3, 1e-170))
    q = _suite_pairs()[0]
    for pair in ((tiny, q), (q, tiny), (tiny, tiny)):
        with pytest.raises(ValueError, match="boundary"):
            adjointness_gap(*pair, flat_bg(), BOX, n_nodes=12)
        with pytest.raises(ValueError, match="boundary"):
            whole_grid_adjointness_gap(*pair, flat_bg(), BOX, n_nodes=12)


@pytest.mark.parametrize("n_nodes", [0, 1, 2, -5, 2.0, 48.0, True, None, "48"])
def test_adjointness_gap_rejects_bad_node_count(n_nodes):
    q1, q2 = _suite_pairs()
    with pytest.raises(InvalidParameterError, match="n_nodes"):
        adjointness_gap(q1, q2, flat_bg(), BOX, n_nodes=n_nodes)


@pytest.mark.parametrize(
    "box",
    [
        ((2, -2), (-2, 2), (-2, 2)),  # reversed
        ((-2, 2), (1, 1), (-2, 2)),  # empty
        ((-2, math.inf), (-2, 2), (-2, 2)),
        ((-2, 2), (-2, 2), (math.nan, 2)),
        ((-2, 2), (-2, 2)),  # two axes
        ((-2, 2), (-2, 2), (-2, 2), (-2, 2)),
        ((-2, 2, 3), (-2, 2), (-2, 2)),
        ((-2, "2"), (-2, 2), (-2, 2)),
        None,
    ],
)
def test_adjointness_gap_rejects_bad_box(box):
    q1, q2 = _suite_pairs()
    with pytest.raises(InvalidParameterError, match="box"):
        adjointness_gap(q1, q2, flat_bg(), box, n_nodes=12)


@pytest.mark.parametrize("width", [0, 0.0, -1.0, math.nan, math.inf, None, "1", True])
def test_bump_pair_rejects_bad_width(width):
    with pytest.raises(InvalidParameterError, match="width"):
        bump_pair([0, 0, 0], width, 1)


@pytest.mark.parametrize("h", [0.0, math.nan, math.inf, -1e-4, True])
def test_fd_steps_must_be_finite_and_positive(h):
    # a zero, non-finite or negative step gave NaN tables, and True read as 1.0
    x = np.array([[0.3, -0.2, 0.5]])
    with pytest.raises(InvalidParameterError, match="h must be finite and positive"):
        fd_curvature(ps_evaluator(ORIGIN), x, h=h)
    with pytest.raises(InvalidParameterError, match="h must be finite and positive"):
        laplacian_identity(x[0], ps_evaluator(ORIGIN), h=h)


def test_adjointness_gap_memory_is_bounded():
    q1, q2 = _suite_pairs()
    tracemalloc.start()
    try:
        adjointness_gap(q1, q2, flat_bg(), BOX, n_nodes=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the support's grid indices plus one product table per pairing; whole-grid
    # tables at 64^3 nodes need about 131 MB
    assert peak <= 8e6
