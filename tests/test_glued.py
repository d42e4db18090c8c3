import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magbag import glued, shell
from magbag.analysis import fibonacci_sphere
from magbag.glued import (
    ChartViolationError,
    chi,
    chi_prime,
    grad_phi_theta,
    higgs_norm,
    phi_theta,
    residual_fields,
)
from magbag.monopole import ScaledMonopole, SingularEvaluationError, ps_evaluator
from magbag.operators import fd_curvature
from magbag.shell import _BLOCK_ELEMENTS, InvalidParameterError, make_shell_config
from magbag.su2 import bracket, form_norm

from oracles import (
    EPS,
    alpha_closed_form,
    alpha_pq,
    alpha_quadrature,
    eta_pq,
    difference_distances,
    difference_grad_phi_theta,
    higgs_norm_residual_sweep,
    multipole_far_field,
    per_shell_residual_sweep,
    whole_sphere_flux_density,
    whole_sphere_higgs_norm,
)


# --- cutoff ---------------------------------------------------------------

def test_chi_plateaus_exact():
    assert chi(0.25) == 1.0 and chi(-3.0) == 1.0
    assert chi(0.5) == 0.0 and chi(2.0) == 0.0
    assert 0.0 < chi(0.375) < 1.0


@given(st.floats(min_value=-1, max_value=2), st.floats(min_value=-1, max_value=2))
@settings(max_examples=300)
def test_chi_monotone(t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    assert chi(lo) >= chi(hi) - 1e-12


def test_chi_prime_matches_fd():
    ts = np.linspace(0.26, 0.49, 41)
    h = 1e-6
    fd = (chi(ts + h) - chi(ts - h)) / (2 * h)
    np.testing.assert_allclose(chi_prime(ts), fd, atol=1e-6)
    assert np.all(chi_prime(ts) <= 0)


def test_chi_p_radii(cfg100):
    # the ball cutoff chi(8 d / L - 1): 1 inside radius L/8, 0 outside 3L/16
    L = cfg100.L
    assert chi(8 * (L / 8) / L - 1) == 1.0
    assert chi(8 * (3 * L / 16) / L - 1) == 0.0
    rads = np.linspace(1e-3, L, 1000)
    vals = chi(8 * rads / L - 1)
    assert np.all(np.diff(vals) <= 1e-12)


# --- exterior potential -----------------------------------------------------

def test_phi_theta_center(cfg100):
    # every point sits at distance R: 1 - N/R exactly
    assert phi_theta(np.zeros(3), cfg100) == pytest.approx(
        1 - 100 / cfg100.R, rel=1e-12
    )


def test_phi_theta_far_field(cfg100):
    rng = np.random.default_rng(0)
    dirs = rng.normal(size=(100, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    X = 10 * cfg100.R * dirs
    got = phi_theta(X, cfg100)
    want = np.array([multipole_far_field(x, cfg100.points) for x in X])
    assert np.max(np.abs(got - want) / np.abs(want)) < 0.02


def test_phi_theta_positive_outside_shell(cfg100):
    rng = np.random.default_rng(1)
    dirs = rng.normal(size=(100, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    vals = phi_theta((cfg100.R + 2 * cfg100.L) * dirs, cfg100)
    assert np.all(vals > 0)


def test_phi_theta_singular(cfg100):
    with pytest.raises(SingularEvaluationError):
        phi_theta(cfg100.points[3], cfg100)
    with pytest.raises(SingularEvaluationError):
        phi_theta(np.stack([np.zeros(3), cfg100.points[3]]), cfg100)


@pytest.mark.parametrize("N", [25, 100, 256])
def test_distance_tables_equal_difference_oracle(N, monkeypatch):
    cfg = make_shell_config(N, 16.0)
    grad = _distance_tables_equal_difference_oracle(cfg)
    # 7-row blocks, the last of them short
    monkeypatch.setattr(shell, "_BLOCK_ELEMENTS", 7 * N)
    assert np.array_equal(_distance_tables_equal_difference_oracle(cfg), grad)


def _distance_tables_equal_difference_oracle(cfg):
    """Checks the point evaluators against the difference oracles; returns
    `grad_phi_theta` at the points checked."""
    rng = np.random.default_rng(cfg.N)
    near = cfg.points[rng.integers(0, cfg.N, 300)] + rng.normal(size=(300, 3)) * cfg.L / 3
    far = rng.normal(size=(300, 3)) * 2.0 * cfg.R
    X = np.concatenate([near, far])
    d = difference_distances(X, cfg.points)
    assert np.array_equal(phi_theta(X, cfg), 1.0 - np.sum(1.0 / d, axis=-1))
    grad = grad_phi_theta(X, cfg)
    want, scale = difference_grad_phi_theta(X, cfg.points)
    assert np.all(np.abs(grad - want) <= 1e-14 * scale)
    assert grad_phi_theta(X[0], cfg).shape == (3,)
    assert np.array_equal(grad_phi_theta(X[:10].reshape(2, 5, 3), cfg), grad[:10].reshape(2, 5, 3))
    assert grad_phi_theta(np.zeros((0, 3)), cfg).shape == (0, 3)
    X = np.concatenate([X, cfg.points[:3]])  # the core value 0 at a shell point
    want = glued._higgs_from_distances(difference_distances(X, cfg.points), cfg)
    assert np.array_equal(higgs_norm(X, cfg), want)

    # one point, a (2, 5) batch and no points keep their shapes and types
    one = phi_theta(X[0], cfg)
    assert type(one) is np.float64 and one == 1.0 - np.sum(1.0 / d[0])
    one = higgs_norm(X[0], cfg)
    assert type(one) is float and one == want[0]
    assert np.array_equal(phi_theta(X[:10].reshape(2, 5, 3), cfg),
                          (1.0 - np.sum(1.0 / d[:10], axis=-1)).reshape(2, 5))
    assert np.array_equal(higgs_norm(X[:10].reshape(2, 5, 3), cfg), want[:10].reshape(2, 5))
    for f in (phi_theta, higgs_norm):
        none = f(np.zeros((0, 3)), cfg)
        assert type(none) is np.ndarray and none.shape == (0,)

    # Coulomb sums at a shell point, from the (N, 3) differences
    p = cfg.points[5]
    d = difference_distances(p, cfg.points)
    away = d[d > 1e-12 * max(1.0, float(d.max()))]
    assert shell.coulomb_sums(cfg.points, p, cfg.L) == (
        float(np.sum(1.0 / away)), float(np.sum(1.0 / away**2)),
        float(np.sum(1.0 / (d + cfg.L))), float(np.sum(1.0 / (d + cfg.L) ** 2)))
    return grad


def test_point_evaluators_memory_is_bounded():
    # one (20000, 1600) distance table alone takes 256 MB; the row blocks
    # take two buffers of 512 kB
    cfg = make_shell_config(1600, 16.0)
    X = np.random.default_rng(0).normal(size=(20000, 3)) * cfg.R
    tracemalloc.start()
    try:
        phi_theta(X, cfg)
        higgs_norm(X, cfg)
        grad_phi_theta(X, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# --- eta and the gauge primitive -------------------------------------------

def test_eta_basics():
    p = np.zeros(3)
    q = np.array([10.0, 0, 0])
    assert eta_pq(p, p, q) == 0.0
    x = np.array([2.0, 0, 0])  # collinear, q outside
    assert eta_pq(x, p, q) == pytest.approx(1 / 8 - 1 / 10)
    with pytest.raises(SingularEvaluationError):
        eta_pq(q, p, q)


def test_eta_linear_bound(cfg100):
    # |eta| <= 4 |x-p| / |p-q|^2 inside the ball (separation >= 2L)
    rng = np.random.default_rng(2)
    p = cfg100.points[0]
    q = cfg100.points[1]
    dpq = np.linalg.norm(p - q)
    for _ in range(100):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        x = p + rng.uniform(0, cfg100.L) * u
        assert abs(eta_pq(x, p, q)) <= 4 * np.linalg.norm(x - p) / dpq**2


def test_alpha_vanishes_at_center_and_radially():
    p = np.array([1.0, -2.0, 0.5])
    q = p + np.array([30.0, 5.0, -4.0])
    assert np.all(alpha_pq(p, p, q) == 0)
    x = p + np.array([0.3, 0.7, -0.2])
    al = alpha_pq(x, p, q)
    assert abs(np.dot(al, x - p)) < 1e-18


def test_alpha_matches_closed_form():
    # both oracles: the textbook antiderivative and Gauss-Legendre quadrature
    rng = np.random.default_rng(3)
    p = np.array([1.0, -2.0, 0.5])
    for _ in range(50):
        q = p + rng.normal(size=3) * 40
        x = p + rng.normal(size=3)
        got = alpha_pq(x, p, q)
        for want in (alpha_closed_form(x, p, q), alpha_quadrature(x, p, q, 64)):
            assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())


def test_alpha_on_the_line_through_p_and_q():
    p = np.array([1.0, -2.0, 0.5])
    q = p + np.array([8.0, -4.0, 2.0])
    # ball side: between p and q and behind p, where the old antiderivative
    # divided 0 by 0; the cross product vanishes exactly
    for t in (0.25, -0.5, 0.125):
        al = alpha_pq(p + t * (q - p), p, q)
        assert np.all(np.isfinite(al)) and np.all(al == 0.0)
    # past q on the far ray the segment integral diverges: the tail sums'
    # weight refuses it
    D = p - q
    for x in (q, q + 0.5 * (q - p), q + 3.0 * (q - p)):
        with pytest.raises(SingularEvaluationError):
            glued._alpha_weight(np.linalg.norm(x - q), np.linalg.norm(D), (x - q) @ D)


def test_eta_alpha_sums_match_per_source_oracles():
    cfg = make_shell_config(256, 16.0)
    rng = np.random.default_rng(7)
    for p_idx in (0, 100, 255):
        p = cfg.points[p_idx]
        dirs = rng.normal(size=(64, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        X = p + rng.uniform(cfg.L / 8, cfg.L / 4, 64)[:, None] * dirs
        eta, alpha = glued._eta_alpha_sums(X, p_idx, cfg)
        Q = np.delete(cfg.points, p_idx, axis=0)
        want = sum(alpha_quadrature(X, p, q, 16) for q in Q)
        err = np.linalg.norm(alpha - want, axis=1)
        assert np.max(err / np.linalg.norm(want, axis=1)) <= 1e-13
        # eta_pq subtracts 1/|p-q| from 1/|x-q|, so the per-source oracle
        # carries cancellation of order 1e-13 of sum |eta_pq|
        terms = np.array([eta_pq(X, p, q) for q in Q])
        scale = np.abs(terms).sum(axis=0)
        assert np.max(np.abs(eta - terms.sum(axis=0)) / scale) <= 1e-12


def test_eta_alpha_sums_reuse_their_buffers(monkeypatch):
    # 7-row blocks, the last ragged, in buffers reused from block to block,
    # give the one-block sums: eta bit for bit, and alpha to rounding, as
    # BLAS may sum the (rows, N - 1) @ (N - 1, 3) product in an order that
    # depends on the row count
    cfg = make_shell_config(32, 16.0)
    rng = np.random.default_rng(3)
    X = cfg.points[3] + rng.uniform(-0.2, 0.2, (100, 3)) * cfg.L
    eta, alpha = glued._eta_alpha_sums(X, 3, cfg)
    monkeypatch.setattr(shell, "_BLOCK_ELEMENTS", 7 * 31)
    eta_blocked, alpha_blocked = glued._eta_alpha_sums(X, 3, cfg)
    assert np.array_equal(eta, eta_blocked)
    np.testing.assert_allclose(alpha_blocked, alpha, rtol=1e-13, atol=0)


def test_eta_alpha_sums_memory_is_bounded():
    # five (rows, N - 1) block buffers, allocated once per call; a fresh
    # temporary per step of each block held six or more at once
    cfg = make_shell_config(1600, 16.0)
    X = cfg.points[5] + np.random.default_rng(0).normal(size=(2048, 3)) * 0.2 * cfg.L
    tracemalloc.start()
    try:
        glued._eta_alpha_sums(X, 5, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 8 * _BLOCK_ELEMENTS


def test_alpha_fd_exterior_derivative():
    # defining property: d(alpha) = *d(eta), checked componentwise by fd
    p = np.array([0.0, 0.0, 0.0])
    q = np.array([12.0, -3.0, 5.0])
    x = np.array([0.4, 0.2, -0.3])
    h = 1e-5
    dal = np.zeros((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        dal[j] = (alpha_pq(x + e, p, q) - alpha_pq(x - e, p, q)) / (2 * h)
    curl = dal - dal.T
    grad_eta = -(x - q) / np.linalg.norm(x - q) ** 3
    star_deta = np.einsum("jlk,k->jl", EPS, grad_eta)
    assert np.abs(curl - star_deta).max() < 1e-10 * np.abs(star_deta).max() + 1e-14


def test_alpha_linear_bound(cfg100):
    p = cfg100.points[0]
    q = cfg100.points[4]
    dpq = np.linalg.norm(p - q)
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        x = p + rng.uniform(0, cfg100.L) * u
        assert np.linalg.norm(alpha_pq(x, p, q)) <= 4 * np.linalg.norm(x - p) / dpq**2


# --- ball pairs -------------------------------------------------------------

def test_chart_regions(cfg100):
    p = cfg100.points[0]
    with pytest.raises(ChartViolationError):
        glued.ball_fields(p + np.array([[cfg100.L, 0, 0]]) * 1.5, 0, cfg100)


def test_chart_core_region_is_rescaled_core(cfg100):
    # inside radius L/8 the ball pair is exactly the scale-r_p smooth core
    i = 5
    p = cfg100.points[i]
    mono = ScaledMonopole(center=p, scale=cfg100.residues[i])
    rng = np.random.default_rng(5)
    dirs = rng.normal(size=(20, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    X = p + rng.uniform(0, cfg100.L / 8, 20)[:, None] * dirs
    got_a, got_phi = glued.ball_fields(X, i, cfg100)
    want_a, want_phi = ps_evaluator(mono)(X)
    np.testing.assert_allclose(got_phi, want_phi, atol=1e-14)
    np.testing.assert_allclose(got_a, want_a, atol=1e-14)


def test_chart_overlap_flux_density(cfg100):
    # gauge-invariant curvature agreement on the overlap: the radial-frame
    # component of the ball-chart *F matches grad(phi_theta) at O(h^2)
    i = 17
    p = cfg100.points[i]
    rng = np.random.default_rng(20)
    dirs = rng.normal(size=(20, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    rads = rng.uniform(3 * cfg100.L / 16, 0.9 * cfg100.L, 20)
    X = p + rads[:, None] * dirs
    want = grad_phi_theta(X, cfg100)
    diffs = []
    for h in (1e-4, 5e-5):
        cur = fd_curvature(glued.ball_evaluator(cfg100, i), X, h=h)
        xh = (X - p) / np.linalg.norm(X - p, axis=1)[:, None]
        flux_1form = np.einsum("bmk,bk->bm", cur.star_F, xh)
        diffs.append(np.abs(flux_1form - want).max())
    assert diffs[0] < 1e-6 * (1.0 + np.abs(want).max())
    assert diffs[0] / diffs[1] == pytest.approx(4.0, abs=0.8)


def test_chart_overlap_norm_identity(cfg100):
    # algebraic cancellation: |phi_ball| = |phi_theta| where chi = 0
    rng = np.random.default_rng(6)
    i = 17
    p = cfg100.points[i]
    dirs = rng.normal(size=(200, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    rads = rng.uniform(3 * cfg100.L / 16, 0.999 * cfg100.L, 200)
    X = p + rads[:, None] * dirs
    _, phi = glued.ball_fields(X, i, cfg100)
    chart_norm = np.linalg.norm(phi, axis=1)
    ext_norm = np.abs(phi_theta(X, cfg100))
    assert np.max(np.abs(chart_norm - ext_norm) / ext_norm) < 1e-12


@given(st.integers(min_value=8, max_value=600), st.floats(min_value=1.5, max_value=256.0),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=20, deadline=None)
def test_chart_overlap_identity_at_any_charge(N, m, seed):
    # where chi = 0 the ball chart's |phi| is r_p - 1/d - sum_q eta_pq, which
    # is |phi_theta| exactly when r_p = 1 - sum_q 1/|p - q|: the identity
    # checks the residues to rounding (absolutely, as phi_theta has zeros)
    cfg = make_shell_config(N, m)
    rng = np.random.default_rng(seed)
    i = int(rng.integers(N))
    dirs = rng.normal(size=(50, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    X = cfg.points[i] + rng.uniform(3 * cfg.L / 16, 0.999 * cfg.L, 50)[:, None] * dirs
    _, phi = glued.ball_fields(X, i, cfg)
    assert np.max(np.abs(np.linalg.norm(phi, axis=1) - np.abs(phi_theta(X, cfg)))) <= 1e-12


def test_chart_boundary_lower_bound(cfg100):
    # |phi| at the L/4 sphere >= r_p - 4 L sum_q 1/|p-q|^2
    i = 9
    p = cfg100.points[i]
    others = np.delete(cfg100.points, i, axis=0)
    s2 = np.sum(1.0 / np.linalg.norm(others - p, axis=1) ** 2)
    dirs = np.random.default_rng(7).normal(size=(100, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    X = p + (cfg100.L / 4) * dirs
    vals = higgs_norm(X, cfg100)
    # the harmonic tail shifts |phi| below r_p by at most the dipole scale
    assert np.all(vals >= cfg100.residues[i] - 1 / (cfg100.L / 4) - 4 * cfg100.L * s2)


def test_higgs_norm_zero_on_points(cfg100):
    assert np.all(higgs_norm(cfg100.points[:10], cfg100) == 0.0)


def test_higgs_norm_outside_every_ball_is_abs_phi_theta(cfg100):
    # samples at distance >= L from every shell point never take the ball
    # chart: |Phi| is |phi_theta| to the last bit
    rng = np.random.default_rng(5)
    dirs = rng.normal(size=(2000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    near = cfg100.points[rng.integers(0, cfg100.N, 2000)]
    near += cfg100.L * rng.uniform(1.0, 4.0, 2000)[:, None] * dirs
    X = np.concatenate([near, rng.normal(size=(500, 3)) * 2.0 * cfg100.R])
    X = X[np.min(difference_distances(X, cfg100.points), axis=1) >= cfg100.L]
    assert len(X) > 1500
    assert np.array_equal(higgs_norm(X, cfg100), np.abs(phi_theta(X, cfg100)))


def test_higgs_norm_continuous_across_dispatch(cfg100):
    i = 3
    p = cfg100.points[i]
    u = np.array([0.4, -0.8, 0.45])
    u /= np.linalg.norm(u)
    inside = higgs_norm(p + 0.9999999 * cfg100.L * u, cfg100)
    outside = higgs_norm(p + 1.0000001 * cfg100.L * u, cfg100)
    assert abs(inside - outside) < 1e-6


def test_higgs_norm_center_value(cfg100):
    u = cfg100.m * np.log(cfg100.N) / np.sqrt(cfg100.N)
    assert higgs_norm(np.zeros(3), cfg100) == pytest.approx(u / (1 + u), rel=1e-12)


def test_higgs_norm_matches_chart(cfg100):
    i = 12
    rng = np.random.default_rng(8)
    dirs = rng.normal(size=(50, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    X = cfg100.points[i] + rng.uniform(0.01, 0.999, 50)[:, None] * cfg100.L * dirs
    _, phi = glued.ball_fields(X, i, cfg100)
    np.testing.assert_allclose(
        higgs_norm(X, cfg100), np.linalg.norm(phi, axis=1), rtol=1e-11, atol=1e-13
    )


def test_desk_scale_profile_has_interior_zero(cfg100):
    # r_p L ~ 1.1 here, far below the ~16/3 needed for a monotone profile:
    # the blended Higgs coefficient changes sign inside the ball, which is
    # the root cause of the weighted-norm divergence at this scale
    i = 0
    p = cfg100.points[i]
    u = np.array([1.0, 0, 0])
    ds = np.linspace(0.15 * cfg100.L, 0.999 * cfg100.L, 2000)
    vals = higgs_norm(p + ds[:, None] * u, cfg100)
    assert vals.min() < 0.02  # profile dips to (near) zero off-centre
    assert cfg100.residues[i] * cfg100.L < 16.0 / 3.0


# --- origin-centred spheres ----------------------------------------------------

@pytest.mark.parametrize("N", [25, 100, 256])
def test_sphere_higgs_norm_matches_pointwise(N):
    cfg = make_shell_config(N, 16.0)
    # lattice directions plus the direction of every shell point, so the
    # spheres through R pass exactly through the zeros
    shell_dirs = cfg.points / np.linalg.norm(cfg.points, axis=1)[:, None]
    dirs = np.vstack([fibonacci_sphere(512), shell_dirs])
    radii = np.concatenate([
        [0.05 * cfg.R, 0.5 * cfg.R],
        cfg.R + cfg.L * np.linspace(-1.2, 1.2, 25),  # the ball branch
        [2.0 * cfg.R, 40.0 * cfg.R],
    ])
    sphere = glued.sphere_higgs_norm(dirs, cfg)
    for r in radii:
        want = higgs_norm(r * dirs, cfg)
        # absolute where |Phi| <= 1; above it (|Phi| ~ 1/d within L/4 of a
        # zero) the oracle's points r*u carry the rounding of coordinates of
        # size R, and both sides sit within 4e-13 relative of a 30-digit sum
        assert np.all(np.abs(sphere(r) - want) <= 1e-12 * np.maximum(1.0, want))


def _point_sets():
    rng = np.random.default_rng(31)
    seeded = rng.normal(size=(40, 3)) * rng.uniform(0.1, 3.0, size=(40, 1))
    return {
        "centre": SimpleNamespace(points=np.zeros((1, 3))),
        "seeded": SimpleNamespace(points=np.vstack([np.zeros(3), seeded])),
    }


@pytest.mark.parametrize("name", ["centre", "seeded", "cfg25", "cfg100"])
def test_flux_density_matches_whole_table(name, request):
    # the flux density of `flux_charge`, grad phi_theta(r u) . u
    cfg = request.getfixturevalue(name) if name.startswith("cfg") else _point_sets()[name]
    dirs = fibonacci_sphere(1024)
    outer = np.max(np.linalg.norm(cfg.points, axis=1)) + getattr(cfg, "L", 0.0)
    whole = whole_sphere_flux_density(dirs, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a centre point divides by nothing
        for r in (1.2 * outer + 0.5, 1.5 * outer + 1.0, 4.0 * outer + 2.0):
            density = np.einsum("bi,bi->b", grad_phi_theta(r * dirs, cfg), dirs)
            want = whole(r)
            assert np.max(np.abs(density - want) / np.abs(want)) <= 1e-12


def test_grad_phi_theta_singular_on_a_point(cfg25):
    with pytest.raises(SingularEvaluationError):
        grad_phi_theta(cfg25.points[4], cfg25)


def _block_counts(n_sources):
    """Direction counts below one row block, on one, on two and straddling one."""
    rows = _BLOCK_ELEMENTS // n_sources
    return [rows // 3, rows, 2 * rows, rows + 1, 2 * rows + 7]


def _dirs_through(points, B):
    """B unit directions: those of the nonzero points first, then a lattice."""
    pn = np.linalg.norm(points, axis=1)
    through = points[pn > 0] / pn[pn > 0][:, None]
    return np.vstack([through, fibonacci_sphere(B)])[:B]


@pytest.mark.parametrize("name", ["cfg25", "cfg100"])
def test_sphere_higgs_norm_equals_whole_table(name, request):
    cfg = request.getfixturevalue(name)
    edge = 1.0 + np.array([-1.0, 1.0]) * 2.0**-40
    radii = np.concatenate([
        [0.1 * cfg.R, 0.5 * cfg.R, cfg.R],
        cfg.R + cfg.L * np.linspace(-1.2, 1.2, 7),  # the ball band
        # either side of the edge where every row clears the balls
        cfg.R + cfg.L * np.concatenate([-edge, edge, [-2.0, 2.0]]),
        [2.0 * cfg.R, 3.0 * cfg.R],
    ])
    for B in _block_counts(cfg.N):
        dirs = _dirs_through(cfg.points, B)
        with np.errstate(divide="ignore"):
            sphere, whole = glued.sphere_higgs_norm(dirs, cfg), whole_sphere_higgs_norm(dirs, cfg)
            for r in radii:
                assert np.array_equal(sphere(r), whole(r))


def _raises_in_a_later_block(f, cfg):
    """f raises its SingularEvaluationError, unchanged, at a shell point in
    row block 1 (a pool thread's with two parts) or 2 (the caller's) of three."""
    rows = _BLOCK_ELEMENTS // cfg.N
    for block in (1, 2):
        X = 2.0 * cfg.R * fibonacci_sphere(2 * rows + 3)
        X[block * rows + 1] = cfg.points[4]
        with pytest.raises(SingularEvaluationError,
                           match=f"{f.__name__} evaluated on a shell point"):
            f(X, cfg)


def test_grad_phi_theta_singular_in_a_later_block(cfg25, monkeypatch):
    monkeypatch.setattr(shell, "_WORKERS", 2)
    _raises_in_a_later_block(grad_phi_theta, cfg25)


def test_phi_theta_singular_in_a_later_block(cfg25, monkeypatch):
    monkeypatch.setattr(shell, "_WORKERS", 2)
    _raises_in_a_later_block(phi_theta, cfg25)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_block_parallel_evaluators_equal_the_serial_ones(workers, cfg100, monkeypatch):
    # 13-row blocks, so that every input spans five or more of them, dealt
    # to 1, 2 or 3 parts, give the serial one-part values bit for bit, with
    # the threads switching as often as the interpreter allows
    rng = np.random.default_rng(4)
    near = cfg100.points[rng.integers(0, 100, 60)] + rng.normal(size=(60, 3)) * cfg100.L
    X = np.concatenate([near, rng.normal(size=(40, 3)) * 2.0 * cfg100.R, cfg100.points[:2]])
    dirs = fibonacci_sphere(100)
    radii = [0.5 * cfg100.R, cfg100.R, cfg100.R + 0.5 * cfg100.L,  # the ball band
             cfg100.R + 2.0 * cfg100.L, 2.0 * cfg100.R]  # clear of every ball
    monkeypatch.setattr(shell, "_WORKERS", 1)

    def evaluate():
        sphere = glued.sphere_higgs_norm(dirs, cfg100)
        return [phi_theta(X[:-2], cfg100), higgs_norm(X, cfg100), grad_phi_theta(X[:-2], cfg100),
                *(sphere(r) for r in radii)]

    want = evaluate()
    monkeypatch.setattr(shell, "_BLOCK_ELEMENTS", 13 * 100)
    monkeypatch.setattr(shell, "_WORKERS", workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = evaluate()
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_glued_takes_the_sphere_lattice_from_shell():
    # evaluating glued never loads analysis, which imports glued; analysis
    # still exports the lattice
    code = ("import sys; import numpy as np; from magbag import glued; "
            "glued._shell_grid(np.ones(2), 8); assert 'magbag.analysis' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": str(Path(glued.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=300)
    assert fibonacci_sphere is shell.fibonacci_sphere


# --- residual ----------------------------------------------------------------

def test_residual_support(cfg100):
    i = 2
    p = cfg100.points[i]
    rng = np.random.default_rng(9)
    dirs = rng.normal(size=(5000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    inner_pts = p + rng.uniform(1e-6, cfg100.L / 8, 5000)[:, None] * dirs
    gT, gL = residual_fields(inner_pts, i, cfg100)
    assert np.all(gT == 0) and np.all(gL == 0)
    outer_pts = p + rng.uniform(cfg100.L / 4, cfg100.L, 5000)[:, None] * dirs
    gT, gL = residual_fields(outer_pts, i, cfg100)
    assert np.all(gT == 0) and np.all(gL == 0)


def test_residual_split_properties(cfg100):
    i = 2
    pts = glued.annulus_points(cfg100, i, 8, 64)
    gT, gL = residual_fields(pts, i, cfg100)
    xh = pts - cfg100.points[i]
    xh /= np.linalg.norm(xh, axis=1)[:, None]
    live = form_norm(gT) > 0
    # transverse: no component along sigma_hat
    lng = np.abs(np.einsum("bk,bmk->bm", xh[live], gT[live])).max()
    assert lng <= 1e-10 * form_norm(gT[live]).max()
    # longitudinal: commutes with sigma_hat
    comm = bracket(xh[live][:, None, :], gL[live])
    assert np.sqrt(np.sum(comm**2, axis=(1, 2))).max() <= 1e-10 * form_norm(
        gL[live]
    ).max()


def test_residual_at_a_single_point(cfg100):
    i = 2
    x = cfg100.points[i] + np.array([0.17 * cfg100.L, 0, 0])
    gT, gL = residual_fields(x[None, :], i, cfg100)
    assert gT.shape == (1, 3, 3) and gL.shape == (1, 3, 3)
    assert form_norm(gT[0]) > 0


def test_residual_matches_fd_oracle(cfg100):
    # the closed-form residual converges to the fd residual at second order
    i = 2
    p = cfg100.points[i]
    rng = np.random.default_rng(10)
    dirs = rng.normal(size=(20, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    rads = rng.uniform(5 * cfg100.L / 32, 3 * cfg100.L / 16, 20)
    X = p + rads[:, None] * dirs
    gT, gL = residual_fields(X, i, cfg100)
    g_ex = gT + gL
    ev = glued.ball_evaluator(cfg100, i)
    diffs = []
    for h in (1e-4, 5e-5):
        g_fd = fd_curvature(ev, X, h=h).g
        diffs.append(form_norm(g_fd - g_ex).max())
    assert diffs[0] / diffs[1] == pytest.approx(4.0, abs=0.8)
    assert diffs[1] < 1e-3 * form_norm(g_ex).max()


def test_gstar_unstable_under_refinement(cfg100):
    # documented desk-scale behavior: the weighting divides by a Higgs norm
    # that vanishes on the support shell, so the sampled value swings by
    # orders of magnitude with the grid instead of converging
    (total1, _, _), (total2, _, _) = glued.gstar_doubling(cfg100, 4, 32, 4, 16)
    assert abs(total2 - total1) > 0.5 * min(total1, total2)


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("bad", [0, -2, 2.5, True])
def test_gstar_resolution_must_be_a_positive_integer(cfg25, position, bad):
    # an empty or fractional grid used to read as zero residual or fail in numpy
    sizes = [4, 32, 4, 16]
    sizes[position] = bad
    with pytest.raises(InvalidParameterError, match="integer >= 1"):
        glued.gstar_norm(cfg25, *sizes)


@pytest.mark.parametrize("sizes", [(0, 32), (4, 0), (4.0, 32)])
def test_annulus_maxima_rejects_empty_grid(cfg25, sizes):
    with pytest.raises(InvalidParameterError, match="integer >= 1"):
        glued.annulus_maxima(cfg25, *sizes)


def test_residual_report_keys(cfg25, monkeypatch):
    # one residual evaluation per block of support shells on the sampling
    # grid, shared by the maxima and the sup term, and one on the quadrature
    # grid; the weights reuse its |Phi|, so higgs_norm is never called
    calls = []
    original = glued._ball_residual
    monkeypatch.setattr(glued, "_ball_residual", lambda *args: calls.append(args) or original(*args))
    monkeypatch.setattr(glued, "higgs_norm", None)
    rep = glued.residual_report(cfg25, n_radial=4, n_angular=32)
    shells_per_block = glued._ROW_BUDGET // (4 * 32 + 8 * 64)
    assert len(calls) == 2 * math.ceil(cfg25.N / shells_per_block)
    monkeypatch.undo()

    assert set(rep) >= {"max_gT", "max_gL", "max_inner_sigma_g", "gstar", "per_annulus"}
    assert len(rep["per_annulus"]) == 25
    assert rep["max_gT"] > 0
    maxima = glued.annulus_maxima(cfg25, 4, 32)
    keys = ("max_gT", "max_gL", "max_inner_sigma_g")
    assert [[a[k] for k in keys] for a in rep["per_annulus"]] == maxima.T.tolist()
    assert [rep[k] for k in keys] == maxima.max(axis=1).tolist()
    gstar = (rep["gstar"], rep["gstar_sup_term"], rep["gstar_integral_term"])
    assert gstar == glued.gstar_norm(cfg25, 4, 32)


@pytest.mark.parametrize("N", [25, 64, 256])
def test_ball_residual_higgs_matches_higgs_norm(N):
    # |Phi| from the residual's own tail sum is higgs_norm on every live sample
    cfg = make_shell_config(N, 16.0)
    worst = 0.0
    n_live = 0
    for p_idx in range(0, N, max(1, N // 32)):
        pts = glued.annulus_points(cfg, p_idx, 8, 64)
        live, gT, gL, higgs = glued._ball_residual(pts, p_idx, cfg)
        want = higgs_norm(pts[live], cfg)
        worst = max(worst, float(np.max(np.abs(higgs - want) / np.maximum(1.0, want))))
        n_live += int(live.sum())
        assert len(gT) == len(gL) == len(higgs) == live.sum()
    assert n_live > 0
    assert worst <= 2e-15


def test_ball_residual_singular_on_any_point(cfg25):
    # d = 0 raises although the shell point itself is a dead sample (chi = 1)
    p = cfg25.points[3]
    X = np.stack([p + np.array([0.17 * cfg25.L, 0.0, 0.0]), p])
    with pytest.raises(SingularEvaluationError):
        glued._ball_residual(X, 3, cfg25)
    with pytest.raises(SingularEvaluationError):
        residual_fields(X, 3, cfg25)


@pytest.mark.parametrize("N", [25, 64])
def test_weighted_norm_matches_higgs_norm_sweep(N):
    cfg = make_shell_config(N, 16.0)
    res = (4, 32, 4, 16)
    maxima, sup_o, int_o = higgs_norm_residual_sweep(cfg, *res)
    _, sup2_o, int2_o = higgs_norm_residual_sweep(cfg, *(2 * k for k in res))
    want = [(sup_o + int_o, sup_o, int_o), (sup2_o + int2_o, sup2_o, int2_o)]
    np.testing.assert_allclose(glued.gstar_norm(cfg, *res), want[0], rtol=1e-12, atol=0)
    np.testing.assert_allclose(glued.gstar_doubling(cfg, *res), want, rtol=1e-12, atol=0)
    assert np.array_equal(glued.annulus_maxima(cfg, 4, 32), maxima)


@pytest.mark.parametrize(
    "N, res, budget",
    [
        (25, (4, 32, 4, 16), None),
        (64, (4, 32, 4, 16), None),
        (256, (4, 32, 4, 16), None),
        # blocks of 21 shells: the last block ends mid-configuration
        (64, (8, 128, 8, 64), None),
        # one shell per block
        (25, (4, 32, 4, 16), 1),
    ],
)
def test_residual_sweep_equals_per_shell_sweep(N, res, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(glued, "_ROW_BUDGET", budget)
    cfg = make_shell_config(N, 16.0)
    maxima, sup_term, int_term = glued._residual_sweep(cfg, res[0], res[1], res[2:])
    want = per_shell_residual_sweep(cfg, *res)
    assert np.array_equal(maxima, want[0])
    assert sup_term == want[1]
    assert int_term == want[2]


def test_residual_sweep_blocks_split_configurations():
    # the mid-configuration case above really ends a block inside the shell list
    shells_per_block = glued._ROW_BUDGET // (8 * 128 + 8 * 64)
    assert 64 % shells_per_block != 0 and shells_per_block < 64


def test_residual_report_memory_is_bounded():
    cfg = make_shell_config(256, 16.0)
    tracemalloc.start()
    try:
        glued.residual_report(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # blocks of at most _ROW_BUDGET sample rows, whatever N is
    assert peak <= 12e6
