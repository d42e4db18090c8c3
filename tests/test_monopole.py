import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magbag.monopole import (
    SERIES_CUTOFF,
    ScaledMonopole,
    SingularEvaluationError,
    _COTH_SERIES,
    _CSCH_SERIES,
    _odd_series,
    coth_minus_inv,
    inv_minus_csch,
    ps_evaluator,
)
from magbag.operators import fd_curvature
from magbag.shell import InvalidParameterError
from magbag.su2 import alg_norm, bracket, form_norm

from oracles import dirac_evaluator, polyval_odd_series

ORIGIN = ScaledMonopole(center=np.zeros(3), scale=1.0)


def test_profile_series_matches_highprec():
    # a 40-digit oracle over a geometric sweep of [1e-6, 400] that straddles
    # the series/direct switch; both branches are exact to a few ulp
    import mpmath

    mpmath.mp.dps = 40
    zs = np.concatenate(
        [np.geomspace(1e-6, 400.0, 601), SERIES_CUTOFF * (1 + np.array([-1e-12, 0.0, 1e-3]))]
    )
    got_h = coth_minus_inv(zs)
    got_c = inv_minus_csch(zs)
    for z, h, c in zip(zs, got_h, got_c):
        mz = mpmath.mpf(float(z))
        want_h = float(mpmath.coth(mz) - 1 / mz)
        want_c = float(1 / mz - 1 / mpmath.sinh(mz))
        assert abs(h - want_h) <= 1e-14 * abs(want_h), z
        assert abs(c - want_c) <= 1e-14 * abs(want_c), z


@pytest.mark.parametrize("shape", [(0,), (1,), (300,), (300, 7), (2, 5, 7)])
def test_odd_series_keeps_the_polyval_bits(shape):
    # the series branch's arguments, from -0.0 and the smallest subnormal up
    # to just below the cutoff
    rng = np.random.default_rng(34)
    z = rng.uniform(0.0, SERIES_CUTOFF, size=shape)
    z.flat[:4] = [-0.0, 0.0, 5e-324, np.nextafter(SERIES_CUTOFF, 0.0)][:z.size]
    for coeffs in (_COTH_SERIES, _CSCH_SERIES):
        got, want = _odd_series(z, coeffs), polyval_odd_series(z, coeffs)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_profile_large_argument():
    assert coth_minus_inv(500.0) == pytest.approx(1.0 - 1.0 / 500.0, rel=1e-14)
    assert inv_minus_csch(400.0) == pytest.approx(1.0 / 400.0, rel=1e-12)
    assert np.isfinite(inv_minus_csch(5000.0))


def test_core_zero_at_center():
    a, phi = ps_evaluator(ORIGIN)(np.zeros(3))
    assert np.all(phi == 0) and np.all(a == 0)
    off = ScaledMonopole(center=np.array([1.0, 2.0, -3.0]), scale=2.5)
    a, phi = ps_evaluator(off)(off.center)
    assert np.all(phi == 0) and np.all(a == 0)


def test_core_linear_zero():
    # the Higgs grows linearly from the center with slope 1/3 per basis
    # coefficient (a single non-degenerate zero)
    for d in (1e-4, 1e-3):
        x = np.array([d, 0.0, 0.0])
        _, phi = ps_evaluator(ORIGIN)(x)
        np.testing.assert_allclose(phi, x / 3.0, rtol=1e-6)


def test_core_higgs_value_at_two():
    # scalar oracle: coth(2) - 1/2
    _, phi = ps_evaluator(ORIGIN)(np.array([0.0, 0.0, 2.0]))
    assert alg_norm(phi) == pytest.approx(0.5373147207275482, abs=1e-7)


def test_core_far_field_approaches_unit():
    _, phi = ps_evaluator(ORIGIN)(np.array([10.0, 0.0, 0.0]))
    assert abs(alg_norm(phi) - (1 - 0.1)) <= 2 * np.exp(-10.0)


def test_scale_requires_positive():
    with pytest.raises(ValueError):
        ScaledMonopole(center=np.zeros(3), scale=0.0)


@pytest.mark.parametrize("center, scale", [(np.zeros(3), True), (np.zeros(3), math.inf),
                                           (np.zeros(3), math.nan), (np.zeros(3), "1"),
                                           ([0.0, math.nan, 0.0], 1.0), ([math.inf, 0, 0], 1.0)])
def test_scaled_monopole_rejects_bad_input(center, scale):
    with pytest.raises(InvalidParameterError):
        ScaledMonopole(center=center, scale=scale)


def test_abelian_pair_values():
    p = np.zeros(3)
    ev = dirac_evaluator(p, 1.0)
    _, phi = ev(p + np.array([1.0, 0, 0]))
    assert alg_norm(phi) == pytest.approx(0.0, abs=1e-15)
    _, phi = ev(p + np.array([0, 0, 2.0]))
    np.testing.assert_allclose(phi, [0, 0, 0.5], atol=1e-15)
    with pytest.raises(SingularEvaluationError):
        ev(p)


def test_core_vs_abelian_far_agreement():
    x = np.array([0.0, 6.0, 8.0])  # |x| = 10
    a_ps, phi_ps = ps_evaluator(ORIGIN)(x)
    a_d, phi_d = dirac_evaluator(np.zeros(3), 1.0)(x)
    assert alg_norm(phi_ps - phi_d) <= 1e-3
    assert form_norm(a_ps - a_d) <= 1e-3


def test_sigma_hat_covariantly_constant():
    # the hedgehog direction sigma_hat = (x-p)/|x-p| is parallel for the
    # abelian connection: fd derivative O(h^2)
    p = np.array([0.2, -0.1, 0.4])
    ev = dirac_evaluator(p, 1.0)

    def sigma_hat(y):
        return (y - p) / np.linalg.norm(y - p)

    x = p + np.array([1.1, -0.3, 0.7])
    for h, tol in ((1e-3, 5e-6), (1e-4, 5e-8)):
        worst = 0.0
        a, _ = ev(x[None, :])
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            d = (sigma_hat(x + e) - sigma_hat(x - e)) / (2 * h)
            worst = max(worst, np.abs(d + bracket(a[0, j], sigma_hat(x))).max())
        assert worst < tol


def test_bogomolny_residual_second_order():
    from magbag.constants import BOGOMOLNY_H2

    rng = np.random.default_rng(3)
    X = rng.uniform(-4, 4, size=(50, 3))
    ev = ps_evaluator(ORIGIN)
    d1 = form_norm(fd_curvature(ev, X, h=1e-3).g).max()
    d2 = form_norm(fd_curvature(ev, X, h=5e-4).g).max()
    assert d1 / d2 == pytest.approx(4.0, abs=0.6)
    for h in (1e-3, 1e-4):
        assert form_norm(fd_curvature(ev, X, h=h).g).max() <= BOGOMOLNY_H2 * h**2


def test_abelian_flux_quadrature():
    # <sigma_hat, radial *F> integrates to 4 pi over any sphere
    from magbag.analysis import fibonacci_sphere

    p = np.array([0.5, 0.5, -0.5])
    dirs = fibonacci_sphere(512)
    r = 2.0
    cur = fd_curvature(dirac_evaluator(p, 1.0), p + r * dirs, h=1e-4)
    dens = np.einsum("bm,bmk,bk->b", dirs, cur.star_F, dirs)
    flux = (4 * np.pi / 512) * r * r * dens.sum()
    assert flux == pytest.approx(4 * np.pi, rel=1e-6)


@given(st.floats(min_value=0.3, max_value=5.0), st.floats(min_value=0.1, max_value=4.0))
def test_rescaled_core_solves(r, d):
    mono = ScaledMonopole(center=np.zeros(3), scale=r)
    x = np.array([d, 0.0, 0.0])
    cur = fd_curvature(ps_evaluator(mono), x[None, :], h=1e-4)
    assert form_norm(cur.g)[0] < 1e-5 * max(1.0, r**3)
