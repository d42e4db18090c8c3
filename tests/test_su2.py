import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from magbag.monopole import _hedgehog_form
from magbag.su2 import alg_norm, bracket, form_norm, hodge_star, inner, star_real_wedge, wedge_dual

from oracles import (
    EPS,
    cross_bracket,
    eps_hedgehog_form,
    eps_hodge_star,
    eps_star_real_wedge,
    eps_wedge_dual,
    gather_hodge_star,
    matrix_bracket,
    matrix_inner,
)

E1, E2, E3 = np.eye(3)

coeff = st.floats(min_value=-10, max_value=10, allow_nan=False)
vec = st.tuples(coeff, coeff, coeff).map(np.array)


def test_bracket_basis():
    # matrix oracle fixes [e1, e2] = -e3 in this basis
    assert np.allclose(matrix_bracket(E1, E2), -E3)
    np.testing.assert_allclose(bracket(E1, E2), -E3, atol=1e-15)
    np.testing.assert_allclose(bracket(E2, E1), E3, atol=1e-15)


def test_inner_basis():
    for i in range(3):
        assert matrix_inner(np.eye(3)[i], np.eye(3)[i]) == pytest.approx(1.0)
        assert inner(np.eye(3)[i], np.eye(3)[i]) == pytest.approx(1.0)
    assert inner(E1, E2) == pytest.approx(matrix_inner(E1, E2)) == 0.0


def test_matrix_oracle_agreement():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a, b = rng.normal(size=(2, 3))
        assert np.abs(bracket(a, b) - matrix_bracket(a, b)).max() < 1e-12
        assert abs(inner(a, b) - matrix_inner(a, b)) < 1e-12


@given(vec, vec)
def test_bracket_antisymmetric(a, b):
    np.testing.assert_allclose(bracket(a, b), -bracket(b, a), atol=1e-9)
    assert np.all(bracket(a, a) == 0)


@given(vec, vec, vec)
@settings(max_examples=200)
def test_jacobi(a, b, c):
    total = (
        bracket(a, bracket(b, c))
        + bracket(b, bracket(c, a))
        + bracket(c, bracket(a, b))
    )
    assert np.abs(total).max() < 1e-9


@given(vec, vec)
def test_bracket_norm_bound(a, b):
    assert alg_norm(bracket(a, b)) <= alg_norm(a) * alg_norm(b) + 1e-9


@given(vec, vec)
def test_ad_invariance(a, b):
    assert abs(inner(a, bracket(a, b))) < 1e-9


def test_wedge_dual_symmetric():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    np.testing.assert_allclose(wedge_dual(a, b), wedge_dual(b, a), atol=1e-13)


def test_wedge_dual_zero_cases():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3))
    assert np.all(wedge_dual(a, np.zeros((3, 3))) == 0)
    # rows proportional to one algebra direction commute pairwise
    v = rng.normal(size=3)
    par = np.outer(rng.normal(size=3), v)
    assert np.abs(wedge_dual(par, par)).max() < 1e-13


def test_wedge_dual_matches_matrix_wedge():
    # *(a ^ b + b ^ a)/... via matrices: components [a_j, b_l] + [b_j, a_l]
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    got = wedge_dual(a, b)
    want = np.zeros((3, 3))
    for m in range(3):
        acc = np.zeros(3)
        for j in range(3):
            for l in range(3):
                acc += EPS[j, l, m] * matrix_bracket(a[j], b[l])
        want[m] = acc
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_norms():
    assert form_norm(np.eye(3)) == pytest.approx(np.sqrt(3))
    assert alg_norm(np.array([3.0, 4.0, 0.0])) == pytest.approx(5.0)


@given(hnp.array_shapes(min_dims=0, max_dims=3, max_side=3), st.data())
@settings(max_examples=100)
def test_kernels_equal_cross_and_eps_oracles(batch, data):
    # bit for bit, and in a C-ordered result: reductions over the trailing
    # axes (form_norm) sum in memory order
    def draw(*tail):
        return data.draw(hnp.arrays(np.float64, batch + tail, elements=coeff))

    a, b, c = draw(3), draw(3), draw()
    A, B, T = draw(3, 3), draw(3, 3), draw(3, 3, 3)
    cases = [
        (bracket(a, b), cross_bracket(a, b)),
        (bracket(A[..., :, None, :], B[..., None, :, :]),
         cross_bracket(A[..., :, None, :], B[..., None, :, :])),
        (wedge_dual(A, B), eps_wedge_dual(A, B)),
        (star_real_wedge(a, B), eps_star_real_wedge(a, B)),
        (_hedgehog_form(a, c), eps_hedgehog_form(a, c)),
        (0.5 * hodge_star(T), 0.5 * eps_hodge_star(T)),
    ]
    for got, want in cases:
        assert got.shape == want.shape
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)


@pytest.mark.parametrize("lead", [(), (1,), (300,), (300, 7), (2, 5, 7)])
def test_hodge_star_keeps_the_gather_bits(lead):
    # entry by entry as the two gathers did, signed zeros included
    rng = np.random.default_rng(34)
    t = rng.normal(size=(*lead, 3, 3, 3))
    zero = rng.random(t.shape) < 1 / 3
    t[zero] = rng.choice([-0.0, 0.0], size=np.count_nonzero(zero))
    got, want = hodge_star(t), gather_hodge_star(t)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
