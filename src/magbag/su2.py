"""Coefficient-level su(2) algebra.

Algebra elements are real coefficient triples on the orthonormal basis
{sigma_k/2} (sigma_k anti-Hermitian, sigma_1 sigma_2 = -sigma_3).  In this
basis the invariant inner product is the Euclidean dot product and the
commutator is the negative cross product.  su(2)-valued 1-forms are 3x3
coefficient tables, entry [j, k] multiplying dx_j (x) sigma_k/2.

All operations broadcast over leading batch axes.  The Levi-Civita
contractions are written out over the cyclic index triples (j, l, m), each
entry one difference.  A full contraction over an eps table gives the same
bits: its other terms are exact zeros, its +-1 factors are exact, and
fl(x - y) = -fl(y - x).
"""

import numpy as np

# (j, l) with eps_{jlm} = +1, for m = 0, 1, 2
_J = [1, 2, 0]
_L = [2, 0, 1]


def _difference(x, y):
    """x - y in a new C-ordered array.

    Operands taken with index lists carry permuted strides, and a result in
    their memory order would make later reductions over its trailing axes
    (`form_norm`) sum in a different order.
    """
    return np.subtract(x, y, out=np.empty(np.broadcast_shapes(x.shape, y.shape)))


def cross(a, b):
    """a x b of coefficient triples, component by component."""
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for m, (j, l) in enumerate(zip(_J, _L)):
        o = out[..., m]
        np.multiply(a[..., j], b[..., l], out=o)
        o -= a[..., l] * b[..., j]
    return out


def bracket(a, b):
    """Commutator [a, b] = -(a x b), taken as b x a."""
    return cross(b, a)


def inner(a, b):
    """Invariant inner product <ab>; the basis is orthonormal, so a dot."""
    return np.sum(np.asarray(a) * np.asarray(b), axis=-1)


def alg_norm(a):
    """Pointwise norm of an algebra element."""
    return np.sqrt(inner(a, a))


def form_norm(c):
    """Pointwise norm of an su(2)-valued 1-form coefficient table."""
    c = np.asarray(c)
    return np.sqrt(np.sum(c * c, axis=(-2, -1)))


def eps_table(v):
    """out[..., j, l] = sum_m eps_{jlm} v[..., m]: the antisymmetric table of a triple."""
    v = np.asarray(v)
    out = np.zeros(v.shape + (3,))
    out[..., _J, _L] = v
    out[..., _L, _J] = -v
    return out


def hodge_star(t):
    """out[..., m, :] = sum_{j,l} eps_{jlm} t[..., j, l, :] for a table t (..., 3, 3, k).

    One subtraction per entry (m, k), written into a C-ordered table: each
    runs its inner loop over the points, where a gather of the cyclic
    (j, l) rows would run it over the k entries.
    """
    t = np.asarray(t)
    out = np.empty((*t.shape[:-3], 3, t.shape[-1]))
    for m, (j, l) in enumerate(zip(_J, _L)):
        for k in range(t.shape[-1]):
            np.subtract(t[..., j, l, k], t[..., l, j, k], out=out[..., m, k])
    return out


def wedge_dual(a, b):
    """Hodge dual of the symmetrized wedge of two su(2)-valued 1-forms.

    Component contract: out[m] = sum_{j,l} eps_{jlm} [a_j, b_l], where a_j is
    the algebra element carried by dx_j.  Symmetric in (a, b); for a single
    form *(a ^ a) = wedge_dual(a, a) / 2.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    return bracket(a[..., _J, :], b[..., _L, :]) - bracket(a[..., _L, :], b[..., _J, :])


def star_real_wedge(u, w):
    """*(u ^ w) for a real 1-form u and su(2)-valued 1-form w.

    out[m] = sum_{j,l} eps_{jlm} u_j w_l.
    """
    u = np.asarray(u)
    w = np.asarray(w)
    return _difference(u[..., _J, None] * w[..., _L, :], u[..., _L, None] * w[..., _J, :])
