"""Finite-difference deformation operators.

Fields are given as pair evaluators x (..., 3) -> (a, phi), with a the
(..., 3, 3) connection coefficient table and phi the (..., 3) Higgs
coefficients; derivatives are second-order central differences at query
points, combined with exact coefficient algebra.  Conventions:

    F_{jl}     = d_j a_l - d_l a_j + [a_j, a_l]
    (*F)_m     = (1/2) eps_{jlm} F_{jl}
    (d_A phi)_j = d_j phi + [a_j, phi]

and the first-order operator on pairs (alpha, eta):

    D(alpha, eta) = (*d_A alpha - d_A eta + [phi, alpha],
                     div_A alpha + [phi, eta])

with its formal adjoint obtained by phi -> -phi (`apply_D(..., sign=-1.0)`).
The single end-to-end deformation identity test pins every sign above
simultaneously.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .shell import InvalidParameterError, _check_count, _row_blocks
from .su2 import bracket, hodge_star, wedge_dual


@dataclass
class Curvature:
    F: np.ndarray  # (..., 3, 3, 3): [j, l, k]
    star_F: np.ndarray  # (..., 3, 3): [m, k]
    d_phi: np.ndarray  # (..., 3, 3): [j, k]

    @property
    def g(self):
        """Bogomolny residual *F - d_A(phi) as a 1-form table."""
        return self.star_F - self.d_phi


def _stencil_points(x, h):
    """The 7-point stencil (..., 7, 3) of points x (..., 3): x + h e_j for
    j = 0, 1, 2, then x - h e_j, then x."""
    x = np.asarray(x, dtype=float)
    offsets = h * np.eye(3)
    return np.concatenate(
        [x[..., None, :] + offsets, x[..., None, :] - offsets, x[..., None, :]], axis=-2
    )


def _central_differences(pair_eval, x, h):
    """Per output v of pair_eval, (dv, v(x)) at points x (..., 3), with
    dv[..., j, ...] = (v(x + h e_j) - v(x - h e_j)) / 2h; the 7-point
    stencil is evaluated in one batch."""
    lead = (slice(None),) * (np.ndim(x) - 1)  # the stencil axis follows the point axes
    return [
        ((v[(*lead, slice(0, 3))] - v[(*lead, slice(3, 6))]) / (2.0 * h), v[(*lead, 6)])
        for v in pair_eval(_stencil_points(x, h))
    ]


def fd_curvature(pair_eval, x, h=1e-4):
    """Curvature and covariant Higgs derivative at points x (..., 3)."""
    (da, a0), (dphi, phi0) = _central_differences(pair_eval, x, h)  # da[..., j, l, k] = d_j a_l
    comm = bracket(a0[..., :, None, :], a0[..., None, :, :])  # [a_j, a_l]
    F = da - np.swapaxes(da, -3, -2) + comm
    star_F = 0.5 * hodge_star(F)
    d_phi = dphi + bracket(a0, phi0[..., None, :])
    return Curvature(F=F, star_F=star_F, d_phi=d_phi)


def flat_bg(phi3=0.8):
    """Evaluator of the flat background: zero connection, constant Higgs phi3 sigma_3."""

    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        shp = pts.shape[:-1]
        phi = np.zeros((*shp, 3))
        phi[..., 2] = phi3
        return np.zeros((*shp, 3, 3)), phi

    return ev


def bump_pair(center, width, seed):
    """Compactly supported C^7 deformation pair (alpha, eta).

    Polynomial profile (1 - |x-c|^2/w^2)^8 times constant coefficients
    drawn from `seed`: smooth enough for the second-order stencils and
    quadrature-friendly at its support edge.  The width must be finite and
    positive.
    """
    if not (isinstance(width, numbers.Real) and math.isfinite(width) and width > 0):
        raise InvalidParameterError(f"bump width must be finite and positive, got {width!r}")
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3, 3))
    E = rng.normal(size=3)
    center = np.asarray(center, dtype=float)

    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        t = np.sum(((pts - center) / width) ** 2, axis=-1)
        prof = np.where(t < 1.0, (1.0 - np.minimum(t, 1.0)) ** 8, 0.0)
        return prof[..., None, None] * A, prof[..., None] * E

    return ev


def apply_D(h_pair, bg_pair, x, h=1e-4, sign=1.0):
    """Deformation operator on (alpha, eta) at points x (..., 3).

    `sign` multiplies the background Higgs: -1 gives the formal adjoint.
    """
    a, phi = bg_pair(np.asarray(x, dtype=float))
    phi = sign * phi
    # d_alpha[..., j, l, k] = d_j alpha_l, d_eta[..., j, k] = d_j eta
    (d_alpha, alpha0), (d_eta, eta0) = _central_differences(h_pair, x, h)
    cov = bracket(a[..., :, None, :], alpha0[..., None, :, :])
    dA_alpha = d_alpha - np.swapaxes(d_alpha, -3, -2) + cov - np.swapaxes(cov, -3, -2)
    star = 0.5 * hodge_star(dA_alpha)
    dA_eta = d_eta + bracket(a, eta0[..., None, :])
    first = star - dA_eta + bracket(phi[..., None, :], alpha0)
    second = np.einsum("...jjk->...k", d_alpha) + bracket(a, alpha0).sum(axis=-2)
    second = second + bracket(phi, eta0)
    return first, second


def hash_bilinear(q, q2):
    """Symmetric quadratic pairing on deformation-pair values.

    First component (1/2)*(a ^ a' + a' ^ a) - (1/2)([a, e'] + [a', e]);
    second component zero.  hash(q, q) reproduces the quadratic term of the
    deformed Bogomolny residual.
    """
    alpha, eta = q
    alpha2, eta2 = q2
    first = 0.5 * wedge_dual(alpha, alpha2)
    first = first - 0.5 * (bracket(alpha, eta2[None, :]) + bracket(alpha2, eta[None, :]))
    return first, np.zeros(3)


def deformation_identity(h_pair, bg_pair, x, h=1e-4):
    """Defect of  *F' - d'phi' = g + D(h) + h#h  on the deformed pair.

    The identity is exact in the continuum; the returned norm is pure
    finite-difference error, O(h^2).
    """
    x = np.asarray(x, dtype=float)

    def deformed(pts):
        a, phi = bg_pair(pts)
        al, et = h_pair(pts)
        return a + al, phi + et

    lhs = fd_curvature(deformed, x, h).g
    g_bg = fd_curvature(bg_pair, x, h).g
    D1, _ = apply_D(h_pair, bg_pair, x, h)
    hv = h_pair(x[None, :])
    qq = hash_bilinear((hv[0][0], hv[1][0]), (hv[0][0], hv[1][0]))
    rhs = g_bg + D1 + qq[0]
    return float(np.sqrt(np.sum((lhs - rhs) ** 2)))


def _grande(u_pair, bg_pair, x, h):
    """The curvature-residual endomorphism in the second-order identity.

    Derived by expanding D Ddag directly: the 1-form part picks up
    wedge_dual(g, q) - [g, tau] and the function part sum_k [g_k, q_k].
    The minus sign on the tau term is pinned by the finite-difference
    check on a residual-carrying background.
    """
    g = fd_curvature(bg_pair, np.asarray(x, dtype=float), h).g
    alpha, eta = u_pair(np.asarray(x, dtype=float)[None, :])
    alpha, eta = alpha[0], eta[0]
    first = wedge_dual(g, alpha) - bracket(g, eta[None, :])
    second = bracket(g, alpha).sum(axis=0)
    return first, second


def _cov_component(pair_eval, bg_pair, h):
    """Evaluator of the covariant derivatives of an (alpha, eta) field in
    all three directions: tables [..., j, l, k] and [..., j, k] of cov_j."""

    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        (d_alpha, alpha0), (d_eta, eta0) = _central_differences(pair_eval, pts, h)
        abg, _ = bg_pair(pts)
        return (d_alpha + bracket(abg[..., :, None, :], alpha0[..., None, :, :]),
                d_eta + bracket(abg, eta0[..., None, :]))

    return ev


def weitzenbock_defect(u_pair, bg_pair, x, h=1e-4):
    """Defect of D D^dag u = cov-Laplacian u + [phi,[u,phi]] + G(u) at x."""
    x = np.asarray(x, dtype=float)
    ddag = functools.partial(apply_D, u_pair, bg_pair, h=h, sign=-1.0)
    lhs = apply_D(ddag, bg_pair, x, h)

    # Rough covariant Laplacian -sum_j cov_j cov_j, componentwise; d_cov[i, j]
    # is the i-th difference of cov_j.
    (d_cov_a, cov_a), (d_cov_e, cov_e) = _central_differences(
        _cov_component(u_pair, bg_pair, h), x, h)
    abg, phi = bg_pair(x[None, :])
    abg, phi = abg[0], phi[0]
    lap_a = np.zeros((3, 3))
    lap_e = np.zeros(3)
    for j in range(3):
        lap_a -= d_cov_a[j, j] + bracket(abg[j, None, :], cov_a[j])
        lap_e -= d_cov_e[j, j] + bracket(abg[j, :], cov_e[j])

    alpha0, eta0 = u_pair(x[None, :])
    alpha0, eta0 = alpha0[0], eta0[0]
    mass_a = bracket(phi[None, :], bracket(alpha0, phi[None, :]))
    mass_e = bracket(phi, bracket(eta0, phi))
    g1, g2 = _grande(u_pair, bg_pair, x, h)
    rhs_a = lap_a + mass_a + g1
    rhs_e = lap_e + mass_e + g2
    da = lhs[0] - rhs_a
    de = lhs[1] - rhs_e
    return float(np.sqrt(np.sum(da * da) + np.sum(de * de)))


def _check_box(box):
    """Raises unless `box` is three finite (lo, hi) pairs with lo < hi."""
    try:
        ok = len(box) == 3 and all(
            isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real)
            and math.isfinite(lo) and math.isfinite(hi) and lo < hi
            for lo, hi in box
        )
    except (TypeError, ValueError):  # not a sequence of pairs
        ok = False
    if not ok:
        raise InvalidParameterError(
            f"box must be three finite (lo, hi) pairs with lo < hi, got {box!r}"
        )


def _apply_D_blocks(h_pair, bg_pair, x, sign):
    """`apply_D` at points x (n, 3), in blocks of `_BLOCK_ELEMENTS // 63` rows
    (the 7-point stencil of 3 x 3 tables per row)."""
    first, second = np.empty((len(x), 3, 3)), np.empty((len(x), 3))
    for rows in _row_blocks(len(x), 63)[1]:
        first[rows], second[rows] = apply_D(h_pair, bg_pair, x[rows], sign=sign)
    return first, second


def adjointness_gap(q_pair, q2_pair, bg_pair, box, n_nodes=64):
    """| int <q2, D q> - int <D^dag q2, q> | over a box, by midpoint rule,
    with D at its default step.

    `box` is ((x0, x1), (y0, y1), (z0, z1)); both pairs must be supported
    strictly inside it (this is checked on the boundary shell of nodes), and
    n_nodes >= 3 nodes per axis give that shell an interior.
    The uniform midpoint rule converges super-algebraically on compactly
    supported smooth integrands.  Each pairing vanishes off its partner's
    support, so D q is evaluated on supp q2 and D^dag q2 on supp q.
    Returns (gap, scale) with scale the magnitude of the first integral.

    The n_nodes^3 grid is scanned in blocks of `_BLOCK_ELEMENTS // 9` rows,
    keeping only each pair's supported rows, and `apply_D` runs in blocks of
    `_BLOCK_ELEMENTS // 63` rows; no table spans the whole grid.  Both
    pairings are summed over the whole supports, as one batch would.
    """
    _check_count(n_nodes=n_nodes)
    if n_nodes < 3:
        raise InvalidParameterError(f"n_nodes must be at least 3, got {n_nodes!r}")
    _check_box(box)
    axes = []
    vol = 1.0
    for lo, hi in box:
        step = (hi - lo) / n_nodes
        axes.append(lo + step * (np.arange(n_nodes) + 0.5))
        vol *= step
    grid_shape = (n_nodes, n_nodes, n_nodes)
    kept1, kept2 = [], []  # (points, alpha, eta) on supp q and supp q2, per block
    for rows in _row_blocks(n_nodes**3, 9)[1]:
        ijk = np.unravel_index(np.arange(rows.start, rows.stop), grid_shape)
        pts = np.stack([axis[i] for axis, i in zip(axes, ijk)], axis=-1)
        a1, e1 = q_pair(pts)
        a2, e2 = q2_pair(pts)
        # squared magnitudes, read only for where they vanish
        mag1 = np.einsum("bjk,bjk->b", a1, a1) + np.einsum("bk,bk->b", e1, e1)
        mag2 = np.einsum("bjk,bjk->b", a2, a2) + np.einsum("bk,bk->b", e2, e2)
        on_edge = np.zeros(len(pts), dtype=bool)
        for i in ijk:
            on_edge |= (i == 0) | (i == n_nodes - 1)
        if np.any((mag1 + mag2)[on_edge] != 0.0):
            raise ValueError("pair support touches the quadrature box boundary")
        supp1, supp2 = mag1 > 0, mag2 > 0
        kept1.append((pts[supp1], a1[supp1], e1[supp1]))
        kept2.append((pts[supp2], a2[supp2], e2[supp2]))
    pts1, a1, e1 = (np.concatenate(parts) for parts in zip(*kept1))
    pts2, a2, e2 = (np.concatenate(parts) for parts in zip(*kept2))
    Dq = _apply_D_blocks(q_pair, bg_pair, pts2, 1.0)
    Ddq2 = _apply_D_blocks(q2_pair, bg_pair, pts1, -1.0)
    total1 = vol * float(np.sum(a2 * Dq[0]) + np.sum(e2 * Dq[1]))
    total2 = vol * float(np.sum(Ddq2[0] * a1) + np.sum(Ddq2[1] * e1))
    return abs(total1 - total2), abs(total1)
