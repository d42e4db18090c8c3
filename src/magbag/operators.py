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

Only *F is formed, entry m from F_{jl} at the cyclic (j, l, m):
(d_j a_l - d_l a_j) + [a_j, a_l].  This is (1/2)(F_{jl} - F_{lj}) to the
bit: F_{lj} = -F_{jl} exactly, because fl(x - y) = -fl(y - x) and [a_l, a_j]
is the negated difference of the same two products as [a_j, a_l]; so
F_{jl} - F_{lj} = 2 F_{jl} and its half is F_{jl}, short of overflow.  As
F is antisymmetric, |F|^2 = 2 |*F|^2.  `apply_D` adds the connection
brackets only when the background connection has a nonzero entry: on a
zero connection they are zeros, and adding them changes no value.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .shell import InvalidParameterError, _check_count, _check_positive, _row_blocks
from .su2 import _J, _L, bracket, hodge_star, wedge_dual


@dataclass
class Curvature:
    star_F: np.ndarray  # (..., 3, 3): [m, k]
    d_phi: np.ndarray  # (..., 3, 3): [j, k]

    @property
    def g(self):
        """Bogomolny residual *F - d_A(phi) as a 1-form table."""
        return self.star_F - self.d_phi


def _stencil_points(x, h):
    """The 7-point stencil (..., 7, 3) of points x (..., 3): x + h e_j for
    j = 0, 1, 2, then x - h e_j, then x.  Raises unless the step h is finite
    and positive.

    The six offset points are x tiled three times plus or minus the flat
    h I, written straight into the stencil: each operation's inner loop
    runs over 9 entries per point, not over 3.  Every off-axis coordinate
    is still x + 0.0 or x - 0.0, so a -0.0 coordinate keeps the bits it had.
    """
    _check_positive(h=h)
    x = np.asarray(x, dtype=float)
    offsets = (h * np.eye(3)).ravel()
    tiled = np.tile(x, 3)
    out = np.empty((*x.shape[:-1], 21))
    np.add(tiled, offsets, out=out[..., :9])
    np.subtract(tiled, offsets, out=out[..., 9:18])
    out[..., 18:] = x
    return out.reshape(*x.shape[:-1], 7, 3)


def _central_differences(pair_eval, x, h):
    """Per output v of pair_eval, (dv, v(x)) at points x (..., 3), with
    dv[..., j, ...] = (v(x + h e_j) - v(x - h e_j)) / 2h; the 7-point
    stencil is evaluated in one batch."""
    lead = (slice(None),) * (np.ndim(x) - 1)  # the stencil axis follows the point axes
    out = []
    for v in pair_eval(_stencil_points(x, h)):
        dv = v[(*lead, slice(0, 3))] - v[(*lead, slice(3, 6))]
        dv /= 2.0 * h
        out.append((dv, v[(*lead, 6)]))
    return out


def fd_curvature(pair_eval, x, h=1e-4):
    """Curvature and covariant Higgs derivative at points x (..., 3).

    (*F)_m is F_{jl} at its cyclic (j, l, m), (d_j a_l - d_l a_j) + [a_j, a_l].
    """
    (da, a0), (dphi, phi0) = _central_differences(pair_eval, x, h)  # da[..., j, l, k] = d_j a_l
    star_F = hodge_star(da)
    star_F += bracket(a0[..., _J, :], a0[..., _L, :])
    d_phi = dphi + bracket(a0, phi0[..., None, :])
    return Curvature(star_F=star_F, d_phi=d_phi)


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
    quadrature-friendly at its support edge.  The centre must be three
    finite reals and the width finite and positive.

    The evaluator states the ball it vanishes outside as `ev.support =
    (center, width)`, the centre a read-only float copy.  Its computed
    t = sum_k ((x_k - c_k)/w)^2 is the exact one of the float point times
    (1 + d), |d| <= 7u (u = 2^-53: two roundings in each offset, one in
    each square, two in the sum), so every entry is +-0 wherever that
    computed t is >= 1, and so wherever |x - c|^2 >= w^2 (1 + 7u) / (1 - 7u).

    The evaluator works one coordinate and one table entry at a time, so
    each elementwise operation runs its inner loop over the points; a
    broadcast over the trailing 3 or 3 x 3 axes would run it over 3
    entries.  Each entry is the same scalar operation as the broadcast's.
    """
    _check_point(center)
    _check_positive(width=width)
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3, 3))
    E = rng.normal(size=3)
    center = np.array(center, dtype=float)
    center.flags.writeable = False

    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        d0, d1, d2 = ((pts[..., k] - center[k]) / width for k in range(3))
        t = d0 * d0 + d1 * d1 + d2 * d2  # np.sum's order over the last axis
        inside = t < 1.0
        prof = np.zeros(t.shape)
        prof[inside] = (1.0 - t[inside]) ** 8
        a, e = np.empty((*t.shape, 9)), np.empty((*t.shape, 3))
        for r, coeff in enumerate(A.flat):
            np.multiply(prof, coeff, out=a[..., r])
        for r, coeff in enumerate(E):
            np.multiply(prof, coeff, out=e[..., r])
        return a.reshape(*t.shape, 3, 3), e

    ev.support = (center, width)
    return ev


def apply_D(h_pair, bg_pair, x, h=1e-4, sign=1.0):
    """Deformation operator on (alpha, eta) at points x (..., 3).

    `sign` multiplies the background Higgs: -1 gives the formal adjoint.
    """
    a, phi = bg_pair(np.asarray(x, dtype=float))
    phi = sign * phi
    # d_alpha[..., j, l, k] = d_j alpha_l, d_eta[..., j, k] = d_j eta
    (d_alpha, alpha0), (d_eta, eta0) = _central_differences(h_pair, x, h)
    star = hodge_star(d_alpha)  # 0.5 * hodge_star(d_alpha - d_alpha^T) to the bit, as for *F
    dA_eta = d_eta
    second = np.einsum("...jjk->...k", d_alpha)
    if np.any(a):  # a zero connection's brackets are zeros
        cov = bracket(a[..., :, None, :], alpha0[..., None, :, :])
        dA_alpha = d_alpha - np.swapaxes(d_alpha, -3, -2) + cov - np.swapaxes(cov, -3, -2)
        star = 0.5 * hodge_star(dA_alpha)
        dA_eta = dA_eta + bracket(a, eta0[..., None, :])
        second = second + bracket(a, alpha0).sum(axis=-2)
    first = star - dA_eta + bracket(phi[..., None, :], alpha0)
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


def _check_point(center):
    """Raises unless `center` is three finite reals (bools excluded)."""
    try:
        ok = len(center) == 3 and all(
            not isinstance(c, bool) and isinstance(c, numbers.Real) and math.isfinite(c)
            for c in center
        )
    except TypeError:  # not a sequence
        ok = False
    if not ok:
        raise InvalidParameterError(f"center must be three finite reals, got {center!r}")


def _grid_nodes(axes, flat):
    """The axis indices and the points (n, 3) of flat indices into the grid
    axes[0] x axes[1] x axes[2]."""
    ijk = np.unravel_index(flat, tuple(len(axis) for axis in axes))
    return ijk, np.stack([axis[i] for axis, i in zip(axes, ijk)], axis=-1)


def _pairing(pair, d_pair, bg_pair, axes, flat, sign):
    """sum <pair, apply_D(d_pair, sign)> over the grid nodes of flat indices.

    Both are evaluated in blocks of `_BLOCK_ELEMENTS // 63` nodes (the
    7-point stencil of 3 x 3 tables per node); their products fill one
    (n, 3, 3) and one (n, 3) table, each summed once, as one batch would.
    """
    first, second = np.empty((len(flat), 3, 3)), np.empty((len(flat), 3))
    for rows in _row_blocks(len(flat), 63)[1]:
        pts = _grid_nodes(axes, flat[rows])[1]
        a, e = pair(pts)
        Da, De = apply_D(d_pair, bg_pair, pts, sign=sign)
        np.multiply(a, Da, out=first[rows])
        np.multiply(e, De, out=second[rows])
    return float(np.sum(first) + np.sum(second))


def _scan_blocks(pair, axes):
    """Flat index blocks, in increasing order, of the grid nodes on which the
    support scan evaluates `pair`: every node, in blocks of
    `_BLOCK_ELEMENTS // 9` rows, or, for a pair that states its support
    ball (c, w), only the nodes whose t' = sum_k ((x_k - c_k)/w)^2 is below
    1 + 1e-12.  Those are found one x-slab at a time from an n x n table of
    the other two terms, so no table spans the whole grid.

    t' carries the same rounding bound as the bump's t, |d| <= 7u, so a
    node where the pair's computed t < 1 has t' < (1 + 7u)/(1 - 7u) <
    1 + 1.6e-15: the slack 1e-12 covers it more than 600 times over.
    """
    n = len(axes[0])
    support = getattr(pair, "support", None)
    if support is None:
        return (np.arange(rows.start, rows.stop) for rows in _row_blocks(n**3, 9)[1])
    center, width = support
    t0, t1, t2 = (np.square((axis - c) / width) for axis, c in zip(axes, center))
    plane = t1[:, None] + t2
    flat = np.concatenate([
        i * n * n + np.flatnonzero(t0[i] + plane < 1.0 + 1e-12)
        for i in np.flatnonzero(t0 < 1.0 + 1e-12)
    ] or [np.empty(0, dtype=np.intp)])
    return (flat[rows] for rows in _row_blocks(len(flat), 9)[1])


def _support_nodes(pair, axes):
    """The flat indices, in increasing order, of the grid nodes where an
    entry of `pair` is nonzero; raises if one of them lies on the boundary
    shell of nodes.  Only the nodes of `_scan_blocks` are evaluated."""
    n = len(axes[0])
    kept = []
    for flat in _scan_blocks(pair, axes):
        ijk, pts = _grid_nodes(axes, flat)
        a, e = pair(pts)
        # a sum of absolute values vanishes only where every term does,
        # while squares below 1e-162 underflow
        supp = np.abs(a.reshape(-1, 9)) @ np.ones(9) + np.abs(e) @ np.ones(3) != 0.0
        on_edge = np.zeros(len(pts), dtype=bool)
        for i in ijk:
            on_edge |= (i == 0) | (i == n - 1)
        if np.any(supp[on_edge]):
            raise ValueError("pair support touches the quadrature box boundary")
        kept.append(flat[supp])
    return np.concatenate(kept or [np.empty(0, dtype=np.intp)])


def adjointness_gap(q_pair, q2_pair, bg_pair, box, n_nodes=64):
    """| int <q2, D q> - int <D^dag q2, q> | over a box, by midpoint rule,
    with D at its default step.

    `box` is ((x0, x1), (y0, y1), (z0, z1)); both pairs must be supported
    strictly inside it (this is checked on the boundary shell of nodes), and
    n_nodes >= 3 nodes per axis give that shell an interior.  A pair's
    support is the set of nodes where one of its entries is nonzero.
    The uniform midpoint rule converges super-algebraically on compactly
    supported smooth integrands.  Each pairing vanishes off its partner's
    support, so D q is evaluated on supp q2 and D^dag q2 on supp q.
    Returns (gap, scale) with scale the magnitude of the first integral.

    A pair may state a ball it vanishes outside as `pair.support =
    (center, width)`, as `bump_pair` does: a promise that every entry is
    +-0 wherever |x - c|^2 >= w^2 (1 + 7u)/(1 - 7u), u = 2^-53.  Its scan
    then evaluates it only on the nodes of that ball, widened by a relative
    slack of 1e-12 on the squared radius that covers the rounding of both
    the pair's and the scan's squared distance (`_scan_blocks`).  A pair
    that states no support is scanned on all n_nodes^3 nodes.  Either way
    the nodes with a nonzero entry are found by evaluation, every node
    evaluated goes through the boundary check, and the pairings get the
    same flat indices in the same order, so the result is the whole-grid
    scan's to the bit.

    The scan runs in blocks of `_BLOCK_ELEMENTS // 9` nodes, keeping only
    the grid indices of each pair's support; each pairing then evaluates
    its pair and `apply_D` in blocks over its support.  No table spans the
    whole grid.  Both pairings are summed over the whole supports, as one
    batch would.
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
    supp1, supp2 = _support_nodes(q_pair, axes), _support_nodes(q2_pair, axes)
    total1 = vol * _pairing(q2_pair, q_pair, bg_pair, axes, supp2, 1.0)
    total2 = vol * _pairing(q_pair, q2_pair, bg_pair, axes, supp1, -1.0)
    return abs(total1 - total2), abs(total1)
