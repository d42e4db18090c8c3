"""Independent oracles used by the test suite.

Everything here recomputes quantities by a route disjoint from the package
implementation: explicit 2x2 complex matrices for the algebra, the textbook
antiderivative and Gauss-Legendre quadrature for the gauge primitive, one
source at a time for the glued tail sums, the singular abelian pair,
multipole expansions for the far field, plain enumeration for the shell
combinatorics, one point at a time for the shell layout, full (..., N, 3)
difference arrays for distance tables and grad phi_theta, the weighted
residual norm with `higgs_norm` weights on every sample and one residual
call per support shell, the adjointness pairings over the union of both
supports and over the whole quadrature grid in one batch, the origin-sphere
|Phi| and flux density from whole (B, N) tables, critical radii from every
sphere of the scan, and the su(2) kernels through `np.cross` and
Levi-Civita contractions.

The deformation-operator kernels are also kept in the longer form they were
first written in (the whole curvature table, connection brackets taken on
every background, the `np.where` bump profile and one `fd_curvature` call
per `ps_energy` radius), and so are four kernels in the broadcast form they
had before their inner loops ran over the points (the bump's tables as
broadcast products, the Hodge star from two gathers, the stencil from three
concatenated offsets and the core series by `polyval`); the package's
kernels must match them to the bit.
"""

import numpy as np

from magbag.analysis import fibonacci_sphere
from magbag import glued
from magbag.glued import annulus_points, higgs_norm, residual_fields
from magbag.monopole import ScaledMonopole, SingularEvaluationError, _hedgehog_form, ps_evaluator
from magbag.operators import _stencil_points, apply_D
from magbag.shell import _squared_distances, band_sizes, choose_band_count
from magbag.su2 import bracket, form_norm, hodge_star

# Levi-Civita symbol, EPS[i, j, k] = sign of the permutation (i, j, k).
EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1.0
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1.0


def cross_bracket(a, b):
    """[a, b] as the negative `np.cross`."""
    return -np.cross(a, b)


def eps_wedge_dual(a, b):
    """sum_{j,l} eps_{jlm} [a_j, b_l] over the whole (j, l) table."""
    cr = -np.cross(a[..., :, None, :], b[..., None, :, :])
    return np.einsum("jlm,...jlk->...mk", EPS, cr)


def eps_star_real_wedge(u, w):
    """sum_{j,l} eps_{jlm} u_j w_l."""
    return np.einsum("jlm,...j,...lk->...mk", EPS, u, w)


def eps_hedgehog_form(xhat, coeff):
    """coeff * eps_{ijk} xhat_i on dx_j sigma_k/2."""
    return np.asarray(coeff)[..., None, None] * np.einsum("ijk,...i->...jk", EPS, xhat)


def eps_hodge_star(t):
    """sum_{j,l} eps_{jlm} t_jl of a table t (..., 3, 3, k)."""
    return np.einsum("jlm,...jlk->...mk", EPS, t)


def gather_hodge_star(t):
    """`su2.hodge_star` as one difference of the gathered cyclic (j, l) and
    (l, j) rows, into a C-ordered table."""
    t = np.asarray(t)
    J, L = [1, 2, 0], [2, 0, 1]
    out = np.empty((*t.shape[:-3], 3, t.shape[-1]))
    return np.subtract(t[..., J, L, :], t[..., L, J, :], out=out)


TAU = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
# Anti-Hermitian basis with sigma_1 sigma_2 = -sigma_3 and sigma_k^2 = -1.
SIGMA = 1j * TAU


def to_matrix(v):
    """Coefficient triple -> 2x2 anti-Hermitian matrix on the {sigma_k/2} basis."""
    return 0.5 * np.einsum("k,kab->ab", np.asarray(v, dtype=complex), SIGMA)


def from_matrix(mat):
    """Inverse of to_matrix via the trace pairing."""
    return np.array(
        [-2.0 * np.trace(mat @ (0.5 * SIGMA[k])).real for k in range(3)]
    )


def matrix_bracket(u, v):
    a, b = to_matrix(u), to_matrix(v)
    return from_matrix(a @ b - b @ a)


def matrix_inner(u, v):
    return float((-2.0 * np.trace(to_matrix(u) @ to_matrix(v))).real)


def alpha_closed_form(x, p, q):
    """Antiderivative route for the radial-gauge primitive.

    int_0^1 t (a + 2bt + ct^2)^{-3/2} dt with a = |p-q|^2, b = (p-q).w,
    c = |w|^2 has the elementary antiderivative -(a + bt)/((ac - b^2)
    sqrt(a + 2bt + ct^2)); the primitive is (w x (p-q)) times its value.
    """
    w = np.asarray(x, dtype=float) - np.asarray(p, dtype=float)
    D = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    a = float(np.dot(D, D))
    b = float(np.dot(D, w))
    c = float(np.dot(w, w))
    disc = a * c - b * b  # |D x w|^2
    if disc < 1e-30 * a * max(c, 1e-30):
        return np.zeros(3)
    upper = -(a + b) / (disc * np.sqrt(a + 2 * b + c))
    lower = -a / (disc * np.sqrt(a))
    return np.cross(w, D) * (upper - lower)


def alpha_quadrature(x, p, q, order):
    """Gauss-Legendre route for the radial-gauge primitive.

    (w x (p-q)) times int_0^1 t / |p-q + t w|^3 dt with w = x-p, the
    integral taken with `order` Gauss-Legendre nodes mapped to [0, 1].
    Broadcasts over the leading axes of x.
    """
    w = np.asarray(x, dtype=float) - np.asarray(p, dtype=float)
    D = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = 0.5 * (nodes + 1.0)
    seg = D + t[:, None] * w[..., None, :]  # (..., order, 3)
    integral = np.sum(0.5 * weights * t / np.linalg.norm(seg, axis=-1) ** 3, axis=-1)
    return np.cross(w, D) * integral[..., None]


def eta_pq(x, p, q):
    """Recentred Coulomb tail of q seen from p: 1/|x-q| - 1/|p-q|."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    dxq = np.linalg.norm(x - q, axis=-1)
    dpq = np.linalg.norm(p - q)
    if dpq == 0.0 or np.any(dxq == 0.0):
        raise SingularEvaluationError("eta_pq evaluated at a singular point")
    return 1.0 / dxq - 1.0 / dpq


def alpha_pq(x, p, q):
    """Radial-gauge primitive of *d(eta_pq) centred at p, one source q.

    (w x D) / (s (|D| s + D.(x-q))) with w = x-p, D = p-q, s = |x-q|: the
    rationalised antiderivative, finite on the line through p and q on the
    ball side.  Broadcasts over the leading axes of x.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    D = p - q
    xq = x - q
    s = np.linalg.norm(xq, axis=-1)
    weight = 1.0 / (s * (np.linalg.norm(D) * s + xq @ D))
    return np.cross(x - p, D) * weight[..., None]


def dirac_evaluator(p, r_res=1.0):
    """Singular abelian pair x (..., 3) -> (a, phi) with Higgs profile r_res - 1/|x-p|."""
    p = np.asarray(p, dtype=float)

    def ev(x):
        w = np.asarray(x, dtype=float) - p
        d = np.linalg.norm(w, axis=-1)
        if np.any(d == 0):
            raise SingularEvaluationError("abelian pair evaluated at its center")
        xhat = w / d[..., None]
        return _hedgehog_form(xhat, 1.0 / d), (r_res - 1.0 / d)[..., None] * xhat

    return ev


def difference_distances(x, points):
    """|x - p| (..., N) for points x (..., 3) from the (..., N, 3) differences."""
    x = np.asarray(x, dtype=float)
    return np.linalg.norm(x[..., None, :] - points, axis=-1)


def difference_grad_phi_theta(x, points):
    """(sum_p (x - p)/|x - p|^3, sum_p |x - p|/|x - p|^3 per component), each
    (..., 3), at points x (..., 3) from the (..., N, 3) differences."""
    x = np.asarray(x, dtype=float)
    diff = x[..., None, :] - points
    cube = np.linalg.norm(diff, axis=-1)[..., None] ** 3
    return np.sum(diff / cube, axis=-2), np.sum(np.abs(diff) / cube, axis=-2)


def shell_coulomb_rows(points):
    """(min separation, sum_q 1/|p-q|, sum_q 1/|p-q|^2 per p) over q != p.

    Taken from the whole (N, N, 3) difference array, its diagonal set to
    infinity so that 1/d vanishes there.
    """
    points = np.asarray(points, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    np.fill_diagonal(dist, np.inf)
    return float(dist.min()), np.sum(1.0 / dist, axis=1), np.sum(1.0 / dist**2, axis=1)


def multipole_far_field(x, points):
    """1 - N/|x| monopole truncation of the exterior potential."""
    return 1.0 - len(points) / np.linalg.norm(x)


def round_robin_survivors(N):
    """(K, band sizes, survivors) of the N-point layout: survivors[b] lists
    the longitude indices band b keeps once the excess over N is popped
    from per-band lists, round-robin over the bands, skipping empty ones."""
    K = choose_band_count(N)
    sizes = band_sizes(K)
    survivors = [list(range(n)) for n in sizes]
    excess = int(sizes.sum()) - N
    b = 0
    while excess > 0:
        if survivors[b]:
            survivors[b].pop()
            excess -= 1
        b = (b + 1) % (K - 1)
    return K, sizes, survivors


def layout_loop(N, R):
    """(bands, longitudes, points) of the shell layout, built point by point.

    The survivors are those of `round_robin_survivors`, and each point's
    coordinates are taken from scalar sines and cosines.
    """
    K, sizes, survivors = round_robin_survivors(N)
    bands, longitudes, points = [], [], []
    for i, js in enumerate(survivors):
        theta = (i + 1) * np.pi / K
        for j in js:
            phi = 2.0 * np.pi * j / sizes[i]
            bands.append(i + 1)
            longitudes.append(phi)
            points.append(
                [
                    R * np.sin(theta) * np.cos(phi),
                    R * np.sin(theta) * np.sin(phi),
                    R * np.cos(theta),
                ]
            )
    return np.asarray(bands), np.asarray(longitudes), np.asarray(points)


def brute_band_sizes(K):
    """Largest integer strictly below 2K sin(k pi/K), in 50-digit arithmetic.

    The target is exactly an integer when sin(k pi/K) is rational (equator,
    k/K = 1/6 or 5/6), where the strict inequality drops one.
    """
    import mpmath

    mpmath.mp.dps = 50
    out = []
    for k in range(1, K):
        target = 2 * K * mpmath.sin(mpmath.mpf(k) * mpmath.pi / K)
        n = int(mpmath.floor(target))
        if mpmath.almosteq(target, n, abs_eps=mpmath.mpf("1e-40")):
            n -= 1  # exact integer: strictly-below drops to the one beneath
        out.append(n)
    return out


def higgs_norm_residual_sweep(cfg, n_radial, n_angular, quad_radial, quad_angular):
    """(annulus maxima (3, N), sup term, integral term) of the weighted norm.

    Every support-shell sample is weighted by `higgs_norm`, a fresh
    distance table to all N shell points, whether g vanishes there or not.
    """
    nodes, wts = np.polynomial.legendre.leggauss(quad_radial)
    lo, hi = cfg.L / 8, cfg.L / 4
    q_radii = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    q_w = 0.5 * (hi - lo) * wts
    q_dirs = fibonacci_sphere(quad_angular)
    maxima = np.empty((3, cfg.N))
    sup_term = 0.0
    integral = 0.0
    for p_idx in range(cfg.N):
        pts = annulus_points(cfg, p_idx, n_radial, n_angular)
        gT, gL = residual_fields(pts, p_idx, cfg)
        xh = pts - cfg.points[p_idx]
        xh /= np.linalg.norm(xh, axis=1)[:, None]
        inner = np.abs(np.einsum("bk,bmk->bm", xh, gL)).max(axis=1)
        maxima[:, p_idx] = form_norm(gT).max(), form_norm(gL).max(), inner.max()
        with np.errstate(divide="ignore"):
            sup_term = max(sup_term, float(np.max(inner / higgs_norm(pts, cfg) ** 2)))

        qflat = (cfg.points[p_idx] + q_radii[:, None, None] * q_dirs[None, :, :]).reshape(-1, 3)
        gTq, _ = residual_fields(qflat, p_idx, cfg)
        dens = ((form_norm(gTq) / higgs_norm(qflat, cfg)) ** 3).reshape(quad_radial, quad_angular)
        integral += float(np.sum(q_w * q_radii**2 * dens.sum(axis=1) * (4.0 * np.pi / quad_angular)))
    return maxima, sup_term, integral ** (1.0 / 3.0)


def per_shell_residual_sweep(cfg, n_radial, n_angular, quad_radial, quad_angular):
    """(annulus maxima (3, N), sup term, integral term) of the weighted norm,
    one `_ball_residual` call per support shell and grid, each shell
    reduced on its own before the next is evaluated."""
    nodes, wts = np.polynomial.legendre.leggauss(quad_radial)
    lo, hi = cfg.L / 8, cfg.L / 4
    q_radii = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    q_w = 0.5 * (hi - lo) * wts
    q_dirs = fibonacci_sphere(quad_angular)
    maxima = np.empty((3, cfg.N))
    sup_term = 0.0
    integral = 0.0
    for p_idx in range(cfg.N):
        pts = annulus_points(cfg, p_idx, n_radial, n_angular)
        live, _, gT, gL, higgs = glued._ball_residual(pts, p_idx, cfg)
        xh = pts[live] - cfg.points[p_idx]
        xh /= np.linalg.norm(xh, axis=1)[:, None]
        inner = np.abs(np.einsum("bk,bmk->bm", xh, gL)).max(axis=1)
        maxima[:, p_idx] = (form_norm(gT).max(initial=0.0), form_norm(gL).max(initial=0.0),
                            inner.max(initial=0.0))
        with np.errstate(divide="ignore"):
            sup_term = max(sup_term, float(np.max(inner / higgs**2, initial=0.0)))

        qpts = cfg.points[p_idx] + q_radii[:, None, None] * q_dirs[None, :, :]
        live, _, gTq, _, higgs_q = glued._ball_residual(qpts.reshape(-1, 3), p_idx, cfg)
        dens = np.zeros(quad_radial * quad_angular)
        dens[live] = (form_norm(gTq) / higgs_q) ** 3
        dens = dens.reshape(quad_radial, quad_angular)
        integral += float(np.sum(q_w * q_radii**2 * dens.sum(axis=1) * (4.0 * np.pi / quad_angular)))
    return maxima, sup_term, integral ** (1.0 / 3.0)


def _nonzero_nodes(a, e):
    """Nodes where some entry of the pair's (n, 3, 3) and (n, 3) tables is nonzero."""
    return np.count_nonzero(a.reshape(len(a), 9), axis=1) + np.count_nonzero(e, axis=1) > 0


def union_support_pairings(q_pair, q2_pair, bg_pair, pts, vol, h=1e-4):
    """(int <q2, D q>, int <D^dag q2, q>) by the midpoint rule on nodes pts.

    Both operators are evaluated on every node where q or q2 is nonzero.
    """
    a1, e1 = q_pair(pts)
    a2, e2 = q2_pair(pts)
    live = _nonzero_nodes(a1, e1) | _nonzero_nodes(a2, e2)
    Dq = apply_D(q_pair, bg_pair, pts[live], h)
    Ddq2 = apply_D(q2_pair, bg_pair, pts[live], h, sign=-1.0)
    total1 = vol * float(np.sum(a2[live] * Dq[0]) + np.sum(e2[live] * Dq[1]))
    total2 = vol * float(np.sum(Ddq2[0] * a1[live]) + np.sum(Ddq2[1] * e1[live]))
    return total1, total2


def whole_grid_adjointness_gap(q_pair, q2_pair, bg_pair, box, n_nodes=64, h=1e-4):
    """`operators.adjointness_gap` with every table built over the whole grid.

    Both pairs are evaluated on all n_nodes^3 nodes at once and each
    `apply_D` runs in one batch over its partner's support.
    """
    axes = []
    vol = 1.0
    for lo, hi in box:
        step = (hi - lo) / n_nodes
        axes.append(lo + step * (np.arange(n_nodes) + 0.5))
        vol *= step
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([X, Y, Z], axis=-1).reshape(-1, 3)
    a1, e1 = q_pair(pts)
    a2, e2 = q2_pair(pts)
    supp1, supp2 = _nonzero_nodes(a1, e1), _nonzero_nodes(a2, e2)
    grid_shape = (n_nodes, n_nodes, n_nodes)
    on_edge = np.zeros(grid_shape, dtype=bool)
    for axis in range(3):
        idx = [slice(None)] * 3
        idx[axis] = [0, -1]
        on_edge[tuple(idx)] = True
    if np.any((supp1 | supp2).reshape(grid_shape)[on_edge]):
        raise ValueError("pair support touches the quadrature box boundary")
    Dq = apply_D(q_pair, bg_pair, pts[supp2], h)
    Ddq2 = apply_D(q2_pair, bg_pair, pts[supp1], h, sign=-1.0)
    total1 = vol * float(np.sum(a2[supp2] * Dq[0]) + np.sum(e2[supp2] * Dq[1]))
    total2 = vol * float(np.sum(Ddq2[0] * a1[supp1]) + np.sum(Ddq2[1] * e1[supp1]))
    return abs(total1 - total2), abs(total1)


def _divided_central_differences(pair_eval, x, h):
    """`operators._central_differences`, each difference divided into a new array."""
    lead = (slice(None),) * (np.ndim(x) - 1)
    return [
        ((v[(*lead, slice(0, 3))] - v[(*lead, slice(3, 6))]) / (2.0 * h), v[(*lead, 6)])
        for v in pair_eval(_stencil_points(x, h))
    ]


def full_table_fd_curvature(pair_eval, x, h=1e-4):
    """(*F, d_A phi) of `operators.fd_curvature` through the whole (..., 3, 3, 3)
    table F_{jl} = d_j a_l - d_l a_j + [a_j, a_l], with *F = (1/2) hodge_star(F)."""
    (da, a0), (dphi, phi0) = _divided_central_differences(pair_eval, x, h)
    comm = bracket(a0[..., :, None, :], a0[..., None, :, :])  # [a_j, a_l]
    F = da - np.swapaxes(da, -3, -2) + comm
    return 0.5 * hodge_star(F), dphi + bracket(a0, phi0[..., None, :])


def bracket_apply_D(h_pair, bg_pair, x, h=1e-4, sign=1.0):
    """`operators.apply_D` with the connection brackets taken on every background."""
    a, phi = bg_pair(np.asarray(x, dtype=float))
    phi = sign * phi
    (d_alpha, alpha0), (d_eta, eta0) = _divided_central_differences(h_pair, x, h)
    cov = bracket(a[..., :, None, :], alpha0[..., None, :, :])
    dA_alpha = d_alpha - np.swapaxes(d_alpha, -3, -2) + cov - np.swapaxes(cov, -3, -2)
    star = 0.5 * hodge_star(dA_alpha)
    dA_eta = d_eta + bracket(a, eta0[..., None, :])
    first = star - dA_eta + bracket(phi[..., None, :], alpha0)
    second = np.einsum("...jjk->...k", d_alpha) + bracket(a, alpha0).sum(axis=-2)
    return first, second + bracket(phi, eta0)


def concatenated_stencil_points(x, h):
    """`operators._stencil_points` as x + h I, x - h I and x broadcast and
    concatenated along the stencil axis."""
    x = np.asarray(x, dtype=float)
    offsets = h * np.eye(3)
    return np.concatenate(
        [x[..., None, :] + offsets, x[..., None, :] - offsets, x[..., None, :]], axis=-2)


def broadcast_bump_pair(center, width, seed):
    """`operators.bump_pair` with its offsets formed as (..., 3) arrays and
    its tables as broadcast products of the profile."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3, 3))
    E = rng.normal(size=3)
    center = np.asarray(center, dtype=float)

    def ev(pts):
        d = (np.asarray(pts, dtype=float) - center) / width
        d *= d
        t = d[..., 0] + d[..., 1] + d[..., 2]
        inside = t < 1.0
        prof = np.zeros(t.shape)
        prof[inside] = (1.0 - t[inside]) ** 8
        return prof[..., None, None] * A, prof[..., None] * E

    return ev


def where_bump_pair(center, width, seed):
    """`operators.bump_pair` with its profile taken at every point and masked
    by `np.where`."""
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


def polyval_odd_series(z, coeffs):
    """`monopole._odd_series` by `np.polynomial.polynomial.polyval`."""
    return z * np.polynomial.polynomial.polyval(z * z, coeffs)


def per_radius_ps_energy(r_max=40.0, n_radial=64):
    """`analysis.ps_energy` with one `fd_curvature` call per radius."""
    ev = ps_evaluator(ScaledMonopole(center=np.zeros(3), scale=1.0))
    nodes, wts = np.polynomial.legendre.leggauss(n_radial)
    radii = 0.5 * r_max * (nodes + 1.0)
    w_r = 0.5 * r_max * wts
    dirs = fibonacci_sphere(64)
    E_F = 0.0
    E_dphi = 0.0
    for r, w in zip(radii, w_r):
        star_F, d_phi = full_table_fd_curvature(ev, r * dirs)
        f2 = np.sum(star_F**2, axis=(1, 2)).mean()
        d2 = np.sum(d_phi**2, axis=(1, 2)).mean()
        E_F += w * 4.0 * np.pi * r * r * f2
        E_dphi += w * 4.0 * np.pi * r * r * d2
    tail = 4.0 * np.pi / r_max
    return E_F + tail, E_dphi + tail


def whole_direction_table(dirs, points):
    """(|p|, G = |u - p/|p||^2) of `glued._sphere_sweep` in one (B, N) pass."""
    pn = np.linalg.norm(points, axis=1)
    phat = points / np.where(pn > 0.0, pn, 1.0)[:, None]
    return pn, _squared_distances(dirs, phat)


def _whole_sphere_squared_distances(table, r):
    pn, G = table
    d2 = (r * pn) * G
    d2 += (r - pn) ** 2
    return d2


def whole_sphere_higgs_norm(dirs, cfg):
    """`glued.sphere_higgs_norm` from whole (B, N) tables at each radius."""
    table = whole_direction_table(dirs, cfg.points)

    def norm(r):
        d = _whole_sphere_squared_distances(table, r)
        return glued._higgs_from_distances(np.sqrt(d, out=d), cfg)

    return norm


def whole_sphere_flux_density(dirs, cfg):
    """The function r -> grad phi_theta(r u) . u at unit directions u = dirs
    (B, 3), from whole (B, N) tables at each radius: each term
    (r u - p).u / |r u - p|^3 has the numerator (r - |p|) + |p| G / 2, which
    outside the shell carries no cancellation."""
    table = whole_direction_table(dirs, cfg.points)
    pn, G = table

    def density(r):
        d2 = _whole_sphere_squared_distances(table, r)
        if np.any(d2 == 0.0):
            raise SingularEvaluationError("flux density evaluated on a shell point")
        cube = np.sqrt(d2)
        cube *= d2
        num = (0.5 * pn) * G
        num += r - pn
        num /= cube
        return np.sum(num, axis=1)

    return density


def _bisect(fn, lo, hi, resolution):
    """Root of the sign change of fn on [lo, hi] to within `resolution`."""
    flo = fn(lo)
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_radii_full_scan(eps, field, quad, r_max=None, n_scan=400):
    """(R_eps, r_eps, rhat_eps) from the sphere statistics at every scan radius,
    thresholds applied afterwards; the bisection re-evaluates its lower end."""
    if r_max is None:
        r_max = 40.0 if isinstance(field, ScaledMonopole) else 4.0 * field.R
    resolution = 1e-3 * max(1.0, r_max / 40.0)
    sphere = glued.sphere_higgs_norm(quad.points, field)
    grid = np.linspace(r_max / n_scan, r_max, n_scan)
    mins = np.empty(n_scan)
    maxs = np.empty(n_scan)
    means = np.empty(n_scan)
    for i, r in enumerate(grid):
        vals = sphere(r)
        mins[i], means[i], maxs[i] = vals.min(), vals.mean(), vals.max()

    def stat_fn(stat):
        return lambda r: stat(sphere(r)) - eps

    # Largest radius where the sphere minimum still dips to eps.
    below = np.nonzero(mins <= eps)[0]
    if len(below) == 0:
        R_eps = 0.0
    elif below[-1] == n_scan - 1:
        R_eps = float(grid[-1])  # threshold beyond the scan window
    else:
        i = below[-1]
        R_eps = float(_bisect(stat_fn(np.min), grid[i], grid[i + 1], resolution))

    # First radius going outward where the max (resp. mean) reaches eps.
    def first_reach(vals_arr, stat):
        above = np.nonzero(vals_arr >= eps)[0]
        if len(above) == 0:
            return float(grid[-1])
        i = above[0]
        if i == 0:
            return float(grid[0])
        return float(_bisect(stat_fn(stat), grid[i - 1], grid[i], resolution))

    r_eps = first_reach(maxs, np.max)
    rhat_eps = first_reach(means, np.mean)
    return R_eps, r_eps, rhat_eps


def write_points_csv_rows(cfg, fh):
    """`shell.write_points_csv` one f-string per row, joined and written once."""
    lines = ["index,band,x,y,z,r_p"]
    for i in range(cfg.N):
        x, y, z = cfg.points[i]
        lines.append(
            f"{i},{cfg.bands[i]},{x:.17g},{y:.17g},{z:.17g},{cfg.residues[i]:.17g}"
        )
    fh.write("\n".join(lines) + "\n")
