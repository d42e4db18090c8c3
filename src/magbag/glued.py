"""Ball-wise evaluation of the glued bag pair.

Around each shell point a smooth core with residue r_p is interpolated
into the abelian field by a radial cutoff; the ball pair carries explicit
connection tables.  Away from the balls only gauge-invariant quantities
(|phi_theta| and its flux) are exposed.

Sign conventions: writing the ball connection as the singular hedgehog
plus a correction (sum over the other points), exactness of the abelian
pair forces the correction 1-form to enter with a minus sign relative to
the primitive normalization of alpha_pq (whose exterior derivative is
+*d eta_pq).  The finite-difference residual oracle pins this choice; see
tests.

The tail sums over the other shell points use closed forms: eta_pq is the
recentred Coulomb term 1/|x-q| - 1/|p-q| and alpha_pq the exact
radial-gauge primitive (w x D) / (s (|D| s + D.(x-q))), with w = x-p,
D = p-q, s = |x-q|.  Both are evaluated from the dot products w.D, |w|^2
and |D|^2, which carry no cancellation inside a ball (|w| < L < |D|/2 by
2L < min_separation).  There D.(x-q) > |D|^2/2 and s < 3|D|/2, so the
bracket |D| s + D.(x-q) > (4/3) |D| s never reaches alpha_pq's string.
"""

import math

import numpy as np

from .monopole import (
    ScaledMonopole,
    SingularEvaluationError,
    _hedgehog_form,
    inv_minus_csch,
    ps_higgs_norm,
)
from .shell import (
    InvalidParameterError,
    _check_count,
    _check_index,
    _coulomb_rows,
    _map_blocks,
    _row_blocks,
    _short_rows,
    _table_map,
    fibonacci_sphere,
)
from .su2 import bracket, cross, form_norm, star_real_wedge, wedge_dual


class ChartViolationError(ValueError):
    """Ball pair evaluated outside its ball."""


# ---------------------------------------------------------------------------
# Cutoff profile

_PLATEAU_LO = 0.25  # chi = 1 at or below
_PLATEAU_HI = 0.5  # chi = 0 at or above


def _blend(t):
    """(chi(t), mid, t[mid], g, h): mid marks the t strictly between the
    plateaus, and g, h are taken there."""
    t = np.asarray(t, dtype=float)
    c = np.where(t >= _PLATEAU_HI, 0.0, 1.0)
    mid = (t > _PLATEAU_LO) & (t < _PLATEAU_HI)
    tm = t[mid]
    g = np.exp(-1.0 / (_PLATEAU_HI - tm))
    h = np.exp(-1.0 / (tm - _PLATEAU_LO))
    c[mid] = g / (g + h)
    return c, mid, tm, g, h


def _cutoff(t):
    """(chi(t), chi'(t)), the slope from `_blend`'s g and h; the exact
    slope chi' is zero on both plateaus."""
    c, mid, tm, g, h = _blend(t)
    cp = np.zeros_like(c)
    gp = -g / (_PLATEAU_HI - tm) ** 2
    hp = h / (tm - _PLATEAU_LO) ** 2
    cp[mid] = (gp * h - g * hp) / (g + h) ** 2
    return c, cp


def chi(t):
    """Smooth non-increasing cutoff: 1 on (-inf, 1/4], 0 on [1/2, inf), and
    g / (g + h) between, with g = exp(-1/(1/2 - t)) and h = exp(-1/(t - 1/4)).
    """
    out = _blend(t)[0]
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Exterior harmonic data

def _point_rows(x, cfg, reduce):
    """reduce(d) at points x (..., 3), shaped x.shape[:-1]: d (b, N), which it
    may overwrite, is a `_table_map` row block of distances to the shell."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[:-1])
    flat = out.reshape(-1)

    def block(rows, d2, _):
        flat[rows] = reduce(np.sqrt(d2, out=d2))

    _table_map(x.reshape(-1, 3), cfg.points, block)
    return out


def phi_theta(x, cfg):
    """1 - sum_p 1/|x - p| at points x (..., 3)."""

    def reduce(d):
        if np.any(d == 0.0):
            raise SingularEvaluationError("phi_theta evaluated on a shell point")
        return _coulomb_rows(d)

    return _point_rows(x, cfg, reduce)[()]


def grad_phi_theta(x, cfg):
    """Gradient of phi_theta, sum_p (x-p)/|x-p|^3, at points x (..., 3).

    Per `_table_map` row block, w = |x-p|^-3 goes into the spare array
    and each component sums (x_k - p_k) w from the coordinate differences,
    which carry no cancellation (x_k sum w - sum w p_k would lose digits
    near a ball).  Each difference overwrites the block's squared distances,
    an outer subtraction that reads the source coordinates at unit stride.
    The three run under one `shell._short_rows`, with their row sums: a
    (655, 100) `einsum` takes the same time under either buffer.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1, 3)
    out = np.empty(flat.shape)
    cols = np.asfortranarray(cfg.points)

    def block(rows, d2, w):
        if np.any(d2 == 0.0):
            raise SingularEvaluationError("grad_phi_theta evaluated on a shell point")
        np.sqrt(d2, out=w)
        w *= d2
        np.reciprocal(w, out=w)
        with _short_rows():
            for k in range(3):
                np.subtract.outer(flat[rows, k], cols[:, k], out=d2)
                out[rows, k] = np.einsum("bn,bn->b", d2, w)

    _table_map(flat, cfg.points, block)
    return out.reshape(x.shape)


def _eta_alpha_sums(X, p_idx, cfg):
    """(sum_q eta_pq, sum_q alpha_pq) at points X (B, 3) of the ball around p.

    With w = x-p, D = p-q and s = |x-q|, both sums come from the dot
    products w.D (one matrix product per row block), |w|^2 and |D|^2:
    s^2 = |D|^2 + 2 w.D + |w|^2, D.(x-q) = |D|^2 + w.D, and
    eta_pq = -(2 w.D + |w|^2) / (s |D| (|D| + s)), the difference
    1/s - 1/|D| without its cancellation.  Since w x D is linear in D,
    sum_q alpha_pq = w x sum_q D / (s (|D| s + D.(x-q))), whose bracket
    needs no guard: |w| < L < |D|/2 gives D.(x-q) > |D|^2/2 and s < 3|D|/2,
    so it exceeds (4/3) |D| s.  Rows are taken in the shell's row blocks of
    the (B, N - 1) tables, each block's tables written into four buffers
    allocated once per call, so memory stays bounded at any N.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    p = cfg.points[p_idx]
    D = p - np.delete(cfg.points, p_idx, axis=0)  # (Nq, 3), q != p
    DD = np.einsum("qk,qk->q", D, D)
    Dn = np.sqrt(DD)
    eta = np.empty(len(X))
    alpha = np.empty((len(X), 3))
    size, blocks = _row_blocks(len(X), len(D))
    buffers = np.empty((4, size, len(D)))
    for rows in blocks:
        wD, shift, s, Dns = buffers[:, :rows.stop - rows.start]
        w = X[rows] - p  # (b, 3)
        np.matmul(w, D.T, out=wD)
        np.multiply(wD, 2.0, out=shift)
        shift += np.einsum("bk,bk->b", w, w)[:, None]  # s^2 - |D|^2
        np.sqrt(np.add(DD, shift, out=s), out=s)
        np.multiply(s, Dn, out=Dns)
        wD += DD  # D.(x-q)
        wD += Dns
        wD *= s
        alpha[rows] = cross(w, np.reciprocal(wD, out=wD) @ D)
        np.add(Dn, s, out=wD)
        wD *= Dns
        eta[rows] = -np.sum(np.divide(shift, wD, out=wD), axis=1)
    return eta, alpha


# ---------------------------------------------------------------------------
# Ball pairs

def ball_fields(X, p_idx, cfg):
    """Ball-chart pair (a, phi) at points X (B, 3) inside the ball.

    Connection: (1/d - chi r/sinh(r d)) hedgehog - (1-chi) (sum_q alpha_pq)
    tensored with the radial algebra direction; Higgs: the core profile
    blended with the recentred exterior potential.
    """
    p_idx = _check_index(p_idx, cfg.N)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    p = cfg.points[p_idx]
    r = cfg.residues[p_idx]
    L = cfg.L
    w = X - p
    d = np.linalg.norm(w, axis=1)
    if np.any(d >= L):
        raise ChartViolationError("ball chart evaluated outside its ball")
    safe = np.where(d > 0, d, 1.0)
    xhat = w / safe[:, None]
    c = chi(8.0 * d / L - 1.0)
    s = r * d

    need_tail = np.any(c < 1.0)
    if need_tail:
        eta_sum, alpha_sum = _eta_alpha_sums(X, p_idx, cfg)
    else:
        eta_sum = np.zeros(len(X))
        alpha_sum = np.zeros((len(X), 3))

    # Connection: hedgehog coefficient 1/d - chi r/sinh(r d), written so the
    # chi = 1 plateau is the (cancellation-free) smooth-core profile.
    core = np.where(d > 0, c * r * inv_minus_csch(s) + (1.0 - c) / safe, 0.0)
    a = _hedgehog_form(xhat, core)
    a -= (1.0 - c)[:, None, None] * alpha_sum[:, :, None] * xhat[:, None, :]

    higgs = np.where(d > 0, ball_higgs(d, r, c, r - 1.0 / safe - eta_sum), 0.0)
    phi = higgs[:, None] * xhat
    return a, phi


def ball_higgs(d, r, c, ext):
    """Ball-chart Higgs coefficient c ps_higgs_norm(d, r) + (1 - c) ext at
    distance d from a shell point of residue r: the core blended into the
    exterior coefficient ext (phi_theta, = r - 1/d - sum_q eta_pq in the
    ball) by the cutoff c = chi(8 d / L - 1)."""
    return c * ps_higgs_norm(d, r) + (1.0 - c) * ext


def ball_evaluator(cfg, p_idx):
    """Pair evaluator (..., 3) -> (a, phi) of `ball_fields` around point p_idx."""
    p_idx = _check_index(p_idx, cfg.N)

    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, 3)
        a, phi = ball_fields(flat, p_idx, cfg)
        shp = pts.shape[:-1]
        return a.reshape(*shp, 3, 3), phi.reshape(*shp, 3)

    return ev


def _higgs_from_distances(d_all, cfg):
    """|Phi| from the (B, N) table of distances to the shell points; the
    table is overwritten.

    Within distance L of its nearest point a sample takes the ball-chart
    coefficient, outside it |phi_theta|; continuous across the switch.  The
    nearest point is looked up only for the rows within distance L of one.
    """
    d = np.min(d_all, axis=1)
    near = d < cfg.L
    dn = d[near]
    r = cfg.residues[np.argmin(d_all[near], axis=1)]
    with np.errstate(divide="ignore"):
        # phi_theta; -inf on a shell point
        ext = _coulomb_rows(d_all)
    out = np.abs(ext)

    c = chi(8.0 * dn / cfg.L - 1.0)
    # chi < 1 only off-centre, where phi_theta is finite; the identity
    # r_p - 1/d - sum eta = phi_theta collapses the tail sum.  At a shell
    # point chi = 1 and the core term is exactly 0.
    ext_near = np.where(c < 1.0, ext[near], 0.0)
    out[near] = np.abs(ball_higgs(dn, r, c, ext_near))
    return out


def higgs_norm(x, cfg):
    """|Phi| at points x (..., 3): ball-chart coefficient within distance L
    of a shell point, |phi_theta| outside.  Continuous across the switch."""
    out = _point_rows(x, cfg, lambda d: _higgs_from_distances(d, cfg))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Origin-centred spheres r u over fixed unit directions u
#
# For a source p and radius r, |r u - p|^2 = (r - |p|)^2 + r |p| G with
# G = |u - p/|p||^2.  G depends only on the directions and the sources, so
# one (B, N) table serves every radius, and every sphere function is a
# `_sphere_sweep` over it.

def _sphere_sweep(dirs, points, pn, reduce):
    """The function r -> out (B,) on the spheres r u, u = dirs (B, 3), about
    the sources `points` (N, 3) of norms pn = np.linalg.norm(points, axis=1).

    G is built once here from the `_table_map` of the directions against
    p/|p|, coordinate by coordinate, which keeps it accurate where u points
    at p; a source at the origin enters only through |p| = 0.  G is the
    only (B, N) array kept.  Each radius takes it in blocks of
    `_BLOCK_ELEMENTS // N` rows, run by `shell._map_blocks`: out[rows] =
    reduce(r)(d2), with d2 = |r u - p|^2 on those rows in the block buffer
    `_map_blocks` gives the part that runs the block.  reduce(r) is called
    once per radius, before any block.  The block function may overwrite
    d2 and must write nothing else that another block reads.
    """
    phat = points / np.where(pn > 0.0, pn, 1.0)[:, None]
    G = np.empty((len(dirs), len(phat)))

    def fill(rows, d2, _):
        G[rows] = d2

    _table_map(dirs, phat, fill)
    size, blocks = _row_blocks(*G.shape)

    def sweep(r):
        out = np.empty(len(G))
        scale, shift = r * pn, (r - pn) ** 2
        reduce_rows = reduce(r)

        def block(rows, buf):
            d2 = np.multiply(scale, G[rows], out=buf[: rows.stop - rows.start])
            d2 += shift
            out[rows] = reduce_rows(d2)

        _map_blocks(blocks, block, (size, len(pn)))
        return out

    return sweep


def _radial_gap(pn):
    """(r -> min_p |r - |p||, the radii |p| in ascending order) from the
    norms pn of the points, as `_sphere_sweep` takes them; the function
    takes radii of any shape.

    The rounded |r - |p|| is monotone in |p| on either side of r, so the
    minimum over every point is attained next to r in the sorted |p|.
    """
    pn = np.sort(pn)

    def gap(r):
        r = np.asarray(r, dtype=float)
        i = np.searchsorted(pn, r)
        below = np.abs(r - pn[np.maximum(i - 1, 0)])
        return np.minimum(below, np.abs(r - pn[np.minimum(i, len(pn) - 1)]))

    return gap, pn


def sphere_higgs_norm(dirs, field):
    """The function r -> |Phi|(r * dirs) for unit directions dirs (B, 3), a
    `_sphere_sweep` of a ShellConfig (`higgs_norm`, each block reduced by
    `_higgs_from_distances`) or of the exact core, a ScaledMonopole
    (`ps_higgs_norm` of the distance to its centre).

    A sphere of the glued pair whose gap delta = min_p |r - |p|| clears L
    has no sample in a ball, and each block reduces straight to
    |phi_theta|, with no nearest-point pass: exactly what
    `_higgs_from_distances` returns when no row is near.  The gap is taken
    once per radius.
    """
    if isinstance(field, ScaledMonopole):
        center = field.center[None]
        return _sphere_sweep(dirs, center, np.linalg.norm(center, axis=1),
                             lambda r: lambda d2: ps_higgs_norm(np.sqrt(d2[:, 0]), field.scale))
    pn = np.linalg.norm(field.points, axis=1)
    gap, _ = _radial_gap(pn)
    # The sweep rounds d^2 = fl(fl(r |p|) G) + fl(t^2), t = fl(r - |p|) with
    # |t| >= delta.  Both terms are >= 0 and rounding is monotone, so d^2 >=
    # fl(t^2) >= t^2 (1 - u), and d = fl(sqrt(d^2)) >= |t| (1 - u)^(3/2)
    # > delta (1 - 2u), u = eps / 2.  Hence delta > fl(L (1 + 2 eps)) >=
    # L (1 + 4u)(1 - u) gives d > L (1 + 4u)(1 - u)(1 - 2u) > L on every row.
    clear = field.L * (1.0 + 2.0 * np.finfo(float).eps)

    def clear_sphere(d2):
        d = np.sqrt(d2, out=d2)
        return np.abs(_coulomb_rows(d))

    def any_sphere(d2):
        return _higgs_from_distances(np.sqrt(d2, out=d2), field)

    return _sphere_sweep(dirs, field.points, pn,
                         lambda r: clear_sphere if gap(r) > clear else any_sphere)


# ---------------------------------------------------------------------------
# Explicit residual

def _ball_residual(X, owner, cfg):
    """(live, xh, gT, gL, |Phi|) of the glued pair on the balls around the shell points.

    Row i of X (B, 3) is evaluated in the ball of point owner[i]; a scalar
    owner serves every row.  `live` marks the rows on the cutoff transition
    shell, where chi' != 0 or 0 < chi < 1; xh (the unit vector from the
    owner to the sample), gT, gL and |Phi| are returned for those rows only.
    Everywhere else g = 0.  |Phi| is |`ball_higgs`| with the exterior part
    r_p - 1/d - eta from the residual's own tail sum, so this is
    `higgs_norm`.  The tail sums run once per run of equal owners among the
    live rows, so a ball's sums see the same rows as in a call of its own.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    owner = np.broadcast_to(owner, len(X))
    r = cfg.residues[owner]
    L = cfg.L
    w = X - cfg.points[owner]
    d = np.linalg.norm(w, axis=1)
    if np.any(d == 0.0):
        raise SingularEvaluationError("residual evaluated at a shell point")
    c, cp = _cutoff(8.0 * d / L - 1.0)
    cp *= 8.0 / L  # radial derivative of chi_p
    live = (cp != 0.0) | ((c > 0.0) & (c < 1.0))
    if not np.any(live):
        empty = np.zeros((0, 3, 3))
        return live, np.zeros((0, 3)), empty, empty, np.zeros(0)

    dl, cl, cpl, rl = d[live], c[live], cp[live], r[live]
    xh = w[live] / dl[:, None]
    s = rl * dl
    Xl, own = X[live], owner[live]
    eta_sum = np.empty(len(Xl))
    alpha_sum = np.empty((len(Xl), 3))
    bounds = [0, *(np.flatnonzero(own[1:] != own[:-1]) + 1), len(own)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        eta_sum[lo:hi], alpha_sum[lo:hi] = _eta_alpha_sums(Xl[lo:hi], own[lo], cfg)
    eta = -eta_sum  # (3.36)-style signed tails
    alpha = -alpha_sum
    Q = rl * (1.0 / np.tanh(s) - 1.0)
    Ap = _hedgehog_form(xh, -rl / np.sinh(s))
    dchi = cpl[:, None] * xh  # real 1-form
    sh_Ap = bracket(xh[:, None, :], Ap)  # [sigma_hat, A_p] per form row
    ccm = (cl * (cl - 1.0))[:, None, None]

    gT = star_real_wedge(dchi, Ap)
    gT += ccm * ((Q - eta)[:, None, None] * sh_Ap - star_real_wedge(alpha, sh_Ap))

    gL = ccm * 0.5 * wedge_dual(Ap, Ap)
    coeff = cross(dchi, alpha) + (Q - eta)[:, None] * dchi
    gL -= coeff[:, :, None] * xh[:, None, :]

    higgs = np.abs(ball_higgs(dl, rl, cl, rl - 1.0 / dl - eta_sum))
    return live, xh, gT, gL, higgs


def residual_fields(X, p_idx, cfg):
    """(gT, gL) of the glued pair on the ball around point p, batched.

    Derived in closed form from the chart data; supported on the cutoff
    transition shell 5L/32 <= |x-p| <= 3L/16.  With d chi the radial
    cutoff differential, A_p the core's sinh correction 1-form, Q the core
    Higgs overshoot, eta/alpha the (signed) exterior tail sums:

        gT = *(dchi ^ A_p) + chi (chi - 1) [ (Q - eta)[sh, A_p]
                                             - *(alpha ^ [sh, A_p]) ]
        gL = chi (chi - 1) *(A_p ^ A_p) - ( *(dchi ^ alpha) + (Q - eta) dchi ) sh
    """
    p_idx = _check_index(p_idx, cfg.N)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    live, _, gT_l, gL_l, _ = _ball_residual(X, p_idx, cfg)
    gT = np.zeros((len(X), 3, 3))
    gL = np.zeros((len(X), 3, 3))
    gT[live] = gT_l
    gL[live] = gL_l
    return gT, gL


# ---------------------------------------------------------------------------
# Support sampling and the weighted residual norm

def annulus_points(cfg, p_idx, n_radial, n_angular):
    """Deterministic product sampling of the residual support shell."""
    return cfg.points[_check_index(p_idx, cfg.N)] + _annulus_offsets(cfg, n_radial, n_angular)


def _shell_grid(radii, n_angular):
    """Offsets (len(radii) n_angular, 3): each radius times a Fibonacci sphere
    of n_angular directions, radius-major."""
    return (radii[:, None, None] * fibonacci_sphere(n_angular)[None]).reshape(-1, 3)


def _annulus_offsets(cfg, n_radial, n_angular):
    """The `annulus_points` of a shell point p, less p: radii L/8 .. L/4 x a Fibonacci sphere."""
    _check_count(n_radial=n_radial, n_angular=n_angular)
    return _shell_grid(np.linspace(cfg.L / 8, cfg.L / 4, n_radial), n_angular)


def annulus_maxima(cfg, n_radial, n_angular):
    """Per support shell: max |gT|, max |gL| and max |<sigma_hat, gL>|.

    Returns a (3, N) array, one row per quantity, one column per shell
    point, each shell sampled on `annulus_points(cfg, p, n_radial,
    n_angular)`.
    """
    return _residual_sweep(cfg, n_radial, n_angular)[0]


def transverse_decay(cfgs):
    """How the transverse residual peak follows the core decay scale.

    Per configuration: x = rbar L, with rbar the smallest residue, and
    y = ln max |gT| over every support shell sampled by
    `annulus_maxima(cfg, 8, 64)`.  Returns the arrays x and y and the
    coefficients (slope, intercept) of their affine least-squares fit.
    """
    x = np.array([cfg.diagnostics["Lr_min"] for cfg in cfgs])
    y = np.array([math.log(annulus_maxima(cfg, 8, 64)[0].max()) for cfg in cfgs])
    return x, y, np.polyfit(x, y, 1)


def _band_rows(cfg, offsets):
    """Indices of the rows o of offsets (n, 3) whose radius can reach the
    open band (5L/32, 3L/16), the only rows of p + offsets on which
    `_ball_residual` can find a live sample, whatever the shell point p.

    A live sample has 1.25 < fl(8 d / L) < 1.5, so its computed distance d
    lies strictly between 5L/32 and 3L/16.  With u = eps / 2, the sample
    x = fl(p + o) gives w = fl(x - p) within u |o| + u (1 + u)(|p| + |o|)
    of o per coordinate, and a computed norm lies within 3u of the exact
    one.  So the computed |o| of a live row lies within 9u 5L/32 + 2u |p|
    below the band and 10u 3L/16 + 3u |p| above it.  `make_shell_config`
    accepts only points within 1e-12 R of radius R, so |p| < 2R, and the
    slack 4 eps (R + L) covers both margins and the rounding of the band
    edges themselves.  At (1600, 256), R/L = 1.2e5, it is 3.5e-9 of the
    band width L/32.
    """
    rho = np.linalg.norm(offsets, axis=1)
    slack = 4.0 * np.finfo(float).eps * (cfg.R + cfg.L)
    return np.flatnonzero((rho > 5.0 * cfg.L / 32.0 - slack) & (rho < 3.0 * cfg.L / 16.0 + slack))


def _grid_residuals(cfg, shells, offsets):
    """(owners, `_ball_residual` output) on p + offsets (n, 3) for every
    shell point p in `shells`, in one call; rows are ordered by shell.

    The sweep passes a grid's `_band_rows` alone: the other rows of the
    grid have g = 0 at every shell point and are never formed.  Each
    shell's live rows are the ones of the whole grid, in the same order,
    so its tail sums see the same rows."""
    pts = (cfg.points[shells][:, None, :] + offsets).reshape(-1, 3)
    owner = np.repeat(shells, len(offsets))
    return owner, _ball_residual(pts, owner, cfg)


def _residual_sweep(cfg, n_radial, n_angular, quad=None):
    """Every support shell evaluated once on each of its grids.

    Returns (`annulus_maxima` on the sampling grid, the sup term of the
    weighted norm on that grid, its integral term on the Gauss-Legendre x
    Fibonacci quadrature grid quad = (quad_radial, quad_angular), or None
    without a quadrature).  Both weights take |Phi| from `_ball_residual`,
    on the live samples only: elsewhere g = 0 and the sample adds exactly 0
    to either term.

    Only each grid's `_band_rows` are formed, the offsets whose radius can
    reach the transition band (5L/32, 3L/16) within a slack derived from
    the rounding of fl(p + o) - p; the grids span [L/8, L/4], so about
    three rows in four are never formed.  `_ball_residual`'s own liveness
    test still decides every formed row.  The shells are taken in the
    `_row_blocks` of a shell's band rows of both grids, each carrying the
    18 entries of its gT and gL: blocks of about `_BLOCK_ELEMENTS // 18`
    band rows (at least one shell), each grid of a block in one
    `_ball_residual` call, so memory stays bounded at any N.  The grids
    are not merged into one call: the tail sums of a shell then see
    exactly the rows of a one-shell call, and a BLAS matrix product may
    round a row differently in a block of another height.  Per-shell
    maxima and integrals are reduced on each shell's own rows, the
    quadrature densities scattered back onto the whole grid with zeros
    elsewhere, and combined shell by shell in index order, so the results
    do not depend on the blocking.

    A grid with no live sample at any shell raises InvalidParameterError,
    since its terms would read 0 whatever the field.  That is a grid with no
    radius strictly inside the band, such as n_radial or quad_radial in
    {1, 2, 3, 5}: 3L/16, the middle of [L/8, L/4], is a radius of the
    sampling grid for odd n_radial and a node for odd quad_radial.
    """
    grids = [_annulus_offsets(cfg, n_radial, n_angular)]
    names = [f"sampling grid (n_radial={n_radial}, n_angular={n_angular})"]
    if quad is not None:
        quad_radial, quad_angular = quad
        _check_count(quad_radial=quad_radial, quad_angular=quad_angular)
        nodes, wts = np.polynomial.legendre.leggauss(quad_radial)
        lo, hi = cfg.L / 8, cfg.L / 4
        q_radii = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        q_w = 0.5 * (hi - lo) * wts
        grids.append(_shell_grid(q_radii, quad_angular))
        names.append(f"quadrature grid (quad_radial={quad_radial}, quad_angular={quad_angular})")
    bands = [_band_rows(cfg, g) for g in grids]
    live_samples = [0] * len(grids)
    maxima = np.zeros((3, cfg.N))
    sup = np.zeros(cfg.N)
    shell_integrals = np.zeros(cfg.N)
    for block in _row_blocks(cfg.N, 18 * sum(len(b) for b in bands))[1]:
        shells = np.arange(block.start, block.stop)
        owner, (live, xh, gT, gL, higgs) = _grid_residuals(cfg, shells, grids[0][bands[0]])
        owner = owner[live]
        live_samples[0] += len(owner)
        inner = np.abs(np.einsum("bk,bmk->bm", xh, gL)).max(axis=1)
        for row, vals in zip(maxima, (form_norm(gT), form_norm(gL), inner)):
            np.maximum.at(row, owner, vals)
        with np.errstate(divide="ignore"):
            np.maximum.at(sup, owner, inner / higgs**2)
        if quad is None:
            continue

        band = bands[1]
        _, (live, _, gTq, _, higgs_q) = _grid_residuals(cfg, shells, grids[1][band])
        live_samples[1] += len(higgs_q)
        # |[sh, gT]| = |gT| for transverse parts in su(2).
        formed = np.zeros((len(shells), len(band)))
        formed.reshape(-1)[live] = (form_norm(gTq) / higgs_q) ** 3
        dens = np.zeros((len(shells), len(grids[1])))
        dens[:, band] = formed
        dens = dens.reshape(len(shells), quad_radial, quad_angular)
        shell_integrals[shells] = np.sum(
            q_w * q_radii**2 * dens.sum(axis=2) * (4.0 * np.pi / quad_angular), axis=1
        )
    for name, count in zip(names, live_samples):
        if count == 0:
            raise InvalidParameterError(
                f"the {name} has no sample inside the band (5L/32, 3L/16) at any shell")
    # shell by shell: a NaN shell maximum is passed over, and the integral
    # is summed left to right
    sup_term = max([0.0, *sup.tolist()])
    if quad is None:
        return maxima, sup_term, None
    integral = 0.0
    for v in shell_integrals.tolist():
        integral += v
    return maxima, sup_term, integral ** (1.0 / 3.0)


def gstar_norm(cfg, n_radial=8, n_angular=128, quad_radial=8, quad_angular=64):
    """The weighted residual norm: sup |Phi|^-2 |<sh, g>| plus the cubed
    integral of |Phi|^-1 |[sh, g]| over the support shells.

    Returns (total, sup_term, integral_term).  The weights blow up if the
    Higgs norm vanishes on the support shell, which happens whenever
    r_p L is small; the sampled value is then resolution-dependent.  A
    sample off the cutoff transition shell has g = 0 and adds 0 to both
    terms, even where |Phi| = 0 there (no 0/0).
    """
    _, sup_term, int_term = _residual_sweep(cfg, n_radial, n_angular, (quad_radial, quad_angular))
    return sup_term + int_term, sup_term, int_term


def gstar_doubling(cfg, n_radial=8, n_angular=128, quad_radial=8, quad_angular=64):
    """`gstar_norm` at the given resolution and at twice it on every axis.

    Returns the two (total, sup_term, integral_term) triples; their shift
    tells whether the sampled norm has a resolution-independent value.
    """
    base = gstar_norm(cfg, n_radial, n_angular, quad_radial, quad_angular)
    return base, gstar_norm(cfg, 2 * n_radial, 2 * n_angular, 2 * quad_radial, 2 * quad_angular)


def gstar_scaling(cfg):
    """The weighted norm against its m ln N scaling, and how stable it is.

    Returns (base, doubled, scaled, shift): the two `gstar_doubling`
    triples at the default resolution, base total x m ln N, and the
    relative shift |doubled - base| / base of the totals.
    """
    base, doubled = gstar_doubling(cfg)
    return base, doubled, base[0] * cfg.m * math.log(cfg.N), abs(doubled[0] - base[0]) / base[0]


def residual_report(cfg, n_radial=8, n_angular=128):
    """Summary of the residual over every support shell (JSON-friendly).

    The maxima and the weighted norm's sup term share one evaluation per
    support shell at (n_radial, n_angular); the integral term uses
    `gstar_norm`'s default quadrature.
    """
    maxima, sup_term, int_term = _residual_sweep(cfg, n_radial, n_angular, (8, 64))
    keys = ("max_gT", "max_gL", "max_inner_sigma_g")
    return {
        **dict(zip(keys, maxima.max(axis=1).tolist())),
        "gstar": sup_term + int_term,
        "gstar_sup_term": sup_term,
        "gstar_integral_term": int_term,
        "per_annulus": [
            {"point": p_idx, **dict(zip(keys, col))}
            for p_idx, col in enumerate(maxima.T.tolist())
        ],
    }
