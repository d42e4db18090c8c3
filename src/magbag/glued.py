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
and |D|^2, which carry no cancellation inside a ball (|w| < L < |D|/2).
"""

import numpy as np

from .monopole import (
    SingularEvaluationError,
    _hedgehog_form,
    coth_minus_inv,
    inv_minus_csch,
)
from .shell import _squared_distances
from .su2 import bracket, form_norm, star_real_wedge, wedge_dual


class ChartViolationError(ValueError):
    """Ball pair evaluated outside its ball."""


# ---------------------------------------------------------------------------
# Cutoff profile

_PLATEAU_LO = 0.25  # chi = 1 at or below
_PLATEAU_HI = 0.5  # chi = 0 at or above


def _bump(s):
    """exp(-1/s) for s > 0, 0 otherwise; all derivatives vanish at 0."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def chi(t):
    """Smooth non-increasing cutoff: 1 on (-inf, 1/4], 0 on [1/2, inf)."""
    t = np.asarray(t, dtype=float)
    g = _bump(_PLATEAU_HI - t)
    h = _bump(t - _PLATEAU_LO)
    out = np.ones_like(t)
    hi = t >= _PLATEAU_HI
    mid = (t > _PLATEAU_LO) & ~hi
    out[hi] = 0.0
    out[mid] = g[mid] / (g[mid] + h[mid])
    return out if out.ndim else float(out)


def chi_prime(t):
    """Exact derivative of the cutoff (zero on both plateaus)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mid = (t > _PLATEAU_LO) & (t < _PLATEAU_HI)
    tm = t[mid]
    g = np.exp(-1.0 / (_PLATEAU_HI - tm))
    h = np.exp(-1.0 / (tm - _PLATEAU_LO))
    gp = -g / (_PLATEAU_HI - tm) ** 2
    hp = h / (tm - _PLATEAU_LO) ** 2
    out[mid] = (gp * h - g * hp) / (g + h) ** 2
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Exterior harmonic data

def phi_theta(x, cfg):
    """1 - sum_p 1/|x - p| at points x (..., 3)."""
    d = _squared_distances(x, cfg.points)
    np.sqrt(d, out=d)
    if np.any(d == 0.0):
        raise SingularEvaluationError("phi_theta evaluated on a shell point")
    return 1.0 - np.sum(1.0 / d, axis=-1)


def grad_phi_theta(x, cfg):
    """Gradient of phi_theta, sum_p (x-p)/|x-p|^3."""
    x = np.asarray(x, dtype=float)
    diff = x[..., None, :] - cfg.points
    d = np.linalg.norm(diff, axis=-1)
    if np.any(d == 0.0):
        raise SingularEvaluationError("grad_phi_theta evaluated on a shell point")
    return np.sum(diff / d[..., None] ** 3, axis=-2)


# Where |D| s + D.(x-q) falls below this multiple of |D| s, rounding alone
# can produce it: x lies on the primitive's string, the ray from q away from p.
_STRING_TOL = 16.0 * np.finfo(float).eps


def _alpha_weight(s, Dn, Dxq):
    """1 / (s (|D| s + D.(x-q))), the factor with alpha_pq = weight * (w x D).

    Arguments are s = |x-q|, Dn = |D| = |p-q| and Dxq = D.(x-q), broadcast
    together.  The bracket vanishes only on the ray from q away from p
    (x = q included), where the primitive is singular; evaluation there
    raises.
    """
    t = Dn * s + Dxq
    if np.any(t <= _STRING_TOL * Dn * s):
        raise SingularEvaluationError("alpha_pq evaluated on its string behind q")
    return 1.0 / (s * t)


def _others(cfg, p_idx):
    mask = np.ones(cfg.N, dtype=bool)
    mask[p_idx] = False
    return cfg.points[mask]


def _eta_alpha_sums(X, p_idx, cfg, chunk=512):
    """(sum_q eta_pq, sum_q alpha_pq) at points X (B, 3) of the ball around p.

    With w = x-p and D = p-q, both sums come from the dot products w.D
    (one matrix product per chunk), |w|^2 and |D|^2:
    |x-q|^2 = |D|^2 + 2 w.D + |w|^2, D.(x-q) = |D|^2 + w.D, and
    eta_pq = -(2 w.D + |w|^2) / (|x-q| |D| (|D| + |x-q|)), the difference
    1/|x-q| - 1/|D| without its cancellation.  Since w x D is linear in D,
    sum_q alpha_pq = w x sum_q weight_q D.  Rows are taken `chunk` at a
    time, so memory stays O(chunk N).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    p = cfg.points[p_idx]
    D = p - _others(cfg, p_idx)  # (Nq, 3)
    DD = np.einsum("qk,qk->q", D, D)
    Dn = np.sqrt(DD)
    eta = np.empty(len(X))
    alpha = np.empty((len(X), 3))
    for lo in range(0, len(X), chunk):
        w = X[lo : lo + chunk] - p  # (b, 3)
        wD = w @ D.T  # (b, Nq)
        shift = 2.0 * wD + np.einsum("bk,bk->b", w, w)[:, None]  # |x-q|^2 - |D|^2
        s = np.sqrt(DD + shift)
        eta[lo : lo + chunk] = -np.sum(shift / (s * Dn * (Dn + s)), axis=1)
        alpha[lo : lo + chunk] = np.cross(w, _alpha_weight(s, Dn, DD + wD) @ D)
    return eta, alpha


# ---------------------------------------------------------------------------
# Ball pairs

def ball_fields(X, p_idx, cfg):
    """Ball-chart pair (a, phi) at points X (B, 3) inside the ball.

    Connection: (1/d - chi r/sinh(r d)) hedgehog - (1-chi) (sum_q alpha_pq)
    tensored with the radial algebra direction; Higgs: the core profile
    blended with the recentred exterior potential.
    """
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
    a -= ((1.0 - c) * 1.0)[:, None, None] * alpha_sum[:, :, None] * xhat[:, None, :]

    higgs = c * r * coth_minus_inv(s) + (1.0 - c) * (r - 1.0 / safe - eta_sum)
    higgs = np.where(d > 0, higgs, 0.0)
    phi = higgs[:, None] * xhat
    return a, phi


def ball_evaluator(cfg, p_idx):
    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, 3)
        a, phi = ball_fields(flat, p_idx, cfg)
        shp = pts.shape[:-1]
        return a.reshape(*shp, 3, 3), phi.reshape(*shp, 3)

    return ev


def _higgs_from_distances(d_all, cfg):
    """|Phi| from the (B, N) table of distances to the shell points.

    Within distance L of its nearest point a sample takes the ball-chart
    coefficient, outside it |phi_theta|; continuous across the switch.
    """
    nearest = np.argmin(d_all, axis=1)
    d = d_all[np.arange(len(d_all)), nearest]
    with np.errstate(divide="ignore"):
        ext = 1.0 - np.sum(1.0 / d_all, axis=1)  # phi_theta; -inf on a shell point
    out = np.abs(ext)

    near = d < cfg.L
    dn = d[near]
    r = cfg.residues[nearest[near]]
    c = chi(8.0 * dn / cfg.L - 1.0)
    # chi < 1 only off-centre, where phi_theta is finite; the identity
    # r_p - 1/d - sum eta = phi_theta collapses the tail sum.  At a shell
    # point chi = 1 and the core term is exactly 0.
    ext_near = np.where(c < 1.0, ext[near], 0.0)
    out[near] = np.abs(c * (r * coth_minus_inv(r * dn)) + (1.0 - c) * ext_near)
    return out


def higgs_norm(x, cfg):
    """|Phi| at points x (..., 3): ball-chart coefficient within distance L
    of a shell point, |phi_theta| outside.  Continuous across the switch."""
    x = np.asarray(x, dtype=float)
    flat = np.atleast_2d(x.reshape(-1, 3))
    d = _squared_distances(flat, cfg.points)
    out = _higgs_from_distances(np.sqrt(d, out=d), cfg)
    return out.reshape(x.shape[:-1]) if x.ndim > 1 else float(out[0])


# ---------------------------------------------------------------------------
# Origin-centred spheres r u over fixed unit directions u
#
# For a source p and radius r, |r u - p|^2 = (r - |p|)^2 + r |p| G with
# G = |u - p/|p||^2, and (r u - p).u = (r - |p|) + |p| G / 2.  G depends only
# on the directions and the sources, so one (B, N) table serves every radius
# and no (B, N, 3) array is built.

def _direction_table(dirs, points):
    """(|p|, G) for unit directions (B, 3) and sources (N, 3): G = |u - p_hat|^2.

    G is summed coordinate by coordinate, which keeps it accurate where u
    points at p.  A source at the origin has p_hat = 0 and enters only
    through |p| = 0.
    """
    pn = np.linalg.norm(points, axis=1)
    phat = points / np.where(pn > 0.0, pn, 1.0)[:, None]
    return pn, _squared_distances(dirs, phat)


def sphere_higgs_norm(dirs, cfg):
    """The function r -> higgs_norm(r * dirs, cfg) for unit directions (B, 3).

    The direction table is built once here; each radius then costs a few
    (B, N) passes.
    """
    pn, G = _direction_table(dirs, cfg.points)

    def norm(r):
        d = (r * pn) * G
        d += (r - pn) ** 2
        return _higgs_from_distances(np.sqrt(d, out=d), cfg)

    return norm


def sphere_flux_density(dirs, cfg):
    """The function r -> grad phi_theta(r u) . u at unit directions u = dirs (B, 3).

    Each term (r u - p).u / |r u - p|^3 is taken from the direction table;
    outside the shell both parts of (r - |p|) + |p| G / 2 are non-negative,
    so the numerator carries no cancellation.
    """
    pn, G = _direction_table(dirs, cfg.points)

    def density(r):
        d2 = (r * pn) * G
        d2 += (r - pn) ** 2
        if np.any(d2 == 0.0):
            raise SingularEvaluationError("flux density evaluated on a shell point")
        # |r u - p|^3 and the numerator are built in place, so at most
        # three (B, N) arrays are alive at once.
        cube = np.sqrt(d2)
        cube *= d2
        del d2
        num = (0.5 * pn) * G
        num += r - pn
        num /= cube
        return np.sum(num, axis=1)

    return density


# ---------------------------------------------------------------------------
# Explicit residual

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
    X = np.atleast_2d(np.asarray(X, dtype=float))
    p = cfg.points[p_idx]
    r = cfg.residues[p_idx]
    L = cfg.L
    w = X - p
    d = np.linalg.norm(w, axis=1)
    if np.any(d == 0.0):
        raise SingularEvaluationError("residual evaluated at a shell point")
    xhat = w / d[:, None]
    t = 8.0 * d / L - 1.0
    c = chi(t)
    cp = chi_prime(t) * (8.0 / L)  # radial derivative of chi_p
    live = (cp != 0.0) | ((c > 0.0) & (c < 1.0))

    gT = np.zeros((len(X), 3, 3))
    gL = np.zeros((len(X), 3, 3))
    if not np.any(live):
        return gT, gL

    Xl, dl, xh = X[live], d[live], xhat[live]
    cl, cpl = c[live], cp[live]
    s = r * dl
    eta_sum, alpha_sum = _eta_alpha_sums(Xl, p_idx, cfg)
    eta = -eta_sum  # (3.36)-style signed tails
    alpha = -alpha_sum
    Q = r * (1.0 / np.tanh(s) - 1.0)
    Ap = _hedgehog_form(xh, -r / np.sinh(s))
    dchi = cpl[:, None] * xh  # real 1-form
    sh_Ap = bracket(xh[:, None, :], Ap)  # [sigma_hat, A_p] per form row
    ccm = (cl * (cl - 1.0))[:, None, None]

    gT_l = star_real_wedge(dchi, Ap)
    gT_l += ccm * ((Q - eta)[:, None, None] * sh_Ap - star_real_wedge(alpha, sh_Ap))

    gL_l = ccm * 0.5 * wedge_dual(Ap, Ap)
    coeff = np.cross(dchi, alpha) + (Q - eta)[:, None] * dchi
    gL_l -= coeff[:, :, None] * xh[:, None, :]

    gT[live] = gT_l
    gL[live] = gL_l
    return gT, gL


# ---------------------------------------------------------------------------
# Support sampling and the weighted residual norm

def annulus_points(cfg, p_idx, n_radial, n_angular):
    """Deterministic product sampling of the residual support shell."""
    from .analysis import fibonacci_sphere

    L = cfg.L
    radii = np.linspace(L / 8, L / 4, n_radial)
    dirs = fibonacci_sphere(n_angular)
    pts = cfg.points[p_idx] + radii[:, None, None] * dirs[None, :, :]
    return pts.reshape(-1, 3), radii, dirs


def _annulus_residuals(cfg, p_idx, n_radial, n_angular):
    """The support shell of ball p sampled once on `annulus_points`.

    Returns the points, max_m |<sigma_hat, gL_m>| at each (the part the
    weighted norm divides by |Phi|^2), and the shell's maxima
    (max |gT|, max |gL|, max |<sigma_hat, gL>|).
    """
    pts, _, _ = annulus_points(cfg, p_idx, n_radial, n_angular)
    gT, gL = residual_fields(pts, p_idx, cfg)
    xh = pts - cfg.points[p_idx]
    xh /= np.linalg.norm(xh, axis=1)[:, None]
    inner = np.abs(np.einsum("bk,bmk->bm", xh, gL)).max(axis=1)
    return pts, inner, (form_norm(gT).max(), form_norm(gL).max(), inner.max())


def annulus_maxima(cfg, n_radial, n_angular):
    """Per support shell: max |gT|, max |gL| and max |<sigma_hat, gL>|.

    Returns a (3, N) array, one row per quantity, one column per shell
    point, each shell sampled on `annulus_points(cfg, p, n_radial,
    n_angular)`.
    """
    rows = [_annulus_residuals(cfg, p_idx, n_radial, n_angular)[2] for p_idx in range(cfg.N)]
    return np.array(rows).T


def _residual_sweep(cfg, n_radial, n_angular, quad_radial, quad_angular):
    """Every support shell evaluated once on each of its two grids.

    Returns (`annulus_maxima` on the sampling grid, the sup term of the
    weighted norm on that grid, its integral term on the Gauss-Legendre x
    Fibonacci quadrature grid).
    """
    from .analysis import fibonacci_sphere

    nodes, wts = np.polynomial.legendre.leggauss(quad_radial)
    lo, hi = cfg.L / 8, cfg.L / 4
    q_radii = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    q_w = 0.5 * (hi - lo) * wts
    q_dirs = fibonacci_sphere(quad_angular)
    maxima = np.empty((3, cfg.N))
    sup_term = 0.0
    integral = 0.0
    for p_idx in range(cfg.N):
        pts, inner, maxima[:, p_idx] = _annulus_residuals(cfg, p_idx, n_radial, n_angular)
        with np.errstate(divide="ignore"):
            sup_term = max(sup_term, float(np.max(inner / higgs_norm(pts, cfg) ** 2)))

        qpts = cfg.points[p_idx] + q_radii[:, None, None] * q_dirs[None, :, :]
        qflat = qpts.reshape(-1, 3)
        gTq, _ = residual_fields(qflat, p_idx, cfg)
        # |[sh, gT]| = |gT| for transverse parts in su(2).
        dens = (form_norm(gTq) / higgs_norm(qflat, cfg)) ** 3
        dens = dens.reshape(quad_radial, quad_angular)
        shell = np.sum(q_w * q_radii**2 * dens.sum(axis=1) * (4.0 * np.pi / quad_angular))
        integral += float(shell)
    return maxima, sup_term, integral ** (1.0 / 3.0)


def gstar_norm(cfg, n_radial=8, n_angular=128, quad_radial=8, quad_angular=64):
    """The weighted residual norm: sup |Phi|^-2 |<sh, g>| plus the cubed
    integral of |Phi|^-1 |[sh, g]| over the support shells.

    Returns (total, sup_term, integral_term).  The weights blow up if the
    Higgs norm vanishes on the support shell, which happens whenever
    r_p L is small; the sampled value is then resolution-dependent.
    """
    _, sup_term, int_term = _residual_sweep(cfg, n_radial, n_angular, quad_radial, quad_angular)
    return sup_term + int_term, sup_term, int_term


def gstar_doubling(cfg, n_radial=8, n_angular=128, quad_radial=8, quad_angular=64):
    """`gstar_norm` at the given resolution and at twice it on every axis.

    Returns the two (total, sup_term, integral_term) triples; their shift
    tells whether the sampled norm has a resolution-independent value.
    """
    base = gstar_norm(cfg, n_radial, n_angular, quad_radial, quad_angular)
    return base, gstar_norm(cfg, 2 * n_radial, 2 * n_angular, 2 * quad_radial, 2 * quad_angular)


def residual_report(cfg, n_radial=8, n_angular=128):
    """Summary of the residual over every support shell (JSON-friendly).

    The maxima and the weighted norm's sup term share one evaluation per
    support shell at (n_radial, n_angular); the integral term uses
    `gstar_norm`'s default quadrature.
    """
    maxima, sup_term, int_term = _residual_sweep(cfg, n_radial, n_angular, 8, 64)
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
