"""Gauge-invariant global diagnostics.

Sphere statistics of |Phi|, critical radii, flux/charge, local winding
numbers, energy integrals, and the bag-geometry measurements
(`theorem_report`, `higgs_floor`).  All surface integrals use an
equal-weight Fibonacci lattice.  Nothing here applies a bound: the
verification suites and the acceptance tests bound these values.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import glued
from .monopole import ScaledMonopole, ps_evaluator, ps_higgs_norm
from .operators import _stencil_points, fd_curvature
from .shell import (
    InvalidParameterError,
    _check_count,
    _check_index,
    _check_positive,
    _coulomb_rows,
    _row_blocks,
    fibonacci_sphere,
)
from .su2 import cross


class NumericFailureError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Spherical quadrature

@dataclass(frozen=True)
class SphereQuadrature:
    M: int

    def __post_init__(self):
        _check_count(M=self.M)

    @functools.cached_property
    def points(self):
        """The M lattice directions (M, 3), built on first use; read-only."""
        pts = fibonacci_sphere(self.M)
        pts.flags.writeable = False
        return pts

    @property
    def weight(self):
        return 4.0 * np.pi / self.M


def sphere_stats(r, field, quad):
    """(min, mean, max) of |Phi| over the radius-r sphere: the one row of
    `radial_profile([r])`."""
    return radial_profile([r], field, quad)[0][1:]


def radial_profile(radii, field, quad):
    """Rows of (radius, min, mean, max); radii must be a 1-D sequence of
    finite, positive, strictly increasing values."""
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1:
        raise InvalidParameterError("radii must be a 1-D sequence")
    if not np.all(np.isfinite(radii)):
        raise InvalidParameterError("radii must be finite")
    if np.any(radii <= 0):
        raise InvalidParameterError("radii must be positive")
    if np.any(np.diff(radii) <= 0):
        raise InvalidParameterError("radii must be strictly increasing")
    sphere = glued.sphere_higgs_norm(quad.points, field)
    rows = []
    for r in radii:
        vals = sphere(r)
        rows.append((float(r), float(vals.min()), float(vals.mean()), float(vals.max())))
    return rows


def write_profile_csv(rows, fh):
    """Profile table radius,min_phi,mean_phi,max_phi, 17 significant digits, to text file fh."""
    lines = ["radius,min_phi,mean_phi,max_phi"]
    for r, lo, mean, hi in rows:
        lines.append(f"{r:.17g},{lo:.17g},{mean:.17g},{hi:.17g}")
    fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Critical radii

# Relative slack of `_sphere_bounds`: it covers the rounding of the distances,
# of the N-term Coulomb sum and of the packing bound's N-term sum (each off by
# at most about N eps relative), so the computed sphere values never leave the
# bounds (checked in the tests).
_FLOOR_SLACK = 1e-9


def _sphere_bounds(field):
    """Certified bounds r -> (floor, ceiling) on the sampled min and max |Phi|
    over the radius-r sphere; r may be an array of radii.

    Every sample x of the sphere has |r - |p|| <= |x - p| <= r + |p| for
    each source p.  The core's |Phi| grows with the distance to its centre
    c, so it lies between ps_higgs_norm(|r - |c||) and ps_higgs_norm(r + |c|).

    For the glued pair let delta = min_p |r - |p||.  If delta < L a sample
    may lie in a ball, and the bounds are -inf and +inf.  Otherwise |Phi| =
    |1 - sum_p 1/|x - p||, and N / (r + max|p|) <= sum_p 1/|x - p| <= S+(r)
    puts |Phi| between 1 - S+ and max(1 - N / (r + max|p|), S+ - 1), where
    S+ is a spherical-cap packing bound:

    - With s the configuration's min_separation and p_lo, p_hi the least
      and greatest |p|, any two sources satisfy |p - q|^2 = (|p| - |q|)^2
      + 4 |p| |q| sin^2(theta/2), so their directions are at least alpha
      apart, sin^2(alpha/2) >= (s^2 - (p_hi - p_lo)^2) / (4 p_hi^2).
    - The caps of angular radius alpha/2 about the source directions are
      disjoint.  Comparing areas, at most sin^2((gamma + alpha/2)/2) /
      sin^2(alpha/4) directions lie within angle gamma of a unit vector u,
      so the k-th nearest to u is at least gamma_k = 2 asin(sqrt(k)
      sin(alpha/4)) - alpha/2 away (gamma_1 = 0).  N sin^2(alpha/4) <= 1,
      so the asin is defined.
    - A sample x = r u has |x - p|^2 = (r - |p|)^2 + 4 r |p| sin^2(angle/2)
      >= delta^2 + 4 r p_lo sin^2(angle/2), so sum_p 1/|x - p| <= S+(r) =
      sum_k (delta^2 + 4 r p_lo sin^2(gamma_k/2))^(-1/2) <= N / delta.

    sin(gamma_k/2) = sin(asin(sqrt(k) sin(alpha/4)) - alpha/4) is taken as
    sin(alpha/4) (k - 1) / (sqrt(k) cos(alpha/4) + sqrt(1 - k sin^2(alpha/4))),
    and sin^2(alpha/4) as sin^2(alpha/2) / (2 (1 + cos(alpha/2))): neither
    form cancels.  S+ is summed in `_row_blocks` over the radii, so no
    (radii, N) table is built.
    """
    lo, hi = 1.0 - _FLOOR_SLACK, 1.0 + _FLOOR_SLACK
    if isinstance(field, ScaledMonopole):
        cn = np.linalg.norm(field.center[None], axis=1)[0]
        return lambda r: (ps_higgs_norm(np.abs(r - cn), field.scale) * lo,
                          ps_higgs_norm(np.add(r, cn), field.scale) * hi)
    gap, pn = glued._radial_gap(np.linalg.norm(field.points, axis=1))
    p_lo, p_hi = pn[0], pn[-1]
    sin2_half = np.clip((field.min_separation**2 - (p_hi - p_lo) ** 2) / (4.0 * p_hi**2), 0.0, 1.0)
    sin2_quarter = sin2_half / (2.0 * (1.0 + math.sqrt(1.0 - sin2_half)))
    k = np.arange(1.0, field.N + 1.0)
    sin_gamma = math.sqrt(sin2_quarter) * (k - 1.0) / (
        np.sqrt(k) * math.sqrt(1.0 - sin2_quarter) + np.sqrt(np.maximum(1.0 - k * sin2_quarter, 0.0)))
    weights = 4.0 * p_lo * sin_gamma**2  # |x - p_k|^2 >= delta^2 + r weights[k]

    def bounds(r):
        r = np.asarray(r, dtype=float)
        delta = gap(r)
        inside = delta < field.L
        flat_r, flat_delta = r.reshape(-1), delta.reshape(-1)
        packing = np.empty(flat_r.shape)  # S+
        for rows in _row_blocks(len(flat_r), len(weights))[1]:
            t = np.multiply.outer(flat_r[rows], weights)
            t += flat_delta[rows, None] ** 2
            with np.errstate(divide="ignore"):  # delta = 0: inside, bounds replaced
                packing[rows] = np.sum(np.reciprocal(np.sqrt(t, out=t), out=t), axis=1)
        packing = packing.reshape(r.shape)
        floor = np.where(inside, -np.inf, 1.0 - packing * hi)
        ceiling = np.maximum(1.0 - field.N / (r + p_hi) * lo, packing * hi - 1.0)
        return floor, np.where(inside, np.inf, ceiling)

    return bounds


def _bisect(fn, lo, hi, resolution):
    """The sign change of fn on [lo, hi] to within `resolution`.

    fn(lo) <= 0 is known from the scan that chose the bracket, so fn is
    evaluated only at midpoints.
    """
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def critical_radii(eps, field, quad, r_max=None, n_scan=400):
    """Sampled estimates of the three threshold radii of |Phi|.

    The spheres of an even grid of n_scan radii up to r_max are scanned,
    and the grid cell where a threshold is crossed is bisected to
    1e-3 max(1, r_max / 40).  Returns (R_eps, r_eps, rhat_eps):

    - r_eps / rhat_eps: where the sphere maximum / mean first reaches eps,
      going outward; the first grid radius if it already does there, r_max
      if it never does.  The scan walks outward, skips every radius where
      `_sphere_bounds` certifies a maximum below eps, and stops once both
      are found.
    - R_eps: where the sphere minimum last dips to eps (<= eps); r_max if it
      does on the outermost sphere.  R_eps = 0.0 means that no sampled
      sphere minimum reached eps, which bounds nothing: a zero of |Phi|
      missed by every sampled direction (the shell points of a glued pair)
      goes unseen.  The scan walks inward, starts from the spheres already
      evaluated, and skips every radius where `_sphere_bounds` certifies a
      minimum above eps, so the result equals that of a scan of every
      sphere.

    The bounds hold on the whole sphere, not only at the sampled
    directions.  For the glued pair they come, outside the ball band, from
    a spherical-cap packing bound on sum_p 1/|x - p|; only the spheres
    where they cannot decide a threshold are evaluated.

    The scan takes an integer n_scan >= 2 radii up to a finite r_max > 0.
    """
    if not 0 < eps < 1:
        raise InvalidParameterError("eps must lie in (0, 1)")
    if r_max is None:
        r_max = 40.0 if isinstance(field, ScaledMonopole) else 4.0 * field.R
    _check_positive(r_max=r_max)
    if not (isinstance(n_scan, (int, np.integer)) and n_scan >= 2):
        raise InvalidParameterError("n_scan must be an integer >= 2")
    resolution = 1e-3 * max(1.0, r_max / 40.0)
    sphere = glued.sphere_higgs_norm(quad.points, field)
    grid = np.linspace(r_max / n_scan, r_max, n_scan)
    stats = {}  # grid index -> (min, mean, max), each sphere evaluated once

    def grid_stats(i):
        if i not in stats:
            vals = sphere(grid[i])
            stats[i] = vals.min(), vals.mean(), vals.max()
        return stats[i]

    def stat_fn(stat):
        return lambda r: stat(sphere(r)) - eps

    # First grid radius going outward where the max (resp. mean) reaches eps;
    # where the ceiling certifies a max below eps, neither does.
    floor, ceiling = _sphere_bounds(field)(grid)
    i_max = i_mean = None
    for i in range(n_scan):
        if ceiling[i] < eps:
            continue
        _, mean, hi = grid_stats(i)
        if i_max is None and hi >= eps:
            i_max = i
        if i_mean is None and mean >= eps:
            i_mean = i
        if i_max is not None and i_mean is not None:
            break

    def first_reach(i, stat):
        if i is None:
            return float(grid[-1])
        if i == 0:
            return float(grid[0])
        return float(_bisect(stat_fn(stat), grid[i - 1], grid[i], resolution))

    # Largest radius where the sphere minimum still dips to eps.
    R_eps = 0.0
    for i in range(n_scan - 1, -1, -1):
        if i not in stats and floor[i] > eps:
            continue
        if grid_stats(i)[0] <= eps:
            if i == n_scan - 1:
                R_eps = float(grid[-1])  # threshold beyond the scan window
            else:
                R_eps = float(_bisect(stat_fn(np.min), grid[i], grid[i + 1], resolution))
            break

    return R_eps, first_reach(i_max, np.max), first_reach(i_mean, np.mean)


# ---------------------------------------------------------------------------
# Flux, degree, energy

def flux_charge(r, cfg, quad):
    """(1/4pi) x surface integral of the invariant flux density at radius r.

    Uses the exterior identity <sigma_hat, F> = *d(phi_theta); exact value
    is the point count by the divergence theorem.
    """
    if np.ndim(r) != 0:
        raise InvalidParameterError(f"flux sphere radius must be a scalar, got {r!r}")
    if not cfg.R + cfg.L < r < np.inf:
        raise InvalidParameterError("flux sphere must be finite and enclose the shell")
    dirs = quad.points
    dens = np.einsum("bk,bk->b", glued.grad_phi_theta(r * dirs, cfg), dirs)
    return float(r * r * quad.weight * dens.sum() / (4.0 * np.pi))


@functools.cache
def icosphere():
    """Geodesic triangulation of S^2: the icosahedron subdivided three
    times, 1280 faces.

    Memoised; the returned (vertices, faces) arrays are read-only.
    """
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=float,
    )
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [v / np.linalg.norm(v) for v in verts]
    for _ in range(3):
        cache = {}
        new_faces = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                v = verts[i] + verts[j]
                verts.append(v / np.linalg.norm(v))
                cache[key] = len(verts) - 1
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    verts, faces = np.asarray(verts), np.asarray(faces, dtype=int)
    verts.flags.writeable = faces.flags.writeable = False
    return verts, faces


def degree_of_map(values, faces):
    """Degree of a map to S^2 sampled on a closed triangulation.

    `values` are the (unnormalized) image vectors at the vertices; the
    signed solid angles of the image triangles are summed and divided by
    4 pi (van Oosterom-Strackee).
    """
    v = values / np.linalg.norm(values, axis=1)[:, None]
    a, b, c = v[faces[:, 0]], v[faces[:, 1]], v[faces[:, 2]]
    det = np.einsum("ij,ij->i", a, cross(b, c))
    denom = (
        1.0
        + np.einsum("ij,ij->i", a, b)
        + np.einsum("ij,ij->i", b, c)
        + np.einsum("ij,ij->i", c, a)
    )
    omega = 2.0 * np.arctan2(det, denom)
    return omega.sum() / (4.0 * np.pi)


def local_degree(p_idx, cfg):
    """Winding number of Phi/|Phi| on a small sphere around a shell point."""
    p_idx = _check_index(p_idx, cfg.N)
    verts, faces = icosphere()
    radius = cfg.L / 16.0
    pts = cfg.points[p_idx] + radius * verts
    _, phi = glued.ball_fields(pts, p_idx, cfg)
    deg = degree_of_map(phi, faces)
    nearest = round(deg)
    if abs(deg - nearest) > 0.1:
        raise NumericFailureError(f"degree estimate {deg} is not near an integer")
    return int(nearest)


def ps_energy(r_max=40.0, n_radial=64):
    """Whole-space integrals of |F|^2 and |d_A Phi|^2 for the unit core.

    Product Gauss-Legendre radial rule times a 64-point sphere lattice, with
    derivatives at step 1e-4, plus the abelian tail estimate 4 pi / r_max
    for each integral.  The radii are taken 16 to one `fd_curvature` call
    and summed one at a time, in order.
    """
    if not 20 <= r_max < np.inf:
        raise InvalidParameterError("tail estimate needs a finite r_max >= 20")
    _check_count(n_radial=n_radial)
    mono = ScaledMonopole(center=np.zeros(3), scale=1.0)
    ev = ps_evaluator(mono)
    nodes, wts = np.polynomial.legendre.leggauss(n_radial)
    radii = 0.5 * r_max * (nodes + 1.0)
    w_r = 0.5 * r_max * wts
    dirs = fibonacci_sphere(64)
    E_F = 0.0
    E_dphi = 0.0
    for start in range(0, n_radial, 16):
        rs, ws = radii[start:start + 16], w_r[start:start + 16]
        cur = fd_curvature(ev, rs[:, None, None] * dirs)
        f2s = np.sum(cur.star_F**2, axis=(2, 3)).mean(axis=1)
        d2s = np.sum(cur.d_phi**2, axis=(2, 3)).mean(axis=1)
        for r, w, f2, d2 in zip(rs, ws, f2s, d2s):
            E_F += w * 4.0 * np.pi * r * r * f2
            E_dphi += w * 4.0 * np.pi * r * r * d2
    tail = 4.0 * np.pi / r_max
    return E_F + tail, E_dphi + tail


def laplacian_identity(x, pair_eval, h=1e-3):
    """Defect of  Laplacian |Phi|^2 = 2 |d_A Phi|^2  at x (exact solutions)."""
    x = np.asarray(x, dtype=float)
    _, phi = pair_eval(_stencil_points(x, h))  # x + h e_j, x - h e_j, x
    n2 = np.sum(phi * phi, axis=-1)
    lap = sum((n2[j] - 2 * n2[6] + n2[3 + j]) / h**2 for j in range(3))
    cur = fd_curvature(pair_eval, x[None, :], h=h)
    d2 = float(np.sum(cur.d_phi**2))
    return abs(lap - 2.0 * d2)


# ---------------------------------------------------------------------------
# Bag geometry

def theorem_report(cfg):
    """The bag geometry of the glued pair, keyed by the checks that bound it.

    shell_sphere_mean: mean |Phi| on the shell sphere; interior_max_half_radius:
    max |Phi| on the spheres of radius 0.1, 0.25 and 0.5 R;
    zeros_on_shell_sphere: max ||p| - R| over the construction zeros;
    outer_small_higgs_radius: the outermost radius where the sphere minimum
    still dips below half the floor of |Phi| sampled at R + L x {1, 1.5, 2,
    3, 5}.  The four origin spheres share one 4096-direction evaluator.
    """
    sphere = glued.sphere_higgs_norm(fibonacci_sphere(4096), cfg)
    interior = max(float(sphere(frac * cfg.R).max()) for frac in (0.1, 0.25, 0.5))
    spread = float(np.max(np.abs(np.linalg.norm(cfg.points, axis=1) - cfg.R)))

    sphere_512 = glued.sphere_higgs_norm(fibonacci_sphere(512), cfg)
    radii = cfg.R + cfg.L * np.array([1.0, 1.5, 2.0, 3.0, 5.0])
    floor = min(float(np.min(sphere_512(r))) for r in radii)
    R_eps, _, _ = critical_radii(
        0.5 * floor, cfg, SphereQuadrature(2048), r_max=cfg.R + 6 * cfg.L, n_scan=300
    )
    return {
        "shell_sphere_mean": float(sphere(cfg.R).mean()),
        "interior_max_half_radius": interior,
        "zeros_on_shell_sphere": spread,
        "outer_small_higgs_radius": R_eps,
    }


def higgs_floor(cfg):
    """min |Phi| over points at distance >= L from every shell point.

    Sampled where the minimum lives, on spheres of radius L x {1, 1.05,
    1.2, 1.5, 2} around each point, plus the origin spheres of radius
    R / 2, R + 2L and 2R; each radius factor is one `glued._point_rows`
    pass over N x 256 points, and the origin spheres share one evaluator.

    A row counts where its nearest shell point is at least L (1 - 1e-12)
    away, and there |Phi| is |phi_theta| = |1 - sum_p 1/|x - p|| to the
    bit: at d >= L by definition, and below L the cutoff chi(8 d / L - 1)
    is 0, so the ball-chart blend is phi_theta alone.
    """
    dirs = fibonacci_sphere(256)

    def reduce(d):
        clear = np.min(d, axis=1) >= cfg.L * (1 - 1e-12)
        return np.where(clear, np.abs(_coulomb_rows(d)), np.inf)

    floor = np.inf
    for fac in (1.0, 1.05, 1.2, 1.5, 2.0):
        x = cfg.points[:, None, :] + fac * cfg.L * dirs
        floor = min(floor, float(glued._point_rows(x, cfg, reduce).min()))
    sphere = glued.sphere_higgs_norm(fibonacci_sphere(1024), cfg)
    for rad in (0.5 * cfg.R, cfg.R + 2 * cfg.L, 2 * cfg.R):
        floor = min(floor, float(sphere(rad).min()))
    return floor
