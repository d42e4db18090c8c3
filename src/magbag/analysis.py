"""Gauge-invariant global diagnostics.

Sphere statistics of |Phi|, critical radii, flux/charge, local winding
numbers, energy integrals, and the bag-geometry report.  All surface
integrals use an equal-weight Fibonacci lattice; all claims about bounds
carry the measured value alongside.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import constants, glued
from .monopole import ScaledMonopole, ps_evaluator, ps_higgs_norm
from .operators import fd_curvature
from .shell import InvalidParameterError


class NumericFailureError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Spherical quadrature

def fibonacci_sphere(M):
    """M quasi-uniform unit vectors; equal weights 4 pi / M.

    The z-offsets are symmetric, so odd zonal moments cancel exactly.
    """
    i = np.arange(M) + 0.5
    z = 1.0 - 2.0 * i / M
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    phi = 2.0 * np.pi * i / golden
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


@dataclass(frozen=True)
class SphereQuadrature:
    M: int

    @property
    def points(self):
        return fibonacci_sphere(self.M)

    @property
    def weight(self):
        return 4.0 * np.pi / self.M


def _sphere_fn(field, dirs):
    """The function r -> |Phi|(r * dirs) over unit directions dirs (B, 3).

    Accepts a ShellConfig (glued pair, from one direction table built here),
    a ScaledMonopole (exact core), or a callable X (B, 3) -> (B,).
    """
    if callable(field):
        return lambda r: field(r * dirs)
    if isinstance(field, ScaledMonopole):
        return lambda r: ps_higgs_norm(
            np.linalg.norm(r * dirs - field.center, axis=-1), field.scale
        )
    return glued.sphere_higgs_norm(dirs, field)


def sphere_stats(r, field, quad):
    """(min, mean, max) of |Phi| over the radius-r sphere."""
    if not 0 < r < np.inf:
        raise InvalidParameterError("sphere radius must be positive and finite")
    vals = _sphere_fn(field, quad.points)(r)
    return float(vals.min()), float(vals.mean()), float(vals.max())


def radial_profile(radii, field, quad):
    """Rows of (radius, min, mean, max); radii must be finite and increase strictly."""
    radii = np.asarray(radii, dtype=float)
    if not np.all(np.isfinite(radii)):
        raise InvalidParameterError("radii must be finite")
    if np.any(np.diff(radii) <= 0):
        raise InvalidParameterError("radii must be strictly increasing")
    sphere = _sphere_fn(field, quad.points)
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


def critical_radii(eps, field, quad, r_max=None, n_scan=400, resolution=None):
    """Sampled estimates of the three threshold radii of |Phi|.

    R_eps: largest sampled radius where the sphere minimum is still <= eps
    (refined by bisection); r_eps / rhat_eps: largest radius below which the
    sphere maximum / mean stays < eps.  Returns (R_eps, r_eps, rhat_eps).
    """
    if not 0 < eps < 1:
        raise InvalidParameterError("eps must lie in (0, 1)")
    sphere = _sphere_fn(field, quad.points)
    if r_max is None:
        r_max = 40.0 if isinstance(field, ScaledMonopole) or callable(field) else 4.0 * field.R
    if resolution is None:
        resolution = 1e-3 * max(1.0, r_max / 40.0)
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


# ---------------------------------------------------------------------------
# Flux, degree, energy

def flux_charge(r, cfg, quad):
    """(1/4pi) x surface integral of the invariant flux density at radius r.

    Uses the exterior identity <sigma_hat, F> = *d(phi_theta); exact value
    is the point count by the divergence theorem.
    """
    if r <= cfg.R + cfg.L:
        raise InvalidParameterError("flux sphere must enclose the shell")
    dens = glued.sphere_flux_density(quad.points, cfg)(r)
    return float(r * r * quad.weight * dens.sum() / (4.0 * np.pi))


@functools.lru_cache(maxsize=4)
def icosphere(subdivisions=3):
    """Geodesic triangulation of S^2: 20 * 4^k faces.

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
    for _ in range(subdivisions):
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
    det = np.einsum("ij,ij->i", a, np.cross(b, c))
    denom = (
        1.0
        + np.einsum("ij,ij->i", a, b)
        + np.einsum("ij,ij->i", b, c)
        + np.einsum("ij,ij->i", c, a)
    )
    omega = 2.0 * np.arctan2(det, denom)
    return omega.sum() / (4.0 * np.pi)


def local_degree(p_idx, cfg, subdivisions=3):
    """Winding number of Phi/|Phi| on a small sphere around a shell point."""
    verts, faces = icosphere(subdivisions)
    radius = cfg.L / 16.0
    pts = cfg.points[p_idx] + radius * verts
    _, phi = glued.ball_fields(pts, p_idx, cfg)
    deg = degree_of_map(phi, faces)
    nearest = round(deg)
    if abs(deg - nearest) > 0.1:
        raise NumericFailureError(f"degree estimate {deg} is not near an integer")
    return int(nearest)


def ps_energy(r_max=40.0, quad=None, n_radial=64, h=1e-4):
    """Whole-space integrals of |F|^2 and |d_A Phi|^2 for the unit core.

    Product Gauss-Legendre radial rule times the sphere lattice, plus the
    abelian tail estimate 4 pi / r_max for each integral.
    """
    if r_max < 20:
        raise InvalidParameterError("tail estimate needs r_max >= 20")
    if quad is None:
        quad = SphereQuadrature(64)
    mono = ScaledMonopole(center=np.zeros(3), scale=1.0)
    ev = ps_evaluator(mono)
    nodes, wts = np.polynomial.legendre.leggauss(n_radial)
    radii = 0.5 * r_max * (nodes + 1.0)
    w_r = 0.5 * r_max * wts
    dirs = quad.points
    E_F = 0.0
    E_dphi = 0.0
    for r, w in zip(radii, w_r):
        cur = fd_curvature(ev, r * dirs, h=h)
        f2 = np.sum(cur.star_F**2, axis=(1, 2)).mean()
        d2 = np.sum(cur.d_phi**2, axis=(1, 2)).mean()
        E_F += w * 4.0 * np.pi * r * r * f2
        E_dphi += w * 4.0 * np.pi * r * r * d2
    tail = 4.0 * np.pi / r_max
    return E_F + tail, E_dphi + tail


def laplacian_identity(x, pair_eval, h=1e-3):
    """Defect of  Laplacian |Phi|^2 = 2 |d_A Phi|^2  at x (exact solutions)."""
    x = np.asarray(x, dtype=float)

    def n2(pts):
        _, phi = pair_eval(pts)
        return np.sum(phi * phi, axis=-1)

    lap = 0.0
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        lap += (n2((x + e)[None, :])[0] - 2 * n2(x[None, :])[0] + n2((x - e)[None, :])[0]) / h**2
    cur = fd_curvature(pair_eval, x[None, :], h=h)
    d2 = float(np.sum(cur.d_phi**2))
    return abs(lap - 2.0 * d2)


# ---------------------------------------------------------------------------
# Bag-geometry report

def theorem_report(cfg, eps_list=(0.3, 0.5, 0.7), quad=None):
    """Shell-geometry checks on the glued pair plus informational radii.

    Asserted items (measured value vs bound): the sphere-mean of |Phi| on
    the shell sphere against the frozen scaling constant, interior
    smallness on the half-radius ball, the zero set sitting on the shell
    sphere, and the outermost small-Higgs radius staying within 2L of the
    shell.  The exact-solution radius bounds are reported for information
    only; their hypotheses include solving the field equations exactly.
    """
    if quad is None:
        quad = SphereQuadrature(4096)
    scale = cfg.m * math.log(cfg.N) / math.sqrt(cfg.N)
    items = []

    _, mean_R, _ = sphere_stats(cfg.R, cfg, quad)
    items.append(
        {
            "check": "shell_sphere_mean",
            "value": mean_R,
            "bound": constants.C_MEAN_AT_R * scale,
            "pass": bool(mean_R <= constants.C_MEAN_AT_R * scale),
        }
    )

    interior_max = 0.0
    for frac in (0.1, 0.25, 0.5):
        _, _, hi = sphere_stats(frac * cfg.R, cfg, quad)
        interior_max = max(interior_max, hi)
    items.append(
        {
            "check": "interior_max_half_radius",
            "value": interior_max,
            "bound": constants.C_INTERIOR * scale,
            "pass": bool(interior_max <= constants.C_INTERIOR * scale),
        }
    )

    zero_radii = np.linalg.norm(cfg.points, axis=1)
    spread = float(np.max(np.abs(zero_radii - cfg.R)))
    items.append(
        {
            "check": "zeros_on_shell_sphere",
            "value": spread,
            "bound": 1e-9 * cfg.R,
            "pass": bool(spread <= 1e-9 * cfg.R),
        }
    )

    # Floor of |Phi| away from the cores, then the outermost radius where
    # the sphere minimum still dips below half that floor.
    sphere = glued.sphere_higgs_norm(fibonacci_sphere(512), cfg)
    radii = cfg.R + cfg.L * np.array([1.0, 1.5, 2.0, 3.0, 5.0])
    floor = min(float(np.min(sphere(r))) for r in radii)
    eps_floor = 0.5 * floor
    R_eps, _, _ = critical_radii(
        eps_floor, cfg, SphereQuadrature(2048), r_max=cfg.R + 6 * cfg.L, n_scan=300
    )
    items.append(
        {
            "check": "outer_small_higgs_radius",
            "value": R_eps,
            "bound": cfg.R + 2 * cfg.L,
            "pass": bool(R_eps <= cfg.R + 2 * cfg.L),
        }
    )

    info = []
    for eps in eps_list:
        R_e, r_e, rh_e = critical_radii(eps, cfg, SphereQuadrature(1024))
        info.append(
            {
                "eps": eps,
                "R_eps": R_e,
                "r_eps": r_e,
                "rhat_eps": rh_e,
                "lower_R": cfg.N / (1.0 - eps),
                "upper_r": cfg.N / (1.0 - eps),
                "upper_rhat": cfg.N / (1.0 - eps) ** 2,
            }
        )
    return {"items": items, "informational_radii": info, "higgs_floor": floor}
