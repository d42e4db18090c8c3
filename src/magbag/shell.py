"""Shell point configurations.

N points are distributed over latitude bands of a radius-R sphere, band k
at polar angle k*pi/K carrying n_k equally spaced points, with the excess
over N removed round-robin over the bands (largest longitude first within
a band).  Each point gets a Coulomb residue r_p = 1 - sum_q 1/|p-q|, the
asymptotic Higgs scale of the core glued there.
"""

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np


class InvalidParameterError(ValueError):
    pass


class InvalidConfigurationError(ValueError):
    pass


def band_sizes(K):
    """Band populations n_1..n_{K-1}: largest integer < 2K sin(k pi / K)."""
    if K < 2:
        raise InvalidParameterError(f"need at least 2 bands, got K={K}")
    k = np.arange(1, K)
    vals = 2.0 * K * np.sin(k * np.pi / K)
    # Strict inequality: when 2K sin(k pi/K) lands on an integer (k = K/2)
    # the count drops to the integer below.  The 1e-9 guard absorbs float
    # jitter around that case.
    return np.floor(vals - 1e-9).astype(int)


def choose_band_count(N):
    """Smallest K whose band populations sum to at least N."""
    if N < 8:
        raise InvalidParameterError(f"shell layout needs N >= 8, got N={N}")
    K = 2
    while band_sizes(K).sum() < N:
        K += 1
    return K


def _layout(N, R):
    """Band index, longitude and coordinates for each of the N points."""
    K = choose_band_count(N)
    sizes = band_sizes(K)
    # Surviving longitude indices per band, j in 0..n_k-1 at 2 pi j / n_k.
    survivors = [list(range(n)) for n in sizes]
    excess = int(sizes.sum()) - N
    b = 0
    while excess > 0:
        if survivors[b]:
            survivors[b].pop()  # largest surviving longitude goes first
            excess -= 1
        b = (b + 1) % (K - 1)
    bands = []
    longitudes = []
    points = []
    for i, js in enumerate(survivors):
        kband = i + 1
        theta = kband * np.pi / K
        for j in js:
            phi = 2.0 * np.pi * j / sizes[i]
            bands.append(kband)
            longitudes.append(phi)
            points.append(
                [
                    R * np.sin(theta) * np.cos(phi),
                    R * np.sin(theta) * np.sin(phi),
                    R * np.cos(theta),
                ]
            )
    return (
        K,
        np.asarray(bands, dtype=int),
        np.asarray(longitudes, dtype=float),
        np.asarray(points, dtype=float),
    )


def _check_charge(N):
    """N as an int; raises unless it is an integer (bools excluded) >= 8."""
    if isinstance(N, bool) or not isinstance(N, numbers.Integral):
        raise InvalidParameterError(f"charge N must be an integer, got {N!r}")
    if N < 8:
        raise InvalidParameterError(f"need N >= 8, got {N}")
    return int(N)


def place_points(N, R):
    """The N shell points, ordered by (band, longitude)."""
    N = _check_charge(N)
    if not (isinstance(R, numbers.Real) and math.isfinite(R) and R > 0):
        raise InvalidParameterError(f"radius must be finite and positive, got {R!r}")
    return _layout(N, R)[3]


# Row blocks of the pairwise table hold about this many float64 entries
# (2 MB), so the shell assembly needs O(N) memory plus a few blocks at any N.
_BLOCK_ELEMENTS = 1 << 18


def _squared_distances(x, points):
    """|x - p|^2 for points x (..., 3) and sources p (N, 3), shape (..., N).

    Summed coordinate by coordinate, ((dx^2 + dy^2) + dz^2): the order in
    which np.linalg.norm reduces a last axis of length 3, without its
    (..., N, 3) difference array.
    """
    x = np.asarray(x, dtype=float)
    points = np.asarray(points, dtype=float)
    d2 = np.subtract.outer(x[..., 0], points[:, 0])
    d2 *= d2
    for k in (1, 2):
        diff = np.subtract.outer(x[..., k], points[:, k])
        diff *= diff
        d2 += diff
    return d2


def pairwise_distances(points):
    """The (N, N) table |p - q| of the points (N, 3)."""
    d = _squared_distances(points, points)
    return np.sqrt(d, out=d)


def _distance_blocks(points):
    """Row blocks (rows, d) of `pairwise_distances` with an infinite
    diagonal, so that 1/d vanishes there and the minimum is the smallest
    separation.  `rows` is the slice of points the block covers, taken
    `_BLOCK_ELEMENTS // N` at a time; coincident points raise.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    step = max(1, _BLOCK_ELEMENTS // max(n, 1))
    for lo in range(0, n, step):
        rows = slice(lo, min(lo + step, n))
        d = _squared_distances(points[rows], points)
        np.sqrt(d, out=d)
        i = np.arange(len(d))
        d[i, lo + i] = np.inf
        if np.any(d == 0.0):
            raise InvalidConfigurationError("coincident points in the configuration")
        yield rows, d


def _residues_and_separation(points):
    """(r_p, smallest separation) of the points, one pass over `_distance_blocks`."""
    r_p = np.empty(len(points))
    min_sep = math.inf
    for rows, d in _distance_blocks(points):
        min_sep = min(min_sep, float(d.min()))
        r_p[rows] = 1.0 - np.sum(1.0 / d, axis=1)
    return r_p, min_sep


def residues(points):
    """Coulomb residues r_p = 1 - sum_{q != p} 1/|p - q|.

    Non-positive residues are returned as-is (the caller decides whether
    that invalidates the configuration); coincident points raise.
    """
    return _residues_and_separation(points)[0]


def coulomb_sums(points, x, L):
    """Brute-force Coulomb sums at x: (S1, S2, S3, S4).

    S1 = sum 1/|x-q| and S2 = sum 1/|x-q|^2 over points distinct from x;
    S3 = sum 1/(|x-q|+L) and S4 = sum 1/(|x-q|+L)^2 over all points.
    """
    points = np.asarray(points, dtype=float)
    d = np.linalg.norm(points - np.asarray(x, dtype=float), axis=1)
    scale = max(1.0, float(d.max(initial=1.0)))
    away = d > 1e-12 * scale
    s1 = float(np.sum(1.0 / d[away]))
    s2 = float(np.sum(1.0 / d[away] ** 2))
    s3 = float(np.sum(1.0 / (d + L)))
    s4 = float(np.sum(1.0 / (d + L) ** 2))
    return s1, s2, s3, s4


def coulomb_maxima(N):
    """Normalised Lemma 3.1 maxima over the shell points of the R = N layout.

    With S1(p), S2(p) the `coulomb_sums` at shell point p, returns
    (max_p |S1(p) - N/R| R / (sqrt(N) ln N), max_p S2(p) R^2 / (N ln N)),
    every S1 and S2 taken from one pass over the pairwise distance blocks.
    """
    R = float(N)
    dev1 = max2 = 0.0
    for _, d in _distance_blocks(place_points(N, R)):
        dev1 = max(dev1, float(np.abs(np.sum(1.0 / d, axis=1) - N / R).max()))
        max2 = max(max2, float(np.sum(1.0 / d**2, axis=1).max()))
    return dev1 * R / (math.sqrt(N) * math.log(N)), max2 * R * R / (N * math.log(N))


@dataclass(frozen=True)
class ShellConfig:
    """A complete bag configuration.  Treat all arrays as immutable."""

    N: int
    m: float
    R: float
    K: int
    L: float
    points: np.ndarray
    residues: np.ndarray
    bands: np.ndarray
    longitudes: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def min_separation(self):
        return self.diagnostics["min_separation"]


def shell_radius(N, m):
    """R = N (1 + m N^{-1/2} ln N)."""
    return N * (1.0 + m * math.log(N) / math.sqrt(N))


def gluing_length(N, m):
    """L = m^{-3/4} N^{1/2}."""
    return m ** (-0.75) * math.sqrt(N)


def make_shell_config(N, m):
    """Build and validate the full configuration for charge N, thickness m."""
    N = _check_charge(N)
    if not (isinstance(m, numbers.Real) and math.isfinite(m) and m > 1):
        raise InvalidParameterError(f"need a finite m > 1, got {m!r}")
    if N < 64:
        warnings.warn(
            f"N={N} is far below the asymptotic regime; bound diagnostics "
            "will show large slack",
            stacklevel=2,
        )
    R = shell_radius(N, m)
    L = gluing_length(N, m)
    K, bands, longitudes, points = _layout(N, R)

    radii = np.linalg.norm(points, axis=1)
    if np.any(np.abs(radii - R) > 1e-12 * R):
        raise InvalidConfigurationError("points off the shell sphere")

    r_p, min_sep = _residues_and_separation(points)
    sep_floor = R * math.sin(math.pi / (2 * K))
    if min_sep < sep_floor * (1 - 1e-12):
        raise InvalidConfigurationError(
            f"minimum separation {min_sep} below the band floor {sep_floor}"
        )
    if not 2 * L < min_sep:
        raise InvalidConfigurationError(
            f"gluing length too large: 2L={2 * L} vs separation {min_sep}"
        )

    if np.any(r_p <= 0):
        worst = int(np.argmin(r_p))
        raise InvalidConfigurationError(
            f"non-positive residue r_p={r_p[worst]:.6g} at point {worst} "
            f"(|p|={radii[worst]:.6g}); increase m"
        )

    target = m * math.log(N) / math.sqrt(N)
    diagnostics = {
        "min_separation": min_sep,
        "separation_floor": sep_floor,
        "r_min": float(r_p.min()),
        "r_max": float(r_p.max()),
        "residue_target": target,
        # Multiplicative slack needed for the residue window around the
        # asymptotic target; O(1) only when m ln(N)/sqrt(N) << 1.
        "residue_slack": max(target / r_p.min(), r_p.max() / target),
        "Lr_min": float(L * r_p.min()),
        "Lr_max": float(L * r_p.max()),
        "Lr_target": m**0.25 * math.log(N),
        # Kept: the residual and exterior benchmarks check every diagnostics key against a reference.
        "band_count_deviation": abs(K - 0.5 * math.sqrt(math.pi * N)),
    }
    return ShellConfig(
        N=N,
        m=m,
        R=R,
        K=K,
        L=L,
        points=points,
        residues=r_p,
        bands=bands,
        longitudes=longitudes,
        diagnostics=diagnostics,
    )


def write_points_csv(cfg, fh):
    """Point table index,band,x,y,z,r_p, 17 significant digits, to text file fh."""
    lines = ["index,band,x,y,z,r_p"]
    for i in range(cfg.N):
        x, y, z = cfg.points[i]
        lines.append(
            f"{i},{cfg.bands[i]},{x:.17g},{y:.17g},{z:.17g},{cfg.residues[i]:.17g}"
        )
    fh.write("\n".join(lines) + "\n")
