"""Shell point configurations.

N points are distributed over latitude bands of a radius-R sphere, band k
at polar angle k*pi/K carrying n_k equally spaced points, with the excess
over N removed round-robin over the bands (largest longitude first within
a band).  Each point gets a Coulomb residue r_p = 1 - sum_q 1/|p-q|, the
asymptotic Higgs scale of the core glued there.  `make_shell_config` sums it
band by band (`_ring_residues`): nearby bands pair by pair, and each distant
band as a whole latitude ring in Gauss's closed form.  `residues` sums any
point set pair by pair.
"""

import math
import numbers
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
    """(K, n_b, keep, band, longitude, points) of the N-point layout.

    n_b are the full band sizes, keep the points each band keeps after the
    round-robin, and band (1-based), longitude and coordinates are given
    point by point.
    """
    K = choose_band_count(N)
    sizes = band_sizes(K)
    # Band k keeps the longitude indices j < keep[k], at 2 pi j / n_k.
    keep = sizes.tolist()
    excess = sum(keep) - N
    b = 0
    while excess > 0:
        if keep[b]:
            keep[b] -= 1  # largest surviving longitude goes first
            excess -= 1
        b = (b + 1) % (K - 1)
    band = np.repeat(np.arange(K - 1), keep)
    j = np.arange(N) - np.repeat(np.cumsum(keep) - keep, keep)
    phi, points = _band_points(R, K, sizes, band, j)
    return K, sizes, np.array(keep), band + 1, phi, points


def _band_points(R, K, sizes, band, j):
    """(longitude, coordinates) of point j of each 0-based band: polar angle
    (band + 1) pi / K, longitude 2 pi j / n_band."""
    theta = (band + 1) * np.pi / K
    phi = 2.0 * np.pi * j / sizes[band]
    points = np.column_stack(
        [R * np.sin(theta) * np.cos(phi), R * np.sin(theta) * np.sin(phi), R * np.cos(theta)]
    )
    return phi, points


def _check_charge(N):
    """N as an int; raises unless it is an integer (bools excluded) >= 8."""
    if isinstance(N, bool) or not isinstance(N, numbers.Integral):
        raise InvalidParameterError(f"charge N must be an integer, got {N!r}")
    if N < 8:
        raise InvalidParameterError(f"need N >= 8, got {N}")
    return int(N)


def _check_count(**counts):
    """Raises unless every value is an integer (bools excluded) >= 1."""
    for name, n in counts.items():
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise InvalidParameterError(f"{name} must be an integer >= 1, got {n!r}")


def place_points(N, R):
    """The N shell points, ordered by (band, longitude)."""
    N = _check_charge(N)
    if not (isinstance(R, numbers.Real) and math.isfinite(R) and R > 0):
        raise InvalidParameterError(f"radius must be finite and positive, got {R!r}")
    return _layout(N, R)[5]


# Row blocks of the pairwise table hold about this many float64 entries
# (512 kB).  A block and its work array then stay in a core's 2 MB L2 cache
# through every pass over them, and the shell assembly needs O(N) memory plus
# those two arrays at any N (tracemalloc peak 1.5 MB at N = 4800).
_BLOCK_ELEMENTS = 1 << 16


def _row_blocks(n_rows, row_entries):
    """(size, slices): consecutive slices covering range(n_rows), each of
    `_BLOCK_ELEMENTS // row_entries` rows (at least one; the last may hold
    fewer), and size, the most rows any of them holds."""
    step = max(1, _BLOCK_ELEMENTS // max(row_entries, 1))
    return min(step, n_rows), [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _squared_distances(x, points, out=None, work=None):
    """|x - p|^2 for points x (..., 3) and sources p (N, 3), shape (..., N).

    Summed coordinate by coordinate, ((dx^2 + dy^2) + dz^2): the order in
    which np.linalg.norm reduces a last axis of length 3, without its
    (..., N, 3) difference array.  `out` receives the table and `work` holds
    one coordinate's differences; either, if given, is a float array of the
    result's shape.  Columns `points[:, k]` are read at unit stride when
    `points` is in Fortran order.
    """
    x = np.asarray(x, dtype=float)
    points = np.asarray(points, dtype=float)
    d2 = np.subtract.outer(x[..., 0], points[:, 0], out=out)
    d2 *= d2
    for k in (1, 2):
        work = np.subtract.outer(x[..., k], points[:, k], out=work)
        work *= work
        d2 += work
    return d2


def pairwise_distances(points):
    """The (N, N) table |p - q| of the points (N, 3)."""
    d = _squared_distances(points, points)
    return np.sqrt(d, out=d)


def _distance_blocks(points):
    """Row blocks (rows, d, d_min, spare) of `pairwise_distances`.

    `rows` is the slice of points the block covers, one of `_row_blocks`,
    and d its distances with an infinite diagonal, so that 1/d vanishes
    there and d_min = d.min() is the smallest separation.  d and `spare`,
    an array of d's shape the caller may overwrite, are views of two
    buffers allocated once and reused by every block: each block is valid
    only until the next is drawn.  Non-finite and coincident points raise.
    """
    points = np.asarray(points, dtype=float)
    if not np.isfinite(points).all():
        raise InvalidConfigurationError("non-finite point coordinates")
    n = len(points)
    size, blocks = _row_blocks(n, n)
    cols = np.asfortranarray(points)
    buf = np.empty((size, n))
    work = np.empty_like(buf)
    for rows in blocks:
        k = rows.stop - rows.start
        d = _squared_distances(cols[rows], cols, out=buf[:k], work=work[:k])
        i = np.arange(k)
        d[i, rows.start + i] = np.inf
        d_min = float(d.min())
        if d_min == 0.0:
            raise InvalidConfigurationError("coincident points in the configuration")
        yield rows, np.sqrt(d, out=d), math.sqrt(d_min), work[:k]


def _residues_and_separation(points):
    """(r_p, smallest separation) of the points, one pass over `_distance_blocks`."""
    r_p = np.empty(len(points))
    min_sep = math.inf
    for rows, d, d_min, _ in _distance_blocks(points):
        min_sep = min(min_sep, d_min)
        r_p[rows] = 1.0 - np.sum(np.reciprocal(d, out=d), axis=1)
    return r_p, min_sep


# A far ring's aliasing may reach this fraction of its ring term: half an ulp
# of 1, so leaving the aliasing out costs no more than rounding the term.
_ALIAS_TOL = 2.0**-53


# numpy buffers a broadcasting ufunc whose rows hold fewer than about a third
# of its buffer (8192 elements by default), and its outer differences then
# take ~2 ns per entry instead of ~0.5 ns (numpy 2.4, x86-64).  Most near runs
# are shorter than that; a 1024-element buffer keeps runs of 342 or more
# columns unbuffered.  The residues are the same bits at the default size.
_RUN_BUFSIZE = 1024


def _band_chords(R, K):
    """(d_max, d_min), each (K-1, K-1): the farthest and nearest distance
    from a point of band a to the circle of band b, 2R sin((t_a + t_b)/2)
    and 2R |sin((t_a - t_b)/2)|, with t_b = (b + 1) pi / K."""
    theta = np.arange(1, K) * np.pi / K
    d_max = 2.0 * R * np.sin(0.5 * (theta[:, None] + theta))
    d_min = 2.0 * R * np.abs(np.sin(0.5 * (theta[:, None] - theta)))
    return d_max, d_min


def _ring_plan(K, sizes):
    """near (K-1, K-1) bool: near[a, b] when the points of band b are summed
    pair by pair for the points of band a; the other band pairs are far and
    take the ring term n_b / AGM(d_max, d_min) of `_band_chords`.

    The rule.  Let x lie on band a and q run over the n_b equally spaced
    points of band b, psi the longitude between them.  With
    alpha = (d_max + d_min)/2 and rho = (d_max - d_min)/(d_max + d_min),
    |x - q|^2 = alpha^2 |1 - rho e^{i psi}|^2, so

        1/|x - q| = (1/alpha) (1 - rho e^{i psi})^{-1/2} (1 - rho e^{-i psi})^{-1/2}
                  = sum_l c_l e^{i l psi},
        c_l = (1/alpha) sum_k a_k a_{k+l} rho^{2k+l},  a_k = C(2k, k) / 4^k.

    The a_k are positive and decrease, so 0 < c_l <= rho^|l| c_0, and
    c_0 = 1/AGM(d_max, d_min) is the ring's mean (Gauss).  Summing over the
    n_b points keeps the modes l = k n_b:

        sum_q 1/|x - q| = n_b c_0 + 2 n_b sum_{k>=1} c_{k n_b} cos(k n_b psi_0),

    and the aliasing sum is at most 2 rho^n_b / (1 - rho^n_b) of the ring
    term n_b c_0.  A pair is far when that bound is <= `_ALIAS_TOL`.  rho
    does not depend on R, so the plan depends on the layout alone.  Band a
    itself (rho = 1) is always near; its neighbours a +- 1 are made near,
    so every pair closer than 2R sin(pi/K), the nearest any far pair can
    be, is summed pair by pair.  Some near pair is closer than that (checked
    at every N from 8 to 3000 and at every 97th N up to 20000), so the
    smallest separation is exact.
    """
    d_max, d_min = _band_chords(1.0, K)
    alias = ((d_max - d_min) / (d_max + d_min)) ** sizes
    band = np.arange(K - 1)
    return (2.0 * alias > _ALIAS_TOL * (1.0 - alias)) | (np.abs(band[:, None] - band) <= 1)


def _agm(a, b):
    """Gauss's arithmetic-geometric mean of arrays a >= b > 0, elementwise."""
    a, b = np.asarray(a, dtype=np.longdouble), np.asarray(b, dtype=np.longdouble)
    while True:
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        # a - b <= 2^-32 a leaves 2^-67 a after one more mean
        if np.all(a - b <= 2.0**-32 * a):
            return 0.5 * (a + b)


def _ring_terms(R, K, sizes, far):
    """(K-1, K-1): n_b / AGM(d_max, d_min) where `far`, else 0.  The AGM is
    taken in long double, so each term is within about half an ulp where
    that type is wider than float64."""
    d_max, d_min = _band_chords(R, K)
    ring = np.zeros((K - 1, K - 1))
    ring[far] = np.broadcast_to(sizes, ring.shape)[far] / _agm(d_max[far], d_min[far])
    return ring


def _ring_residues(R, K, sizes, keep, points):
    """(r_p, smallest separation) of `points`, the layout `_layout(N, R)`
    with band sizes n_b and survivor counts `keep`, from latitude rings.

    The points of each band a (of consecutive bands with the same near
    bands together) are summed pair by pair against the near bands of
    `_ring_plan`, in row blocks of one contiguous run of near bands at a
    time; a run's columns are never split, so the sums do not depend on
    `_BLOCK_ELEMENTS`.  Each far band b adds its whole ring's
    n_b / AGM(d_max, d_min), less the points the layout dropped from it.
    The separation is the smallest over the near pairs, which hold every
    pair that could attain it, so it equals `_residues_and_separation`'s
    bit for bit; the residues agree with it to rounding.  Coincident points
    raise.
    """
    near = _ring_plan(K, sizes)
    far = ~near
    ring = np.repeat(_ring_terms(R, K, sizes, far).sum(axis=1), keep)
    lost_band = np.repeat(np.arange(K - 1), sizes - keep)
    lost_j = np.concatenate([np.arange(k, n) for k, n in zip(keep, sizes)])
    lost = np.asfortranarray(_band_points(R, K, sizes, lost_band, lost_j)[1])

    cols = np.asfortranarray(points)
    start = np.concatenate([[0], np.cumsum(keep)])
    # bands [a0, a1) share their near bands, which hold all of them in one run
    a0s = np.flatnonzero(np.concatenate([[True], np.any(near[1:] != near[:-1], axis=1)]))
    buf = np.empty(max(_BLOCK_ELEMENTS, len(points)))
    work = np.empty_like(buf)
    r_p = np.empty(len(points))
    d2_min = math.inf
    bufsize = np.setbufsize(_RUN_BUFSIZE)
    try:
        for a0, a1 in zip(a0s, [*a0s[1:], K - 1]):
            own = slice(start[a0], start[a1])
            rows = cols[own]
            total = np.zeros(len(rows))
            edges = np.flatnonzero(np.diff(np.concatenate([[0], near[a0], [0]])))
            for b0, b1 in edges.reshape(-1, 2):
                run = cols[start[b0]:start[b1]]
                c = len(run)
                for blk in _row_blocks(len(rows), c)[1]:
                    k = blk.stop - blk.start
                    d = _squared_distances(rows[blk], run, out=buf[:k * c].reshape(k, c),
                                           work=work[:k * c].reshape(k, c))
                    if b0 <= a0 < b1:
                        i = np.arange(k)
                        d[i, start[a0] - start[b0] + blk.start + i] = np.inf
                    d2_min = min(d2_min, float(d.min()))
                    total[blk] += np.sum(np.reciprocal(np.sqrt(d, out=d), out=d), axis=1)
            d = np.sqrt(_squared_distances(rows, lost[far[a0, lost_band]]))
            r_p[own] = 1.0 - (total + (ring[own] - np.sum(1.0 / d, axis=1)))
    finally:
        np.setbufsize(bufsize)
    if d2_min == 0.0:
        raise InvalidConfigurationError("coincident points in the configuration")
    return r_p, math.sqrt(d2_min)


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
    for _, d, _, inv in _distance_blocks(place_points(N, R)):
        s1 = np.sum(np.reciprocal(d, out=inv), axis=1)
        dev1 = max(dev1, float(np.abs(s1 - N / R).max()))
        d *= d
        max2 = max(max2, float(np.sum(np.reciprocal(d, out=d), axis=1).max()))
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
    """Build and validate the full configuration for charge N, thickness m;
    `diagnostics` reports how far (N, m) lies from the asymptotic regime."""
    N = _check_charge(N)
    if not (isinstance(m, numbers.Real) and math.isfinite(m) and m > 1):
        raise InvalidParameterError(f"need a finite m > 1, got {m!r}")
    R = shell_radius(N, m)
    L = gluing_length(N, m)
    K, sizes, keep, bands, _, points = _layout(N, R)

    radii = np.linalg.norm(points, axis=1)
    if np.any(np.abs(radii - R) > 1e-12 * R):
        raise InvalidConfigurationError("points off the shell sphere")

    r_p, min_sep = _ring_residues(R, K, sizes, keep, points)
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
        diagnostics=diagnostics,
    )


def write_points_csv(cfg, fh):
    """Point table index,band,x,y,z,r_p, 17 significant digits, to text file fh.

    Rows are formatted from Python scalars and written 1024 at a time, so
    the text never holds more than one chunk.
    """
    fh.write("index,band,x,y,z,r_p\n")
    x, y, z = cfg.points.T
    for lo in range(0, cfg.N, 1024):
        part = slice(lo, lo + 1024)
        rows = zip(range(lo, lo + 1024), cfg.bands[part].tolist(), x[part].tolist(),
                   y[part].tolist(), z[part].tolist(), cfg.residues[part].tolist())
        fh.write("".join(["%d,%d,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows]))
