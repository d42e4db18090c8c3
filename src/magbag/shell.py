"""Shell point configurations.

N points are distributed over latitude bands of a radius-R sphere, band k
at polar angle k*pi/K carrying n_k equally spaced points, with the excess
over N removed round-robin over the bands (largest longitude first within
a band).  Each point gets a Coulomb residue r_p = 1 - sum_q 1/|p-q|, the
asymptotic Higgs scale of the core glued there.  `make_shell_config` sums it
from whole latitude rings (`_ring_residues`): a point's own ring in closed
form, each distant ring as its mean in Gauss's closed form, each nearby ring
as a trigonometric interpolant through a few samples, and then subtracts the
points the layout dropped pair by pair.  `residues` sums any point set pair
by pair.
"""

import contextvars
import math
import numbers
import os
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
    """Smallest K whose band populations sum to at least N.

    The search starts at ceil(sqrt(pi N) / 2) - 1: the populations sum to
    less than sum_k 2K sin(k pi / K) = 2K cot(pi / 2K) < 4K^2 / pi, so no
    smaller K reaches N.
    """
    if N < 8:
        raise InvalidParameterError(f"shell layout needs N >= 8, got N={N}")
    K = max(2, math.ceil(math.sqrt(math.pi * N) / 2) - 1)
    while band_sizes(K).sum() < N:
        K += 1
    return K


def _ragged(counts):
    """(owner, index): for each g in order, owner g and index 0..counts[g]-1."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


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
    band, j = _ragged(keep)
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
        raise InvalidParameterError(f"charge N must be at least 8, got {N}")
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


# Row blocks of a distance table hold about this many float64 entries
# (512 kB).  A block and its work array then stay in a core's 2 MB L2 cache
# through every pass over them.  A serial table over N sources needs O(N)
# memory plus those two arrays (tracemalloc peak 1.5 MB for the shell at
# N = 4800); a block-parallel one (`_table_map`) gives each of its W parts,
# W <= `_WORKERS`, its own, so W times them.
_BLOCK_ELEMENTS = 1 << 16

# The cores this process may run on, the most parts `_map_blocks` splits its
# blocks into.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_pool = None  # the thread pool of `_map_blocks`, made on first use


def _forget_pool():
    """Drop the pool in a forked child, where its threads do not exist."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _row_blocks(n_rows, row_entries):
    """(size, slices): consecutive slices covering range(n_rows), each of
    `_BLOCK_ELEMENTS // row_entries` rows (at least one; the last may hold
    fewer), and size, the most rows any of them holds."""
    step = max(1, _BLOCK_ELEMENTS // max(row_entries, 1))
    return min(step, n_rows), [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _part_buffers(n_blocks, shape):
    """An uninitialised float array (W, *shape), W = min(`_WORKERS`,
    n_blocks) but at least 1: row i is part i's block buffers in
    `_map_blocks`.  It is allocated here, in the calling thread: allocated
    in the pool threads, the buffers came from per-thread malloc arenas,
    which held on to them and raised the peak RSS of the benchmark's
    `exterior` workload by another 1.1 MB (66.4-66.7 against 65.3-65.9
    MB)."""
    return np.empty((max(1, min(_WORKERS, n_blocks)), *shape))


def _map_blocks(blocks, fn, buffers):
    """[fn(rows, buffers[i]) for rows in blocks], in block order, over W =
    len(buffers) parts: part i takes the blocks i, i + W, i + 2W, ... and
    works in buffers[i] alone.

    One part runs inline.  Otherwise the caller runs part 0 and pool
    threads the others (numpy releases the GIL in the ufuncs that take a
    block's time), each in a copy of the caller's context, so that numpy's
    error state (a context variable) holds there too.  The call returns
    once every part has ended and raises the exception of the first part
    that raised, unchanged.  Every result is the serial one bit for bit as
    long as fn writes only its own rows and reads nothing another block
    writes.  fn must not call `_map_blocks` itself: a pool thread waiting
    on the pool could wait forever.
    """
    global _pool
    parts = len(buffers)
    if parts == 1:
        return [fn(rows, buffers[0]) for rows in blocks]

    def part(i):
        return [fn(rows, buffers[i]) for rows in blocks[i::parts]]

    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor  # 4 ms to import: not at start-up

        _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="magbag-blocks")
    futures = [_pool.submit(contextvars.copy_context().run, part, i) for i in range(1, parts)]
    try:
        results = [part(0)]
    finally:
        for future in futures:
            future.exception()  # waits; the parts may still write to the caller's arrays
    results += [future.result() for future in futures]
    out = [None] * len(blocks)
    for i, res in enumerate(results):
        out[i::parts] = res
    return out


def _squared_distances(x, points, out=None, work=None, paired=False):
    """|x - p|^2 for points x (..., 3) and sources p (N, 3), shape (..., N);
    with `paired`, x and p are both (N, 3) and row i of each makes pair i,
    shape (N,).

    Summed coordinate by coordinate, ((dx^2 + dy^2) + dz^2): the order in
    which np.linalg.norm reduces a last axis of length 3, without its
    (..., N, 3) difference array.  `out` receives the table and `work` holds
    one coordinate's differences; either, if given, is a float array of the
    result's shape.  Columns `points[:, k]` are read at unit stride when
    `points` is in Fortran order.
    """
    x = np.asarray(x, dtype=float)
    points = np.asarray(points, dtype=float)
    subtract = np.subtract if paired else np.subtract.outer
    d2 = subtract(x[..., 0], points[:, 0], out=out)
    d2 *= d2
    for k in (1, 2):
        work = subtract(x[..., k], points[:, k], out=work)
        work *= work
        d2 += work
    return d2


def pairwise_distances(points):
    """The (N, N) table |p - q| of the points (N, 3)."""
    d = _squared_distances(points, points)
    return np.sqrt(d, out=d)


def _table_plan(x, sources):
    """(blocks, shape, table) for the `_squared_distances` of points x (n, 3)
    to sources (N, 3): blocks the `_row_blocks` of the table, shape (2, b, N)
    that of the buffers a block of at most b rows needs, and table(rows,
    buffers) -> (d2, spare), the rows `rows` of the table and an array of
    their shape the caller may overwrite, both views of `buffers`."""
    x = np.asarray(x, dtype=float)
    cols = np.asfortranarray(sources, dtype=float)
    size, blocks = _row_blocks(len(x), len(cols))

    def table(rows, buffers):
        buf, work = buffers[:, :rows.stop - rows.start]
        return _squared_distances(x[rows], cols, out=buf, work=work), work

    return blocks, (2, size, len(cols)), table


def _table_blocks(x, sources):
    """Row blocks (rows, d2, spare) of the `_table_plan` of points x (n, 3)
    against sources (N, 3), one after another, in one pair of buffers
    allocated once per call: a block is valid until the next is drawn."""
    blocks, shape, table = _table_plan(x, sources)
    buffers = np.empty(shape)
    for rows in blocks:
        yield rows, *table(rows, buffers)


def _table_map(x, sources, fn):
    """[fn(rows, d2, spare) for each block of `_table_blocks(x, sources)`]:
    the blocks run by `_map_blocks`, each part in its own pair of buffers."""
    blocks, shape, table = _table_plan(x, sources)
    return _map_blocks(blocks, lambda rows, buffers: fn(rows, *table(rows, buffers)),
                       _part_buffers(len(blocks), shape))


def _distance_blocks(points):
    """Row blocks (rows, d, d_min, spare) of `pairwise_distances`.

    The `_table_blocks` of the points against themselves, d with an
    infinite diagonal, so that 1/d vanishes there and d_min = d.min() is
    the smallest separation.  Non-finite and coincident points raise.
    """
    points = np.asarray(points, dtype=float)
    if not np.isfinite(points).all():
        raise InvalidConfigurationError("non-finite point coordinates")
    for rows, d, spare in _table_blocks(points, points):
        np.fill_diagonal(d[:, rows], np.inf)
        d_min = float(d.min())
        if d_min == 0.0:
            raise InvalidConfigurationError("coincident points in the configuration")
        yield rows, np.sqrt(d, out=d), math.sqrt(d_min), spare


def _residues_and_separation(points):
    """(r_p, smallest separation) of the points, one pass over `_distance_blocks`."""
    r_p = np.empty(len(points))
    min_sep = math.inf
    for rows, d, d_min, _ in _distance_blocks(points):
        min_sep = min(min_sep, d_min)
        r_p[rows] = 1.0 - np.sum(np.reciprocal(d, out=d), axis=1)
    return r_p, min_sep


# A ring's left-out Fourier modes may reach this fraction of its ring term:
# half an ulp of 1, so leaving them out costs no more than rounding the term.
_ALIAS_TOL = 2.0**-53


def _band_chords(R, K):
    """(d_max, d_min), each (K-1, K-1): the farthest and nearest distance
    from a point of band a to the circle of band b, 2R sin((t_a + t_b)/2)
    and 2R |sin((t_a - t_b)/2)|, with t_b = (b + 1) pi / K."""
    theta = np.arange(1, K) * np.pi / K
    d_max = 2.0 * R * np.sin(0.5 * (theta[:, None] + theta))
    d_min = 2.0 * R * np.abs(np.sin(0.5 * (theta[:, None] - theta)))
    return d_max, d_min


def _ring_plan(K, sizes):
    """J (K-1, K-1) int: the form ring b, the n_b points of band b taken
    whole, takes at the points of band a: 0 on the diagonal, 1 for a far
    ring and an odd number >= 3 of samples for a near one.

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

    a sum of period 2 pi / n_b in the longitude of x whose mode k is at most
    A^k of the ring term n_b c_0, with A = rho^n_b.  The three forms:

    - own ring, b = a (J = 0): a full ring gives each of its points the
      same sum, in closed form (`_own_rings`);
    - far ring (J = 1), when all modes k >= 1 together, at most
      2 A / (1 - A) of the ring term, are within `_ALIAS_TOL` of it: the
      ring term n_b / AGM(d_max, d_min) alone (`_ring_terms`);
    - near ring, any other: the trigonometric interpolant through J equally
      spaced samples of one period (`_ring_spectra`).  Its modes
      |k| <= M = (J-1)/2 are each the true mode plus the modes k + j J it
      aliases, so it is within twice the modes |k| > M of the sum,
      4 A^(M+1) / (1 - A) of the ring term, and J is the smallest odd count
      that brings this within `_ALIAS_TOL`.

    rho does not depend on R, so the plan depends on the layout alone.
    """
    d_max, d_min = _band_chords(1.0, K)
    alias = ((d_max - d_min) / (d_max + d_min)) ** sizes
    J = np.ones(alias.shape, dtype=int)
    np.fill_diagonal(J, 0)
    near = (J == 1) & (2.0 * alias > _ALIAS_TOL * (1.0 - alias))
    A = alias[near]

    def ok(m):
        return 4.0 * A**m <= _ALIAS_TOL * (1.0 - A)

    m = np.ceil(np.log(0.25 * _ALIAS_TOL * (1.0 - A)) / np.log(A))
    m += ~ok(m)  # the logarithms' rounding, either way
    m -= ok(m - 1)
    J[near] = 2 * m - 1
    return J


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


def _own_rings(R, K, sizes):
    """For the first len(sizes) bands, the sum of 1/|p - q| over the other
    points q of p's full ring.  A ring of n points and radius a has chords
    2 a sin(pi k / n), so the sum is (1/(2a)) sum_{k=1}^{n-1} csc(pi k / n)."""
    band, k = _ragged(sizes - 1)
    csc = np.reciprocal(np.sin(np.pi * (k + 1) / sizes[band]))
    radius = R * np.sin(np.arange(1, len(sizes) + 1) * np.pi / K)
    return np.add.reduceat(csc, np.cumsum(sizes - 1) - (sizes - 1)) / (2.0 * radius)


def _ring_spectra(R, K, sizes, a, b, J):
    """(sum n_a,): band by band, the coefficients E_f, f < n_a, of the
    cosine series sum_f E_f cos(2 pi f i / n_a) that sums the near rings b
    whole at longitude index i of band a, for the band pairs (a, b) with
    their `_ring_plan` sample counts J.

    Ring b's sum f(phi) at longitude phi on band a is even with period
    2 pi / n_b.  Its samples at phi_s = 2 pi s / (J n_b) take each value of
    the grid g_t, t < J n_b, once: point j of ring b lies
    psi = 2 pi (s - J j) / (J n_b) from phi_s, so f(phi_s) sums the g_t with
    t = s (mod J), g_t = 1 / sqrt(d_min^2 + 4 a_a a_b sin^2(pi t / (J n_b))),
    a_a and a_b the ring radii (the chord free of cancellation).  Since
    f(phi_{J-s}) = f(phi_s), only s <= (J-1)/2 are summed, one row of n_b
    values each.  A value takes four arrays (its row, column, angle and
    value), so blocks of about `_BLOCK_ELEMENTS` / 4 values hold one
    table's memory.  The interpolant's mode k, C_k cos(k n_b phi), is
    cos(2 pi f i / n_a) at the longitudes of band a with f = k n_b mod n_a,
    the phase reduced in integers.
    """
    n = sizes[b]
    m = (J + 1) // 2
    theta = np.arange(1, K) * np.pi / K
    radius = R * np.sin(theta)
    c2 = 4.0 * radius[a] * radius[b]
    h2 = (2.0 * R * np.sin(0.5 * (theta[a] - theta[b]))) ** 2 / c2  # d_min^2 / c2
    # row (pair, s) holds g_t c2^(1/2) at t = s + J j, the angle
    # pi t / (J n_b) = pi s / (J n_b) + j pi / n_b taken with |j| <= n_b / 2,
    # so that the nearest points' small angles are accurate
    pair, s = _ragged(m)
    length = n[pair]
    phase = np.pi * s / (J * n)[pair]
    step = np.pi / length
    samples = np.empty(len(pair))
    ends = np.cumsum(length)
    block = _BLOCK_ELEMENTS // 4
    cuts = np.searchsorted(ends, np.arange(block, ends[-1], block), side="right")
    for lo, hi in zip([0, *cuts], [*cuts, len(pair)]):
        row, j = _ragged(length[lo:hi])
        row += lo
        j -= length[row] // 2
        g = np.sin(phase[row] + step[row] * j)
        g *= g
        g += h2[pair[row]]
        np.reciprocal(np.sqrt(g, out=g), out=g)
        samples[lo:hi] = np.add.reduceat(g, np.cumsum(length[lo:hi]) - length[lo:hi])
    samples /= np.sqrt(c2[pair])

    # C_k = (2 - [k = 0]) / J sum_{s < J} f(phi_s) cos(2 pi k s / J), k < m,
    # summed over the rows (pair, s)
    row, k = _ragged(m[pair])
    p, s = pair[row], s[row]
    w = (2 - (s == 0)) * (2 - (k == 0)) / J[p] * np.cos(2.0 * np.pi * (k * s % J[p]) / J[p])
    f = (np.cumsum(sizes) - sizes)[a[p]] + k * n[p] % sizes[a[p]]
    return np.bincount(f, w * samples[row], minlength=sizes.sum())


def _cosine_series(sizes, spectra):
    """(sum n_a,): band by band, sum_f E_f cos(2 pi f i / n_a) at every
    longitude index i < n_a, from `spectra` as `_ring_spectra` lays them
    out, for nondecreasing band sizes.  The constant E_0 is added apart; the
    rest takes one FFT per run of equal sizes."""
    start = np.cumsum(sizes) - sizes
    out = np.repeat(spectra[start], sizes)
    wave = spectra.copy()
    wave[start] = 0.0
    lo = 0
    for size, bands in zip(*(v.tolist() for v in np.unique(sizes, return_counts=True))):
        hi = lo + size * bands
        out[lo:hi] += np.fft.fft(wave[lo:hi].reshape(bands, size)).real.ravel()
        lo = hi
    return out


def _ring_separation(K, sizes, keep, points):
    """The smallest separation of the layout `points` (band sizes n_b,
    survivor counts `keep`).

    It is taken over three sets of pairs: points next to each other in the
    table, the last and first points of each full band, and each point
    with the two kept points of the next band on either side of its
    longitude, in row blocks of the table.  They hold every pair of
    neighbours within a band and between adjacent bands.  Bands two or more
    apart are at least 2R sin(pi/K) apart, farther than neighbours within a
    band, so this is the brute-force minimum bit for bit.  Coincident points
    raise.
    """
    start = np.cumsum(keep) - keep
    full = np.flatnonzero(keep == sizes)
    wrap = _squared_distances(points[start[full] + sizes[full] - 1], points[start[full]], paired=True)
    d2_min = float(wrap.min(initial=np.inf))
    for rows in _row_blocks(len(points) - 1, 16)[1]:
        after = _squared_distances(points[rows], points[rows.start + 1:rows.stop + 1], paired=True)
        p = np.arange(rows.start, rows.stop)
        a = np.searchsorted(start, p, side="right")  # the band after p's
        p, a = p[a < K - 1], a[a < K - 1]
        j = (p - start[a - 1]) * sizes[a] // sizes[a - 1]  # the point at or before p's longitude
        d2_min = min(d2_min, float(after.min()))
        for q in (np.minimum(j, keep[a] - 1), np.where(j + 1 < keep[a], j + 1, 0)):
            pairs = _squared_distances(np.take(points, p, axis=0), np.take(points, start[a] + q, axis=0),
                                       paired=True)
            d2_min = min(d2_min, float(pairs.min(initial=np.inf)))
    if d2_min == 0.0:
        raise InvalidConfigurationError("coincident points in the configuration")
    return math.sqrt(d2_min)


def _ring_residues(R, K, sizes, keep, points):
    """(r_p, smallest separation) of `points`, the layout `_layout(N, R)`
    with band sizes n_b and survivor counts `keep`, from latitude rings.

    Each point sees every ring whole, in the form `_ring_plan` gives it,
    and the points the layout dropped are then subtracted pair by pair.
    Whole rings are mirror images under z -> -z: band K-2-a sees from ring
    K-2-b what band a sees from ring b, so only the bands a <= K-2-a are
    summed.  The residues agree with `_residues_and_separation` to
    rounding, and the separation (`_ring_separation`) equals it bit for bit.
    A layout with no far ring takes `_residues_and_separation` itself.
    """
    J = _ring_plan(K, sizes)
    far = J == 1
    if not far.any():
        # no far ring (N < 99): one pass over all pairs costs less than the rings
        return _residues_and_separation(points)
    half = K // 2
    J[half:] = 0
    far[half:] = False
    a, b = np.nonzero(J > 1)
    north = sizes[:half]
    spectra = _ring_spectra(R, K, sizes, a, b, J[a, b])[:north.sum()]
    start = np.cumsum(north) - north
    spectra[start] += _ring_terms(R, K, sizes, far)[:half].sum(axis=1) + _own_rings(R, K, north)
    band, i = _ragged(keep)
    total = _cosine_series(north, spectra)[start[np.minimum(band, K - 2 - band)] + i]
    lost_band, j = _ragged(sizes - keep)
    lost = _band_points(R, K, sizes, lost_band, keep[lost_band] + j)[1]
    dropped = np.zeros(len(points))
    for _, d2, _ in _table_blocks(lost, points):
        for row in np.reciprocal(np.sqrt(d2, out=d2), out=d2):
            dropped += row  # one dropped point at a time, so no sum depends on the blocks
    return 1.0 - (total - dropped), _ring_separation(K, sizes, keep, points)


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
    d = np.sqrt(_squared_distances(x, points))
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
