import ast
import io
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magbag import constants, shell
from magbag.shell import (
    InvalidConfigurationError,
    InvalidParameterError,
    band_sizes,
    choose_band_count,
    coulomb_maxima,
    coulomb_sums,
    make_shell_config,
    pairwise_distances,
    place_points,
    residues,
    shell_radius,
    write_points_csv,
)

from oracles import (
    brute_band_sizes,
    difference_distances,
    layout_loop,
    shell_coulomb_rows,
    write_points_csv_rows,
)


def test_band_sizes_k10():
    # direct evaluation; strict inequality drops the equator band to 19
    expect = [6, 11, 16, 19, 19, 19, 16, 11, 6]
    assert band_sizes(10).tolist() == expect == brute_band_sizes(10)
    assert band_sizes(10).sum() == 123


def test_band_sizes_k9():
    assert band_sizes(9).tolist() == brute_band_sizes(9)
    assert band_sizes(9).sum() == 98


@given(st.integers(min_value=2, max_value=60))
@settings(max_examples=40)
def test_band_sizes_symmetric_and_match_enumeration(K):
    n = band_sizes(K)
    assert n.tolist() == brute_band_sizes(K)
    np.testing.assert_array_equal(n, n[::-1])


def test_band_sizes_rejects_small_k():
    with pytest.raises(InvalidParameterError):
        band_sizes(1)


def test_choose_band_count():
    assert choose_band_count(100) == 10
    assert choose_band_count(98) == 9
    with pytest.raises(InvalidParameterError):
        choose_band_count(7)


def test_choose_band_count_equals_linear_search():
    # the search from K = 2 up, over band sums taken once
    sums = [0, 0] + [int(band_sizes(K).sum()) for K in range(2, 200)]
    for N in range(8, 20001):
        K = 2
        while sums[K] < N:
            K += 1
        assert choose_band_count(N) == K


def test_band_count_tracks_equal_area_estimate():
    for N in (64, 100, 200, 400, 700, 1024):
        K = choose_band_count(N)
        assert abs(K - 0.5 * math.sqrt(math.pi * N)) <= 2.0


def test_band_sum_overshoot():
    for N in range(64, 1025, 7):
        K = choose_band_count(N)
        total = band_sizes(K).sum()
        assert N <= total <= N + constants.BAND_SUM_C * math.sqrt(N)


def test_place_points_full_bands():
    pts = place_points(98, 50.0)
    assert pts.shape == (98, 3)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 50.0, rtol=1e-13)


def test_place_points_removal_pattern():
    # round-robin: 23 removals from the K=10 layout at N=100
    from magbag.shell import _layout

    K, _, _, bands, _, pts = _layout(100, 1.0)
    assert K == 10 and len(pts) == 100
    counts = np.bincount(bands, minlength=10)[1:]
    removed = band_sizes(10) - counts
    assert removed.tolist() == [3, 3, 3, 3, 3, 2, 2, 2, 2]


@pytest.mark.parametrize("N", [8, 25, 64, 100, 256, 1600, 4800, 9600, 12800])
@pytest.mark.parametrize("radius", ["shell", "charge"])
def test_layout_matches_point_by_point_oracle(N, radius):
    from magbag.shell import _layout

    R = shell_radius(N, 16.0) if radius == "shell" else N
    *_, bands, lons, pts = _layout(N, R)
    want_bands, want_lons, want_pts = layout_loop(N, R)
    assert np.array_equal(bands, want_bands)
    assert np.array_equal(lons, want_lons)
    assert np.array_equal(pts, want_pts)


@pytest.mark.parametrize("N, R", [(100.5, 10.0), (True, 10.0), (100, math.inf),
                                  (100, math.nan), (100, 0.0), (100, -1.0)])
def test_place_points_rejects_bad_input(N, R):
    with pytest.raises(InvalidParameterError):
        place_points(N, R)


def test_place_points_deterministic():
    a = place_points(137, 200.0)
    b = place_points(137, 200.0)
    assert np.array_equal(a, b)


def test_place_points_ordering():
    from magbag.shell import _layout

    _, _, _, bands, lons, _ = _layout(100, 1.0)
    order = np.lexsort((lons, bands))
    assert np.array_equal(order, np.arange(100))


def test_residues_singleton_and_pair():
    assert residues(np.zeros((1, 3)))[0] == 1.0
    R = 7.0
    two = np.array([[0, 0, R], [0, 0, -R]])
    np.testing.assert_allclose(residues(two), 1 - 1 / (2 * R))
    with pytest.raises(InvalidConfigurationError):
        residues(np.zeros((2, 3)))


def test_residues_cluster_goes_negative():
    # many points packed inside a unit ball exceed the Coulomb budget
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.5, 0.5, size=(20, 3))
    assert residues(pts).min() < 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_residues_reject_non_finite_points(bad):
    # NaN used to give all-NaN residues, inf a finite r_p = 1 at that point
    pts = place_points(20, 20.0)
    pts[7, 1] = bad
    with pytest.raises(InvalidConfigurationError, match="non-finite"):
        residues(pts)


def test_squared_distances_into_buffers_equal_allocating_call():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(37, 3))
    x = rng.normal(size=(4, 5, 3))
    want = shell._squared_distances(x, pts)
    out, work = np.empty((2, 4, 5, 37))
    got = shell._squared_distances(x, np.asfortranarray(pts), out=out, work=work)
    assert got is out and np.array_equal(got, want)
    # ragged last block: views of a larger buffer, as `_table_blocks` passes them
    buf, work = np.empty((2, 10, 37))
    want = shell._squared_distances(pts[30:], pts)
    got = shell._squared_distances(pts[30:], pts, out=buf[:7], work=work[:7])
    assert np.shares_memory(got, buf) and np.array_equal(got, want)


def test_only_shell_builds_distance_tables():
    # every other table of points against sources is drawn from `_table_plan`
    # (through `_table_blocks` or `_table_map`), which picks its block size;
    # tests and their oracles are exempt
    root = Path(__file__).resolve().parents[1]
    users = {
        path.relative_to(root).as_posix()
        for path in [*root.glob("src/magbag/*.py"), *root.glob("scripts/*.py")]
        for node in ast.walk(ast.parse(path.read_text()))
        if "_squared_distances" in (getattr(node, "id", None), getattr(node, "attr", None),
                                    getattr(node, "name", None))
    }
    assert users == {"src/magbag/shell.py"}


def _builds_difference_array(node):
    """Whether node is `y[..., None, :] - points` (or `- cfg.points`): a
    subtraction of the points from an operand indexed with None."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    right = node.right
    if "points" not in (getattr(right, "id", None), getattr(right, "attr", None)):
        return False
    index = getattr(node.left, "slice", None)
    return index is not None and any(
        isinstance(n, ast.Constant) and n.value is None for n in ast.walk(index))


def test_no_difference_arrays_against_the_points():
    # an (..., N, 3) array of differences to the shell points costs N times
    # the memory of its rows; the distances and the gradient take their rows
    # from `_table_map` instead
    root = Path(__file__).resolve().parents[1]
    found = [
        f"{path.relative_to(root).as_posix()}:{node.lineno}"
        for path in [*root.glob("src/magbag/*.py"), *root.glob("scripts/*.py")]
        for node in ast.walk(ast.parse(path.read_text()))
        if _builds_difference_array(node)
    ]
    assert found == []
    assert _builds_difference_array(ast.parse("x[..., None, :] - cfg.points").body[0].value)


def test_distance_blocks_reuse_one_buffer(monkeypatch):
    monkeypatch.setattr(shell, "_BLOCK_ELEMENTS", 100 * 30)  # rows 30, 30, 30, 10
    pts = place_points(100, 100.0)
    blocks = list(shell._distance_blocks(pts))
    assert [rows.stop - rows.start for rows, *_ in blocks] == [30, 30, 30, 10]
    first, spare = blocks[0][1], blocks[0][3]
    assert not np.shares_memory(first, spare)
    for _, d, _, work in blocks[1:]:
        assert np.shares_memory(d, first) and np.shares_memory(work, spare)


def _dealt(rows, buf):
    return rows.start, int(buf[0]), threading.get_ident()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_blocks_deals_every_wth_block_to_a_part(workers, monkeypatch):
    # seven blocks; part i works in buffer row i on blocks i, i + W, ...; the
    # caller runs part 0 and each other part runs on one pool thread
    monkeypatch.setattr(shell, "_WORKERS", workers)
    blocks = [slice(lo, lo + 3) for lo in range(0, 21, 3)]
    buffers = shell._part_buffers(len(blocks), (1,))
    assert buffers.shape == (workers, 1)
    buffers[:, 0] = np.arange(workers)
    got = shell._map_blocks(blocks, _dealt, buffers)
    assert [start for start, _, _ in got] == list(range(0, 21, 3))
    assert [part for _, part, _ in got] == [j % workers for j in range(7)]
    threads = [{t for _, part, t in got if part == i} for i in range(workers)]
    assert threads[0] == {threading.get_ident()}
    assert all(len(t) == 1 and t != threads[0] for t in threads[1:])
    assert shell._part_buffers(1, (1,)).shape == (1, 1)  # one block runs inline
    assert shell._part_buffers(0, (1,)).shape == (1, 1)


def _divide_in_block_1(rows, buf):
    if rows.start == 1:
        buf[0] = np.reciprocal(np.zeros(1))[0]
    return buf[0]


def test_map_blocks_parts_see_the_callers_error_state(monkeypatch):
    # block 1 runs on a pool thread: the caller's errstate reaches it
    monkeypatch.setattr(shell, "_WORKERS", 2)
    blocks = [slice(0, 1), slice(1, 2)]
    buffers = shell._part_buffers(2, (1,))
    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            shell._map_blocks(blocks, _divide_in_block_1, buffers)
    with np.errstate(divide="ignore"):
        assert shell._map_blocks(blocks, _divide_in_block_1, buffers)[1] == np.inf


def test_map_blocks_waits_for_every_part_when_the_caller_raises(monkeypatch):
    monkeypatch.setattr(shell, "_WORKERS", 2)
    done = []

    def fn(rows, buf):
        if rows.start == 0:
            raise InvalidConfigurationError("block 0")
        time.sleep(0.2)
        done.append(rows.start)

    with pytest.raises(InvalidConfigurationError, match="block 0"):
        shell._map_blocks([slice(0, 1), slice(1, 2)], fn, shell._part_buffers(2, (1,)))
    assert done == [1]


def _run_fresh(code):
    env = {**os.environ, "PYTHONPATH": str(Path(shell.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=300)


def test_import_starts_no_thread():
    _run_fresh("import sys, threading; import magbag; "
               "assert 'concurrent.futures' not in sys.modules, 'imported the pool'; "
               "assert threading.active_count() == 1")


def test_serial_kernels_start_no_thread():
    # the exact-core spheres of one source fit one block, and the shell's
    # residues and Lemma 3.1 sums run serially: none of them makes the pool;
    # the first multi-block point evaluation does
    _run_fresh(
        "import sys, threading; import numpy as np\n"
        "from magbag import analysis, glued, shell\n"
        "mono = analysis.ScaledMonopole(center=np.zeros(3), scale=1.0)\n"
        "analysis.critical_radii(0.5, mono, analysis.SphereQuadrature(1024))\n"
        "cfg = shell.make_shell_config(4800, 16.0)\n"
        "shell.coulomb_maxima(512)\n"
        "assert 'concurrent.futures' not in sys.modules, 'imported the pool'\n"
        "assert threading.active_count() == 1\n"
        "shell._WORKERS = 2\n"
        "glued.phi_theta(2.0 * cfg.R * analysis.fibonacci_sphere(100), cfg)\n"
        "assert threading.active_count() == 2\n")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_a_pool_of_its_own():
    # the parent's pool threads do not exist in a forked child; a child
    # that submitted to the parent's pool would wait forever
    _run_fresh(
        "import os, time; from magbag import analysis, glued, shell\n"
        "shell._WORKERS = 2\n"
        "cfg = shell.make_shell_config(100, 16.0)\n"
        "X = 2.0 * cfg.R * analysis.fibonacci_sphere(5000)\n"
        "want = glued.phi_theta(X, cfg)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    os._exit(0 if (glued.phi_theta(X, cfg) == want).all() else 1)\n"
        "for _ in range(300):\n"
        "    done, status = os.waitpid(pid, os.WNOHANG)\n"
        "    if done:\n"
        "        break\n"
        "    time.sleep(0.1)\n"
        "else:\n"
        "    os.kill(pid, 9)\n"
        "    os.waitpid(pid, 0)\n"
        "    raise SystemExit('the child hung')\n"
        "assert status == 0, status\n")


def test_residues_catch_a_twin_in_another_block(monkeypatch):
    monkeypatch.setattr(shell, "_BLOCK_ELEMENTS", 100 * 10)  # 10-row blocks
    pts = place_points(100, 100.0)
    pts[90] = pts[3]
    with pytest.raises(InvalidConfigurationError, match="coincident"):
        residues(pts)


# (N, block budget): one block, five equal blocks, 25 blocks and a ragged 7-row
# one; the blocked runs reuse one buffer across every block.
@pytest.mark.parametrize("N, budget", [(8, 8 * 8), (100, 100 * 20), (257, 257 * 10)])
def test_blocked_tables_equal_difference_oracle(N, budget, monkeypatch):
    monkeypatch.setattr(shell, "_BLOCK_ELEMENTS", N * N)
    one_block = make_shell_config(N, 16.0)
    monkeypatch.undo()
    monkeypatch.setattr(shell, "_BLOCK_ELEMENTS", budget)
    cfg = make_shell_config(N, 16.0)
    min_sep, s1, _ = shell_coulomb_rows(cfg.points)
    np.testing.assert_allclose(cfg.residues, 1.0 - s1, rtol=1e-14, atol=0)
    assert np.array_equal(residues(cfg.points), 1.0 - s1)
    assert cfg.diagnostics["min_separation"] == min_sep
    assert np.array_equal(cfg.residues, one_block.residues)
    assert cfg.diagnostics == one_block.diagnostics
    assert np.array_equal(pairwise_distances(cfg.points), difference_distances(cfg.points, cfg.points))

    R = float(N)
    _, t1, t2 = shell_coulomb_rows(place_points(N, R))
    want = (float(np.abs(t1 - N / R).max()) * R / (math.sqrt(N) * math.log(N)),
            float(t2.max()) * R * R / (N * math.log(N)))
    assert coulomb_maxima(N) == want


def test_make_shell_config_memory_is_bounded():
    # the (N, N, 3) difference array alone would take 553 MB at N = 4800;
    # the row blocks need two buffers of _BLOCK_ELEMENTS floats (1 MB)
    tracemalloc.start()
    try:
        cfg = make_shell_config(4800, 16.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.diagnostics["Lr_min"] > 16 / 3
    assert peak <= 4 * 2**20


def _ring_layout(N, m):
    """(R, K, n_b, keep, points) of the (N, m) shell layout."""
    R = shell_radius(N, m)
    K, sizes, keep, _, _, points = shell._layout(N, R)
    return R, K, sizes, keep, points


@given(st.integers(min_value=8, max_value=3000), st.floats(min_value=1.01, max_value=256.0))
@settings(max_examples=30, deadline=None)
def test_ring_residues_match_brute_force(N, m):
    R, K, sizes, keep, points = _ring_layout(N, m)
    r_p, min_sep = shell._ring_residues(R, K, sizes, keep, points)
    want, want_sep = shell._residues_and_separation(points)
    np.testing.assert_allclose(r_p, want, rtol=1e-14, atol=0)
    assert min_sep == want_sep


def test_ring_term_matches_elliptic_integral():
    # Gauss: 1/AGM(a, b) = (2/pi) K(k)/a with k^2 = 1 - (b/a)^2, ellipk(k^2) = K(k)
    import mpmath

    R, K, sizes, _, _ = _ring_layout(4800, 16.0)
    far = shell._ring_plan(K, sizes) == 1
    ring = shell._ring_terms(R, K, sizes, far)
    d_max, d_min = shell._band_chords(R, K)
    worst = 0.0
    with mpmath.workdps(30):
        for a, b in zip(*np.nonzero(far)):
            hi, lo = mpmath.mpf(d_max[a, b]), mpmath.mpf(d_min[a, b])
            want = int(sizes[b]) * 2 / mpmath.pi * mpmath.ellipk(1 - (lo / hi) ** 2) / hi
            worst = max(worst, float(abs(ring[a, b] - want)) / np.spacing(float(want)))
    assert far.sum() > 2000 and worst <= 2.0


def test_far_rings_within_their_aliasing_bound():
    # every point of band a against the whole ring b, the dropped points
    # included; 8 ulps cover the rounded coordinates and the row sums
    R, K, sizes, keep, points = _ring_layout(4800, 16.0)
    far = shell._ring_plan(K, sizes) == 1
    ring = shell._ring_terms(R, K, sizes, far)
    d_max, d_min = shell._band_chords(1.0, K)
    band = np.repeat(np.arange(K - 1), keep)
    for b in range(K - 1):
        rows = far[band, b]
        if not rows.any():
            continue
        _, q = shell._band_points(R, K, sizes, np.full(sizes[b], b), np.arange(sizes[b]))
        got = np.sum(1.0 / difference_distances(points[rows], q), axis=1)
        want = ring[band[rows], b]
        alias = ((d_max - d_min) / (d_max + d_min))[band[rows], b] ** sizes[b]
        bound = 2 * alias / (1 - alias)
        assert np.all(bound <= 2.0**-53)
        assert np.all(np.abs(got - want) <= (bound + 8 * np.finfo(float).eps) * want)


def test_ring_plan_near_field_work_is_sub_quadratic():
    # the pairs of a point and its own or a near ring number O(N^{3/2}); the
    # brute-force pass takes all N^2
    N = 4800
    K, sizes, keep, *_ = shell._layout(N, 1.0)
    near = shell._ring_plan(K, sizes) != 1
    assert all(near.diagonal(k).all() for k in (-1, 0, 1))
    assert keep @ near @ keep <= 0.3 * N * N


@pytest.mark.parametrize("N", [4800, 51200])
def test_ring_residue_work_is_linear(N):
    # the ring path's work: grid values summed into samples, interpolation
    # terms (the DFT's products and the longitudes of the cosine series) and
    # dropped-point pairs, against the pair path's point-to-near-ring pairs,
    # which grow as N^{3/2}.  The dropped pairs are N times the layout's
    # excess over N (63 and 146 here, below 2.3 sqrt(N)), so they are the
    # part that is not linear.
    K, sizes, keep, *_ = shell._layout(N, 1.0)
    J = shell._ring_plan(K, sizes)
    pairs = keep @ (J != 1) @ keep
    J[K // 2:] = 0  # the bands a <= K-2-a
    a, b = np.nonzero(J > 1)
    m = (J[a, b] + 1) // 2
    linear = m @ sizes[b] + m @ m + sizes[:K // 2].sum()
    dropped = N * (sizes.sum() - N)
    assert linear <= 25 * N
    assert linear + dropped <= 200 * N
    assert pairs >= 1000 * N


def test_sampled_rings_within_their_interpolation_bound():
    # every longitude of band a against the whole ring b, the dropped points
    # included, for every near ring; the sum over rounded coordinates is
    # itself some 8 ulps off the layout's rings, hence the 12 ulps
    R, K, sizes, _, _ = _ring_layout(4800, 16.0)
    J = shell._ring_plan(K, sizes)
    d_max, d_min = shell._band_chords(1.0, K)
    rho = (d_max - d_min) / (d_max + d_min)
    start = np.cumsum(sizes) - sizes
    for b in range(K - 1):
        a = np.flatnonzero(J[:, b] > 1)
        spectra = shell._ring_spectra(R, K, sizes, a, np.full(len(a), b), J[a, b])
        q = shell._band_points(R, K, sizes, np.full(sizes[b], b), np.arange(sizes[b]))[1]
        for band, alias, M in zip(a, rho[a, b] ** sizes[b], (J[a, b] - 1) // 2):
            n, i = sizes[band], np.arange(sizes[band])
            got = np.cos(2 * np.pi * (np.outer(i, i) % n) / n) @ spectra[start[band]:][:n]
            x = shell._band_points(R, K, sizes, np.full(n, band), i)[1]
            want = np.sum(1.0 / difference_distances(x, q), axis=1)
            bound = 4 * alias ** (M + 1) / (1 - alias)
            assert bound <= 2.0**-53
            assert np.all(np.abs(got - want) <= (bound + 12 * np.finfo(float).eps) * want.mean())


def test_coulomb_sums_singleton():
    pts = np.array([[1.0, 2.0, 3.0]])
    s1, s2, s3, s4 = coulomb_sums(pts, pts[0], 2.0)
    assert s1 == 0.0 and s2 == 0.0
    assert s3 == pytest.approx(0.5) and s4 == pytest.approx(0.25)


def test_coulomb_origin_bounds():
    N = 256
    pts = place_points(N, float(N))
    _, _, s3, s4 = coulomb_sums(pts, np.zeros(3), 1.0)
    assert s3 <= 1.0 + constants.KAPPA_S34 * (1.0 + math.sqrt(N) * math.log(N) / N)
    assert s4 <= constants.KAPPA_S34 * (1.0 + math.log(N) / N)


def test_coulomb_onshell_bounds():
    N = 256
    pts = place_points(N, float(N))
    _, _, s3, s4 = coulomb_sums(pts, pts[0], 1.0)
    assert s3 <= 1.0 + constants.KAPPA_S34 * (1.0 + math.sqrt(N) * math.log(N) / N)
    assert s4 <= constants.KAPPA_S34 * (1.0 + math.log(N) / N)


@pytest.mark.parametrize("N", [64, 128])
def test_coulomb_maxima_match_per_point_sums(N):
    # oracle: coulomb_sums at every shell point, one point at a time
    R = float(N)
    pts = place_points(N, R)
    sums = [coulomb_sums(pts, p, 1.0) for p in pts]
    dev1 = max(abs(s[0] - N / R) for s in sums) * R / (math.sqrt(N) * math.log(N))
    max2 = max(s[1] for s in sums) * R * R / (N * math.log(N))
    got1, got2 = coulomb_maxima(N)
    assert got1 == pytest.approx(dev1, rel=1e-12)
    assert got2 == pytest.approx(max2, rel=1e-12)


def test_make_shell_config_values(cfg100):
    # arithmetic from the radius and gluing-length formulas; the worked
    # numbers in the planning notes (173.68) mis-evaluate the same formula
    assert cfg100.R == pytest.approx(100 * (1 + 1.6 * math.log(100)), rel=1e-14)
    assert cfg100.R == pytest.approx(836.8272297580947)
    assert cfg100.L == pytest.approx(1.25)
    assert cfg100.K == 10
    np.testing.assert_allclose(np.linalg.norm(cfg100.points, axis=1), cfg100.R, rtol=1e-13)


def test_shell_invariants(cfg100):
    cfg = cfg100
    dist = pairwise_distances(cfg.points)
    np.fill_diagonal(dist, np.inf)
    assert dist.min() >= cfg.R * math.sin(math.pi / (2 * cfg.K)) * (1 - 1e-12)
    assert 2 * cfg.L < dist.min()
    assert np.all(cfg.residues > 0)


def test_make_shell_config_residues_and_diagnostics(cfg100):
    # one distance matrix serves the separation checks and the residues
    np.testing.assert_allclose(cfg100.residues, residues(place_points(100, cfg100.R)),
                               rtol=1e-14, atol=0)
    diag = cfg100.diagnostics
    assert (diag["min_separation"], diag["r_min"], diag["r_max"]) == (
        258.5938353509599, 0.8825922060064197, 0.9063745860241845)


def test_residue_window_is_saturated_at_desk_scale(cfg100):
    # the asymptotic window r_p ~ m ln(N)/sqrt(N) needs that product << 1;
    # here it is 7.37, so residues saturate near 1 - N/R instead and the
    # honest slack is ~8, far beyond the nominal factor 2
    cfg = cfg100
    target = cfg.diagnostics["residue_target"]
    assert target == pytest.approx(7.3683, abs=1e-3)
    assert 0.85 < cfg.residues.min() < cfg.residues.max() < 0.95
    assert cfg.diagnostics["residue_slack"] > 2.0


def test_small_m_stays_valid_at_desk_scale():
    # the Coulomb budget 1 - N/R cannot be exhausted when R/N = 1 + m ln N/sqrt(N)
    # with m > 1; the residues stay positive even at m = 1.01
    cfg = make_shell_config(100, 1.01)
    assert cfg.residues.min() > 0.3


def test_make_shell_config_rejects_bad_params():
    with pytest.raises(InvalidParameterError):
        make_shell_config(7, 16.0)
    with pytest.raises(InvalidParameterError):
        make_shell_config(100, 1.0)


@pytest.mark.parametrize("N", [100.5, 100.0, True, "100", None])
def test_make_shell_config_rejects_non_integer_charge(N):
    with pytest.raises(InvalidParameterError, match="integer"):
        make_shell_config(N, 16.0)


@pytest.mark.parametrize("m", [math.inf, -math.inf, math.nan, "16", None])
def test_make_shell_config_rejects_non_finite_thickness(m):
    with pytest.raises(InvalidParameterError, match="finite m > 1"):
        make_shell_config(100, m)


def test_make_shell_config_accepts_numpy_integer():
    cfg = make_shell_config(np.int64(100), np.float64(16.0))
    assert type(cfg.N) is int and cfg.N == 100 and len(cfg.points) == 100


@pytest.mark.parametrize("N", [8, 25])
def test_small_N_builds_quietly(N):
    # the regime is read from the diagnostics; construction warns of nothing
    warnings.simplefilter("error")  # pytest restores the filters after each test
    make_shell_config(N, 16.0)


def test_points_csv_roundtrip(cfg100):
    buf = io.StringIO()
    write_points_csv(cfg100, buf)
    text = buf.getvalue()
    lines = text.strip().split("\n")
    assert lines[0] == "index,band,x,y,z,r_p"
    assert len(lines) == 101
    row = lines[1].split(",")
    assert int(row[0]) == 0 and int(row[1]) == 1
    got = np.array([float(v) for v in row[2:5]])
    np.testing.assert_allclose(got, cfg100.points[0], rtol=1e-16)
    # determinism: identical on rewrite
    buf2 = io.StringIO()
    write_points_csv(cfg100, buf2)
    assert buf2.getvalue() == text


@pytest.mark.parametrize("N", [100, 4800])
def test_points_csv_equals_row_by_row_writer(N):
    cfg = make_shell_config(N, 16.0)
    got, want = io.StringIO(), io.StringIO()
    write_points_csv(cfg, got)
    write_points_csv_rows(cfg, want)
    assert got.getvalue() == want.getvalue()


def test_shell_radius_formula():
    assert shell_radius(100, 16.0) == pytest.approx(100 + 160 * math.log(100))
