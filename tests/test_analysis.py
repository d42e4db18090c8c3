import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magbag import analysis, glued, shell, suites
from magbag.analysis import (
    SphereQuadrature,
    critical_radii,
    degree_of_map,
    fibonacci_sphere,
    flux_charge,
    higgs_floor,
    icosphere,
    laplacian_identity,
    local_degree,
    ps_energy,
    radial_profile,
    sphere_stats,
    theorem_report,
    write_profile_csv,
)
from magbag.glued import higgs_norm
from magbag.monopole import ScaledMonopole, ps_evaluator, ps_higgs_norm
from magbag.shell import InvalidParameterError, make_shell_config

from oracles import critical_radii_full_scan, dirac_evaluator, per_radius_ps_energy

PS = ScaledMonopole(center=np.zeros(3), scale=1.0)


# --- quadrature ---------------------------------------------------------------

def test_fibonacci_weights_and_moments():
    for M in (256, 1024):
        pts = fibonacci_sphere(M)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-13)
        w = 4 * np.pi / M
        # constant integrates exactly; odd zonal moment cancels by symmetry
        assert w * M == pytest.approx(4 * np.pi, rel=1e-15)
        assert abs(w * pts[:, 2].sum()) < 1e-10 * 4 * np.pi


@pytest.mark.parametrize("M", [0, -3, 2.5, True])
def test_quadrature_size_must_be_a_positive_integer(M):
    with pytest.raises(InvalidParameterError, match="integer >= 1"):
        SphereQuadrature(M)


def test_quadrature_accepts_numpy_integers():
    assert SphereQuadrature(np.int64(64)).points.shape == (64, 3)


def test_quadrature_points_are_built_once_and_read_only():
    quad = SphereQuadrature(512)
    assert quad.points is quad.points and not quad.points.flags.writeable
    assert np.array_equal(quad.points, fibonacci_sphere(512))
    assert quad == SphereQuadrature(512) and hash(quad) == hash(SphereQuadrature(512))


def test_quadrature_dipole_on_sphere():
    quad = SphereQuadrature(4096)
    r = 3.0
    vals = (r * quad.points)[:, 2] / r
    assert abs(quad.weight * r * r * vals.sum()) < 1e-10 * 4 * np.pi * r * r


# --- sphere stats -------------------------------------------------------------

def test_sphere_stats_core_radial():
    quad = SphereQuadrature(512)
    lo, mean, hi = sphere_stats(2.0, PS, quad)
    want = 1.0 / math.tanh(2.0) - 0.5
    assert lo == pytest.approx(want, abs=1e-12)
    assert mean == pytest.approx(want, abs=1e-12)
    assert hi == pytest.approx(want, abs=1e-12)


def test_sphere_stats_glued_far_field(cfg100):
    quad = SphereQuadrature(2048)
    r = 10 * cfg100.R
    _, mean, _ = sphere_stats(r, cfg100, quad)
    assert mean == pytest.approx(1 - 100 / r, rel=0.02)


def test_radial_profile_monotone_radii(cfg100):
    quad = SphereQuadrature(256)
    rows = radial_profile([1.0, 2.0, 3.0], PS, quad)
    assert [r[0] for r in rows] == [1.0, 2.0, 3.0]
    for _, lo, mean, hi in rows:
        # radial field: equal up to the rounding of the float mean
        assert lo <= mean + 1e-14 and mean <= hi + 1e-14
    with pytest.raises(InvalidParameterError, match="increasing"):
        radial_profile([2.0, 1.0], PS, quad)
    for radii in ([-2.0, 0.0, 1.0], [0.0, 1.0], [-1.0]):
        with pytest.raises(InvalidParameterError, match="positive"):
            radial_profile(radii, PS, quad)


@pytest.mark.parametrize("radii", [2.0, [[1.0, 2.0]]])
def test_radial_profile_rejects_radii_not_one_dimensional(radii):
    with pytest.raises(InvalidParameterError, match="radii must be a 1-D sequence"):
        radial_profile(radii, PS, SphereQuadrature(256))


@pytest.mark.parametrize("radii", [[1.0, 2.0, math.inf], [1.0, math.nan, 3.0], [math.nan]])
def test_radial_profile_rejects_non_finite_radii(radii):
    with pytest.raises(InvalidParameterError, match="finite"):
        radial_profile(radii, PS, SphereQuadrature(256))


@pytest.mark.parametrize("r", [math.inf, math.nan, 0.0, -1.0])
def test_sphere_stats_rejects_bad_radius(r):
    with pytest.raises(InvalidParameterError):
        sphere_stats(r, PS, SphereQuadrature(256))


def test_radial_profile_glued_matches_pointwise(cfg100):
    # the profile reads its spheres from one direction table per call
    quad = SphereQuadrature(1024)
    radii = cfg100.R * np.array([0.5, 1.0, 1.5])
    for (r, lo, mean, hi), rr in zip(radial_profile(radii, cfg100, quad), radii):
        vals = higgs_norm(rr * quad.points, cfg100)
        assert r == rr
        np.testing.assert_allclose([lo, mean, hi], [vals.min(), vals.mean(), vals.max()],
                                   rtol=0, atol=1e-12)


def test_profile_csv():
    rows = [(1.0, 0.1, 0.2, 0.3), (2.0, 0.4, 0.5, 0.6)]
    buf = io.StringIO()
    write_profile_csv(rows, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "radius,min_phi,mean_phi,max_phi"
    assert len(lines) == 3


# --- critical radii -----------------------------------------------------------

def test_critical_radii_core():
    quad = SphereQuadrature(512)
    for eps in (0.3, 0.5, 0.7):
        R_e, r_e, rh_e = critical_radii(eps, PS, quad)
        # radial norm: all three estimates coincide
        assert R_e == pytest.approx(r_e, abs=2e-3)
        assert rh_e == pytest.approx(r_e, abs=2e-3)
        assert r_e < 1.0 / (1.0 - eps)
        assert rh_e < 1.0 / (1.0 - eps) ** 2
    _, r_half, _ = critical_radii(0.5, PS, quad)
    assert r_half == pytest.approx(1.7966, abs=0.01)


def test_critical_radii_monotone_in_eps():
    quad = SphereQuadrature(256)
    rs = [critical_radii(e, PS, quad)[1] for e in (0.2, 0.4, 0.6)]
    assert rs[0] < rs[1] < rs[2]


def test_critical_radii_small_eps_shrinks():
    quad = SphereQuadrature(256)
    _, r_e, _ = critical_radii(0.01, PS, quad, r_max=10.0)
    assert r_e < 0.05


def test_critical_radii_rejects_bad_eps():
    with pytest.raises(InvalidParameterError):
        critical_radii(1.5, PS, SphereQuadrature(256))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"r_max": 0.0},
        {"r_max": -math.inf},
        {"r_max": -5.0},
        {"r_max": math.inf},
        {"r_max": math.nan},
        {"r_max": True},
        {"n_scan": 0},
        {"n_scan": 1},
        {"n_scan": 2.5},
    ],
)
def test_critical_radii_rejects_bad_scan(kwargs):
    with pytest.raises(InvalidParameterError):
        critical_radii(0.5, PS, SphereQuadrature(64), **kwargs)


@pytest.mark.parametrize("r_max, resolution", [(10.0, 1e-3), (40.0, 1e-3), (400.0, 1e-2)])
def test_critical_radii_bisects_to_the_scan_resolution(r_max, resolution, monkeypatch):
    # the bisection resolution follows r_max: 1e-3 max(1, r_max / 40)
    seen = []
    bisect = analysis._bisect
    monkeypatch.setattr(analysis, "_bisect", lambda *args: seen.append(args[3]) or bisect(*args))
    critical_radii(0.5, PS, SphereQuadrature(64), r_max=r_max)
    assert seen and all(res == resolution for res in seen)


CORES = [
    ScaledMonopole(center=np.array([0.3, -1.2, 0.7]), scale=1.7),
    ScaledMonopole(center=np.array([2.0, 0.0, 0.0]), scale=0.5),
    ScaledMonopole(center=np.array([0.0, 0.0, 0.05]), scale=2.0),
]


@pytest.mark.parametrize(
    "m, N", [(m, N) for N in (32, 100, 256) for m in (2.0, 16.0)] + [(2.0, 1600)]
)
def test_critical_radii_glued_equal_full_scan(m, N):
    cfg = make_shell_config(N, m)
    quad = SphereQuadrature(128)
    for eps in (0.05, 0.5, 0.8):
        assert critical_radii(eps, cfg, quad) == critical_radii_full_scan(eps, cfg, quad)


@pytest.mark.parametrize("mono", CORES)
def test_critical_radii_off_centre_cores_equal_full_scan(mono):
    quad = SphereQuadrature(128)
    for eps in (0.01, 0.3, 0.5, 0.9):
        for kwargs in ({}, {"r_max": 1.0, "n_scan": 50}):
            got = critical_radii(eps, mono, quad, **kwargs)
            assert got == critical_radii_full_scan(eps, mono, quad, **kwargs)


@pytest.mark.parametrize(
    "field, eps, kwargs, branch",
    [
        # no sphere minimum reaches eps: R_eps = 0.0
        (CORES[2], 0.01, {}, lambda R, r, rh, grid: R == 0.0),
        (make_shell_config(100, 16.0), 0.5, {}, lambda R, r, rh, grid: R == 0.0),
        # the minimum still dips to eps on the outermost sphere
        (PS, 0.5, {"r_max": 1.0}, lambda R, r, rh, grid: R == grid[-1] == r == rh),
        # the max and the mean reach eps on the first sphere
        (make_shell_config(100, 16.0), 0.5, {}, lambda R, r, rh, grid: r == rh == grid[0]),
        # the max and the mean never reach eps
        (CORES[1], 0.5, {}, lambda R, r, rh, grid: r == rh == grid[-1]),
        # a minimum crossing bisected inside the window
        (make_shell_config(100, 16.0), 0.8, {}, lambda R, r, rh, grid: grid[0] < R < grid[-1]),
    ],
)
def test_critical_radii_branches_equal_full_scan(field, eps, kwargs, branch):
    quad = SphereQuadrature(256)
    got = critical_radii(eps, field, quad, **kwargs)
    assert got == critical_radii_full_scan(eps, field, quad, **kwargs)
    r_max = kwargs.get("r_max", 40.0 if isinstance(field, ScaledMonopole) else 4.0 * field.R)
    assert branch(*got, np.linspace(r_max / 400, r_max, 400))


# Glued pairs after the original six fields, so that their case ids stay.
BOUNDED_FIELDS = [make_shell_config(32, 2.0), make_shell_config(100, 16.0), PS] + CORES + [
    make_shell_config(256, 16.0), make_shell_config(1600, 2.0)
]


def _bound_test_sphere(field):
    """The sphere function of `field` over 512 lattice directions and, for a
    glued pair, the directions of its first 64 shell points, where the
    nearest source term attains its bound 1 / delta."""
    dirs = SphereQuadrature(512).points
    if not isinstance(field, ScaledMonopole):
        through = field.points[:64]
        dirs = np.vstack([dirs, through / np.linalg.norm(through, axis=1)[:, None]])
    return glued.sphere_higgs_norm(dirs, field)


def _glued_radii(cfg, rng):
    """200 radii across the scan window and four just clear of the balls."""
    clear = cfg.R + cfg.L * np.array([-2.0, -(1 + 1e-12), 1 + 1e-12, 2.0])
    return np.concatenate([rng.uniform(0.01, 4.0 * cfg.R, 200), clear])


@pytest.mark.parametrize("field", BOUNDED_FIELDS)
def test_sphere_floor_bounds_the_sampled_minimum(field):
    sphere = _bound_test_sphere(field)
    bounds = analysis._sphere_bounds(field)
    rng = np.random.default_rng(3)
    if isinstance(field, ScaledMonopole):
        cn = np.linalg.norm(field.center)
        radii = np.concatenate([rng.uniform(0.01, 40.0, 200), cn + rng.uniform(-1e-3, 1e-3, 20)])
        band = []
    else:
        radii = _glued_radii(field, rng)
        band = field.R + field.L * rng.uniform(-0.999, 0.999, 20)  # samples in a ball
    for r in np.concatenate([radii, band]):
        assert bounds(r)[0] <= sphere(r).min()
    assert all(bounds(r)[0] == -np.inf for r in band)
    # the floor is not vacuous on most of the scan window
    assert sum(bounds(r)[0] > 0 for r in radii) > 100


@pytest.mark.parametrize("N, m", [(32, 2.0), (100, 16.0), (256, 16.0)])
def test_radial_gap_equals_min_over_every_point(N, m):
    cfg = make_shell_config(N, m)
    pn = np.linalg.norm(cfg.points, axis=1)
    gap, radii_sorted = glued._radial_gap(pn)
    radii = np.concatenate([np.random.default_rng(5).uniform(0.0, 2.0 * cfg.R, 300), pn,
                            np.nextafter(pn, 0.0), np.nextafter(pn, np.inf)])
    want = np.array([np.min(np.abs(r - pn)) for r in radii])
    assert np.array_equal(gap(radii), want)
    assert np.array_equal(radii_sorted, np.sort(pn))


@pytest.mark.parametrize("field", BOUNDED_FIELDS)
def test_sphere_ceiling_bounds_the_sampled_maximum(field):
    sphere = _bound_test_sphere(field)
    bounds = analysis._sphere_bounds(field)
    rng = np.random.default_rng(4)
    if isinstance(field, ScaledMonopole):
        radii = rng.uniform(0.01, 40.0, 200)
        band = []
        top = field.scale  # the sup of |Phi|
    else:
        radii = _glued_radii(field, rng)
        band = field.R + field.L * rng.uniform(-0.999, 0.999, 20)  # samples in a ball
        top = 1.0  # the limit of |Phi| at infinity
    for r in np.concatenate([radii, band]):
        assert sphere(r).max() <= bounds(r)[1]
    assert all(bounds(r)[1] == np.inf for r in band)
    # the ceiling is not vacuous on most of the scan window
    assert sum(bounds(r)[1] < top for r in radii) > 100


@pytest.mark.parametrize("N, m", [(32, 2.0), (100, 16.0), (256, 16.0), (1600, 2.0)])
def test_sphere_bounds_are_no_looser_than_the_coulomb_bounds(N, m):
    # the packing sum S+ never exceeds the Coulomb sum N / delta, so the
    # floor and the ceiling built on it are never looser
    cfg = make_shell_config(N, m)
    radii = np.linspace(4.0 * cfg.R / 2000, 4.0 * cfg.R, 2000)
    floor, ceiling = analysis._sphere_bounds(cfg)(radii)
    gap, pn = glued._radial_gap(np.linalg.norm(cfg.points, axis=1))
    delta = gap(radii)
    lo, hi = 1.0 - analysis._FLOOR_SLACK, 1.0 + analysis._FLOOR_SLACK
    with np.errstate(divide="ignore"):
        coulomb = cfg.N / delta
    inside = delta < cfg.L
    assert np.all(floor >= np.where(inside, -np.inf, 1.0 - coulomb * hi))
    old_ceiling = np.maximum(1.0 - cfg.N / (radii + pn[-1]) * lo, coulomb * hi - 1.0)
    assert np.all(ceiling <= np.where(inside, np.inf, old_ceiling))


def test_sphere_bounds_memory_is_bounded():
    cfg = make_shell_config(4800, 16.0)
    radii = np.linspace(4.0 * cfg.R / 400, 4.0 * cfg.R, 400)
    tracemalloc.start()
    try:
        analysis._sphere_bounds(cfg)(radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (400, N) table of the packing sums would take 15 MB
    assert peak < 2e6


def _counted_critical_radii(monkeypatch, *args):
    """critical_radii(*args) and the radii of the spheres it evaluated."""
    calls = []
    sphere_fn = glued.sphere_higgs_norm

    def counted(dirs, field):
        sphere = sphere_fn(dirs, field)
        return lambda r: calls.append(r) or sphere(r)

    monkeypatch.setattr(glued, "sphere_higgs_norm", counted)
    got = critical_radii(*args)
    monkeypatch.undo()
    return got, calls


@pytest.mark.parametrize("N, m, full_walk", [(100, 2.0, 400), (256, 16.0, 418)])
def test_critical_radii_ceiling_skips_spheres(N, m, full_walk, monkeypatch):
    # eps near 1: the max first reaches eps far out, and every sphere before
    # that used to be evaluated (full_walk evaluations with the bisections)
    cfg = make_shell_config(N, m)
    quad = SphereQuadrature(256)
    got, calls = _counted_critical_radii(monkeypatch, 0.95, cfg, quad)
    assert len(calls) < full_walk
    assert got == critical_radii_full_scan(0.95, cfg, quad)


def test_critical_radii_evaluates_few_spheres(cfg100, monkeypatch):
    # a scan of every sphere evaluates all 400 of them, then bisects; the
    # Coulomb bounds N / delta alone leave 48 of them undecided
    _, calls = _counted_critical_radii(monkeypatch, 0.5, cfg100, SphereQuadrature(1024))
    assert 0 < len(calls) <= 4


def test_critical_radii_evaluates_few_spheres_at_large_charge(monkeypatch):
    # the Coulomb bounds N / delta alone leave 102 spheres undecided here
    cfg = make_shell_config(1600, 16.0)
    _, calls = _counted_critical_radii(monkeypatch, 0.5, cfg, SphereQuadrature(2048))
    assert 0 < len(calls) <= 4


def test_core_sphere_off_centre_matches_pointwise():
    # the off-centre core sphere comes from the direction table identity
    mono = ScaledMonopole(center=np.array([0.3, -1.2, 0.7]), scale=1.7)
    quad = SphereQuadrature(512)
    for r, (_, lo, mean, hi) in zip((0.4, 1.0, 1.5, 6.0), radial_profile([0.4, 1.0, 1.5, 6.0], mono, quad)):
        vals = ps_higgs_norm(np.linalg.norm(r * quad.points - mono.center, axis=1), mono.scale)
        np.testing.assert_allclose([lo, mean, hi], [vals.min(), vals.mean(), vals.max()],
                                   rtol=2e-15, atol=0)


def test_core_sphere_rows_cross_blocks(monkeypatch):
    # the exact-core sphere in row blocks equals one block bit for bit and
    # the pointwise |Phi|
    mono = ScaledMonopole(center=np.array([0.3, -1.2, 0.7]), scale=1.7)
    dirs = fibonacci_sphere(500)
    radii = (0.4, 1.0, np.linalg.norm(mono.center), 1.5, 6.0)
    one_block = glued.sphere_higgs_norm(dirs, mono)
    want = [one_block(r) for r in radii]
    monkeypatch.setattr(shell, "_BLOCK_ELEMENTS", 140)  # one source: rows 140, 140, 140, 80
    blocked = glued.sphere_higgs_norm(dirs, mono)
    for r, one in zip(radii, want):
        got = blocked(r)
        assert np.array_equal(got, one)
        vals = ps_higgs_norm(np.linalg.norm(r * dirs - mono.center, axis=1), mono.scale)
        np.testing.assert_allclose(got, vals, rtol=4e-15, atol=0)


# --- flux and degree ----------------------------------------------------------

def test_flux_charge_values(cfg100, cfg25):
    quad = SphereQuadrature(16384)
    assert flux_charge(2 * cfg100.R, cfg100, quad) == pytest.approx(100.0, abs=1e-3)
    assert flux_charge(2 * cfg25.R, cfg25, quad) == pytest.approx(25.0, abs=1e-3)
    vals = [flux_charge(s * cfg100.R, cfg100, quad) for s in (1.5, 2.0, 4.0)]
    assert max(vals) - min(vals) < 1e-3
    # to the bit, pinning the flux density grad phi_theta(r u) . u and its sum
    assert [v.hex() for v in (flux_charge(2 * cfg25.R, cfg25, quad), *vals)] == [
        "0x1.9000009610a6ep+4", "0x1.900000d26e7c4p+6", "0x1.9000006d7d5dcp+6",
        "0x1.9000001d570aap+6"]
    with pytest.raises(InvalidParameterError):
        flux_charge(0.5 * cfg100.R, cfg100, quad)


@given(st.integers(min_value=8, max_value=600), st.floats(min_value=1.5, max_value=256.0))
@settings(max_examples=10, deadline=None)
def test_flux_quantisation_at_any_charge(N, m):
    cfg = make_shell_config(N, m)
    assert flux_charge(2 * cfg.R, cfg, SphereQuadrature(16384)) == pytest.approx(N, abs=1e-4)


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_flux_charge_rejects_non_finite_radius(cfg25, r):
    with pytest.raises(InvalidParameterError, match="finite"):
        flux_charge(r, cfg25, SphereQuadrature(64))


def test_flux_charge_rejects_non_scalar_radius(cfg25):
    with pytest.raises(InvalidParameterError, match="scalar"):
        flux_charge(np.array([3.0, 4.0]) * cfg25.R, cfg25, SphereQuadrature(64))


def test_flux_charge_single_pole():
    # one unit pole: the exterior potential of a singleton configuration
    from types import SimpleNamespace

    cfg1 = SimpleNamespace(points=np.zeros((1, 3)), R=0.0, L=0.1, N=1)
    quad = SphereQuadrature(4096)
    assert flux_charge(2.0, cfg1, quad) == pytest.approx(1.0, abs=1e-6)


def test_flux_charge_memory_is_bounded():
    cfg = make_shell_config(100, 16.0)
    tracemalloc.start()
    try:
        flux_charge(2 * cfg.R, cfg, SphereQuadrature(16384))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 16384 sphere points, their gradients and two row-block buffers of
    # 512 kB; one whole (16384, 100) table alone would take 13.1 MB
    assert peak <= 4e6


def test_theorems_suite_takes_each_flux_once(monkeypatch):
    # flux_charge_N100's sphere, s = 2, is also flux_r_independence's
    calls = []

    def counted(r, cfg, quad):
        calls.append((r, cfg.N))
        return flux_charge(r, cfg, quad)

    monkeypatch.setattr(suites, "flux_charge", counted)
    suites.theorems_suite()
    assert len(calls) == 4 and len(set(calls)) == 4


def test_degree_of_map_identity_and_antipodal():
    verts, faces = icosphere()
    assert len(faces) == 1280
    assert icosphere()[0] is verts and not verts.flags.writeable  # memoised, read-only
    assert degree_of_map(verts, faces) == pytest.approx(1.0, abs=1e-9)
    assert degree_of_map(-verts, faces) == pytest.approx(-1.0, abs=1e-9)


def test_local_degree_and_sum(cfg25):
    degs = [local_degree(i, cfg25) for i in range(cfg25.N)]
    assert all(d == 1 for d in degs)
    assert sum(degs) == 25


# --- energy and the norm-squared identity --------------------------------------

def test_ps_energy():
    E_F, E_d = ps_energy(r_max=40.0)
    four_pi = 4 * math.pi
    assert abs(E_d - four_pi) / four_pi < 5e-3
    assert abs(E_F - E_d) / four_pi < 5e-3
    with pytest.raises(InvalidParameterError):
        ps_energy(r_max=10.0)


def test_ps_energy_equals_one_call_per_radius():
    # 16 radii per fd_curvature call, summed one at a time in the same order
    assert ps_energy() == per_radius_ps_energy()


@pytest.mark.parametrize("n_radial", [True, 2.5, 0])
def test_ps_energy_rejects_bad_radial_count(n_radial):
    with pytest.raises(InvalidParameterError, match="n_radial"):
        ps_energy(n_radial=n_radial)


@pytest.mark.parametrize("r_max", [math.nan, math.inf])
def test_ps_energy_rejects_non_finite_r_max(r_max):
    with pytest.raises(InvalidParameterError, match="finite"):
        ps_energy(r_max=r_max)


def test_ps_energy_tail_bound():
    # the |x| > 40 contribution is the abelian 4 pi / r tail to high accuracy
    E_F40, _ = ps_energy(r_max=40.0)
    E_F80, _ = ps_energy(r_max=80.0, n_radial=128)
    tail_40_80 = 4 * np.pi / 40 - 4 * np.pi / 80
    measured = E_F80 - (E_F40 - 4 * np.pi / 40) - 4 * np.pi / 80
    assert abs(measured - tail_40_80) < 1e-4


def test_laplacian_identity_core():
    ev = ps_evaluator(PS)
    d = laplacian_identity(np.array([0.8, -1.2, 1.4]), ev, h=1e-3)  # |x| = 2
    assert d < 1e-5
    d1 = laplacian_identity(np.array([0.8, -1.2, 1.4]), ev, h=2e-3)
    assert d1 / d == pytest.approx(4.0, abs=0.5)


def test_laplacian_identity_abelian():
    p = np.array([0.1, 0.0, -0.2])
    ev = dirac_evaluator(p, 1.0)
    d = laplacian_identity(p + np.array([3.0, 0, 0]), ev, h=1e-3)
    assert d < 1e-5


# `ps_suite(seed=0)` values, to the bit: they pin `ps_energy`'s fixed sphere
# rule and step, the Laplacian stencil and the core's critical radii
PS_SUITE_SEED0 = {
    "bogomolny_rel_defect": "0x1.d8393496a2c64p-33",
    "bogomolny_h_ratio": "0x1.f04e7556c05cap+1",
    "energy_dphi_vs_4pi": "0x1.1b819931d0630p-32",
    "energy_F_vs_dphi": "0x1.fdd9f95f5b2b3p-32",
    "r_eps<0.3": "0x1.e833333333333p-1",
    "rhat_eps<0.3": "0x1.e833333333333p-1",
    "r_eps<0.5": "0x1.cbe6666666666p+0",
    "rhat_eps<0.5": "0x1.cbe6666666666p+0",
    "r_half_value": "0x1.e4f765fd8c000p-14",
    "r_eps<0.7": "0x1.a6d9999999999p+1",
    "rhat_eps<0.7": "0x1.a6d9999999999p+1",
    "higgs_laplacian_identity": "0x1.697f966000000p-27",
}


def test_ps_suite_values_are_pinned():
    from magbag.suites import ps_suite

    got = {e["check"]: e["value"] for e in ps_suite(seed=0)}
    assert got == {k: float.fromhex(v) for k, v in PS_SUITE_SEED0.items()}


# --- report --------------------------------------------------------------------

def test_bag_profile_shape(cfg100):
    # interior mean below exterior mean; the exterior mean equals the
    # harmonic mean-value oracle 1 - N/r exactly
    quad = SphereQuadrature(2048)
    _, mean_half, _ = sphere_stats(cfg100.R / 2, cfg100, quad)
    _, mean_two, _ = sphere_stats(2 * cfg100.R, cfg100, quad)
    assert mean_half < mean_two
    assert mean_two == pytest.approx(1 - 100 / (2 * cfg100.R), rel=1e-4)


def test_theorem_report(cfg100):
    rep = theorem_report(cfg100)
    assert set(rep) == {
        "shell_sphere_mean",
        "interior_max_half_radius",
        "zeros_on_shell_sphere",
        "outer_small_higgs_radius",
    }
    # one 4096-direction evaluator gives bitwise the per-sphere statistics
    quad = SphereQuadrature(4096)
    assert rep["shell_sphere_mean"] == sphere_stats(cfg100.R, cfg100, quad)[1]
    assert rep["interior_max_half_radius"] == max(
        sphere_stats(f * cfg100.R, cfg100, quad)[2] for f in (0.1, 0.25, 0.5)
    )
    assert rep["zeros_on_shell_sphere"] <= 1e-9 * cfg100.R
    # no sampled sphere minimum dips below half the floor at this charge
    assert rep["outer_small_higgs_radius"] == 0.0
    assert {k: v.hex() for k, v in rep.items()} == {
        "shell_sphere_mean": "0x1.c2d13a3f46648p-1",
        "interior_max_half_radius": "0x1.c87af81fb4a5cp-1",
        "zeros_on_shell_sphere": "0x1.0000000000000p-43",
        "outer_small_higgs_radius": "0x0.0p+0",
    }


@pytest.mark.parametrize("N, m, want", [(256, 16.0, "0x1.688131f42532cp-2"),
                                        (1600, 2.0, "0x1.e6357e7751764p-3")])
def test_higgs_floor_pins(N, m, want):
    # (100, 16) is pinned by test_higgs_floor_value
    assert higgs_floor(make_shell_config(N, m)).hex() == want


def test_higgs_floor_value(cfg100, monkeypatch):
    assert higgs_floor(cfg100) == 0.08250524421097039
    # 100-row blocks straddle each point's 256 sphere rows
    monkeypatch.setattr(shell, "_BLOCK_ELEMENTS", 100 * 100)
    assert higgs_floor(cfg100) == 0.08250524421097039


def test_higgs_floor_forms_no_ball_chart(cfg100, monkeypatch):
    # every row it keeps is clear of the balls, where |Phi| = |phi_theta|:
    # the same floor, with the ball-chart reduction never called
    def refuse(*args):
        raise AssertionError("ball chart formed")

    monkeypatch.setattr(glued, "_higgs_from_distances", refuse)
    assert higgs_floor(cfg100).hex() == (0.08250524421097039).hex()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_block_parallel_sweeps_equal_the_serial_ones(workers, cfg100, monkeypatch):
    # 50-row blocks (five or more per table) dealt to 1, 2 or 3 parts give
    # the serial one-part profile and floor bit for bit
    radii = cfg100.R * np.array([0.5, 1.0, 1.01, 1.5, 2.0])
    quad = SphereQuadrature(500)
    monkeypatch.setattr(shell, "_WORKERS", 1)
    want = radial_profile(radii, cfg100, quad), higgs_floor(cfg100)
    monkeypatch.setattr(shell, "_BLOCK_ELEMENTS", 50 * 100)
    monkeypatch.setattr(shell, "_WORKERS", workers)
    profile, floor = radial_profile(radii, cfg100, quad), higgs_floor(cfg100)
    assert np.array_equal(profile, want[0]) and floor == want[1]
