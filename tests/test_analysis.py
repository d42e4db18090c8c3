import io
import math

import numpy as np
import pytest

from magbag.analysis import (
    SphereQuadrature,
    critical_radii,
    degree_of_map,
    fibonacci_sphere,
    flux_charge,
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
from magbag.monopole import ScaledMonopole, ps_evaluator
from magbag.shell import InvalidParameterError

from oracles import dirac_evaluator

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
    with pytest.raises(InvalidParameterError):
        radial_profile([2.0, 1.0], PS, quad)


@pytest.mark.parametrize("radii", [[1.0, 2.0, math.inf], [1.0, math.nan, 3.0], [math.nan]])
def test_radial_profile_rejects_non_finite_radii(radii):
    with pytest.raises(InvalidParameterError, match="finite"):
        radial_profile(radii, PS, SphereQuadrature(256))


@pytest.mark.parametrize("r", [math.inf, math.nan, 0.0])
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


# --- flux and degree ----------------------------------------------------------

def test_flux_charge_values(cfg100, cfg25):
    quad = SphereQuadrature(16384)
    assert flux_charge(2 * cfg100.R, cfg100, quad) == pytest.approx(100.0, abs=1e-3)
    assert flux_charge(2 * cfg25.R, cfg25, quad) == pytest.approx(25.0, abs=1e-3)
    vals = [flux_charge(s * cfg100.R, cfg100, quad) for s in (1.5, 2.0, 4.0)]
    assert max(vals) - min(vals) < 1e-3
    with pytest.raises(InvalidParameterError):
        flux_charge(0.5 * cfg100.R, cfg100, quad)


def test_flux_charge_single_pole():
    # one unit pole: the exterior potential of a singleton configuration
    from types import SimpleNamespace

    cfg1 = SimpleNamespace(points=np.zeros((1, 3)), R=0.0, L=0.1, N=1)
    quad = SphereQuadrature(4096)
    assert flux_charge(2.0, cfg1, quad) == pytest.approx(1.0, abs=1e-6)


def test_degree_of_map_identity_and_antipodal():
    verts, faces = icosphere(3)
    assert len(faces) == 1280
    assert icosphere(3)[0] is verts and not verts.flags.writeable  # memoised, read-only
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
    rep = theorem_report(cfg100, quad=SphereQuadrature(2048))
    names = {item["check"] for item in rep["items"]}
    assert names == {
        "shell_sphere_mean",
        "interior_max_half_radius",
        "zeros_on_shell_sphere",
        "outer_small_higgs_radius",
    }
    by_name = {item["check"]: item for item in rep["items"]}
    assert by_name["zeros_on_shell_sphere"]["pass"]
    assert by_name["shell_sphere_mean"]["pass"]
    assert by_name["interior_max_half_radius"]["pass"]
    assert by_name["outer_small_higgs_radius"]["pass"]
    assert len(rep["informational_radii"]) == 3
