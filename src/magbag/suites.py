"""Named verification suites with machine-readable results.

Each suite returns a list of {check, value, bound, pass} dicts; the CLI
serializes them.  A suite holds only bound checks: the sweeps it bounds
(`shell.coulomb_maxima`, `glued.annulus_maxima`, `analysis.theorem_report`,
...) live next to the code they measure and are shared with the acceptance
tests and the calibration script; an acceptance criterion that repeats a
suite's measurement reads the suite value.  Bounds come either from exact statements (checked at numerical
tolerance) or from the frozen calibration constants.
"""

import math

import numpy as np

from . import constants, glued
from .analysis import (
    SphereQuadrature,
    critical_radii,
    flux_charge,
    laplacian_identity,
    local_degree,
    ps_energy,
    theorem_report,
)
from .monopole import ScaledMonopole, ps_evaluator
from .operators import (
    adjointness_gap,
    bump_pair,
    deformation_identity,
    fd_curvature,
    flat_bg,
    hash_bilinear,
    weitzenbock_defect,
)
from .shell import coulomb_maxima, coulomb_sums, make_shell_config, place_points
from .su2 import alg_norm, bracket, form_norm, inner, wedge_dual


def _check(name, value, bound, ok=None):
    if ok is None:
        ok = bool(value <= bound)
    return {"check": name, "value": float(value), "bound": float(bound), "pass": bool(ok)}


# ---------------------------------------------------------------------------

def algebra_suite():
    rng = np.random.default_rng(0)
    a, b, c = rng.normal(size=(3, 1000, 3))
    jac = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
    out = [_check("jacobi_identity", np.abs(jac).max(), 1e-12)]
    out.append(
        _check(
            "bracket_norm_bound",
            float(np.max(alg_norm(bracket(a, b)) - alg_norm(a) * alg_norm(b))),
            1e-12,
        )
    )
    out.append(_check("bracket_antisymmetry", np.abs(bracket(a, a)).max(), 0.0))
    out.append(
        _check("ad_invariance", np.abs(inner(a, bracket(a, b))).max(), 1e-12)
    )
    A = rng.normal(size=(1000, 3, 3))
    B = rng.normal(size=(1000, 3, 3))
    out.append(
        _check(
            "wedge_dual_symmetry",
            np.abs(wedge_dual(A, B) - wedge_dual(B, A)).max(),
            1e-12,
        )
    )
    return out


def ps_suite(seed=0):
    rng = np.random.default_rng(seed)
    mono = ScaledMonopole(center=np.zeros(3), scale=1.0)
    ev = ps_evaluator(mono)
    # the first 1000 of 3000 draws in the radius-8 ball (about 1571 fall in it)
    X = rng.uniform(-8, 8, size=(3000, 3))
    X = X[np.linalg.norm(X, axis=1) <= 8.0][:1000]
    cur = fd_curvature(ev, X, h=1e-4)
    rel = form_norm(cur.g) / (1.0 + form_norm(cur.d_phi))
    out = [_check("bogomolny_rel_defect", rel.max(), 1e-6)]
    cur2 = fd_curvature(ev, X, h=5e-5)
    ratio = form_norm(cur.g).max() / form_norm(cur2.g).max()
    out.append(_check("bogomolny_h_ratio", ratio, 4.5, ok=3.5 <= ratio <= 4.5))

    E_F, E_d = ps_energy(r_max=40.0)
    four_pi = 4.0 * math.pi
    out.append(_check("energy_dphi_vs_4pi", abs(E_d - four_pi) / four_pi, 5e-3))
    out.append(_check("energy_F_vs_dphi", abs(E_F - E_d) / four_pi, 5e-3))

    quad = SphereQuadrature(1024)
    for eps in (0.3, 0.5, 0.7):
        _, r_e, rh_e = critical_radii(eps, mono, quad)
        out.append(_check(f"r_eps<{eps}", r_e, 1.0 / (1.0 - eps), ok=r_e < 1.0 / (1.0 - eps)))
        out.append(
            _check(f"rhat_eps<{eps}", rh_e, 1.0 / (1.0 - eps) ** 2, ok=rh_e < 1.0 / (1.0 - eps) ** 2)
        )
        if eps == 0.5:
            out.append(_check("r_half_value", abs(r_e - 1.7966), 0.01))

    defect = laplacian_identity(np.array([1.2, -0.7, 1.5]), ev, h=1e-3)
    out.append(_check("higgs_laplacian_identity", defect, 1e-5))
    return out


def lemma31_suite():
    out = []
    d1 = {}
    d2 = {}
    for N in (64, 128, 256, 512):
        d1[N], d2[N] = coulomb_maxima(N)
        out.append(_check(f"S1_normalized_N{N}", d1[N], constants.KAPPA_S1))
        out.append(_check(f"S2_normalized_N{N}", d2[N], constants.KAPPA_S2))
    for tag, d in (("S1", d1), ("S2", d2)):
        vals = np.array(list(d.values()))
        spread = (vals.max() - vals.min()) / vals.mean()
        out.append(_check(f"{tag}_sweep_stability", spread, 0.6))
    N = 512
    pts = place_points(N, float(N))
    _, _, s3, s4 = coulomb_sums(pts, np.zeros(3), 1.0)
    out.append(
        _check(
            "S3_origin",
            s3,
            N / N + constants.KAPPA_S34 * (1.0 + math.sqrt(N) * math.log(N) / N),
        )
    )
    out.append(
        _check("S4_origin", s4, constants.KAPPA_S34 * (1.0 + math.log(N) / N))
    )
    return out


def lemma32_suite():
    cfg = make_shell_config(100, 16.0)
    rng = np.random.default_rng(0)
    out = []

    # Chart-overlap identity on random points of the matching shell.
    p_idx = int(rng.integers(cfg.N))
    dirs = rng.normal(size=(200, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    rad = rng.uniform(3 * cfg.L / 16, 0.999 * cfg.L, 200)
    X = cfg.points[p_idx] + rad[:, None] * dirs
    _, phi = glued.ball_fields(X, p_idx, cfg)
    n_chart = np.linalg.norm(phi, axis=1)
    n_ext = np.abs(glued.phi_theta(X, cfg))
    out.append(
        _check("chart_overlap_identity", np.max(np.abs(n_chart - n_ext) / n_ext), 1e-12)
    )

    # Residual supported on the cutoff shells only.
    probe = rng.normal(size=(200, 3))
    probe /= np.linalg.norm(probe, axis=1)[:, None]
    inner_pts = cfg.points[p_idx] + (cfg.L / 16) * probe
    gT, gL = glued.residual_fields(inner_pts, p_idx, cfg)
    out.append(_check("residual_zero_inside", form_norm(gT + gL).max(), 0.0))
    outer_pts = cfg.points[p_idx] + rng.uniform(cfg.L / 4, cfg.L, 200)[:, None] * probe
    gT, gL = glued.residual_fields(outer_pts, p_idx, cfg)
    out.append(_check("residual_zero_outside", form_norm(gT + gL).max(), 0.0))

    # Transverse/longitudinal split at support samples.
    pts = glued.annulus_points(cfg, p_idx, 8, 64)
    gT, gL = glued.residual_fields(pts, p_idx, cfg)
    xh = pts - cfg.points[p_idx]
    xh /= np.linalg.norm(xh, axis=1)[:, None]
    live = form_norm(gT) > 0
    long_in_T = np.abs(np.einsum("bk,bmk->bm", xh[live], gT[live])).max()
    out.append(_check("gT_transverse", long_in_T / form_norm(gT[live]).max(), 1e-10))
    comm = bracket(xh[live][:, None, :], gL[live])
    out.append(
        _check(
            "gL_longitudinal",
            np.sqrt(np.sum(comm**2, axis=(1, 2))).max()
            / max(form_norm(gL[live]).max(), 1e-300),
            1e-10,
        )
    )

    # Longitudinal scaling across the charge sweep (frozen constant).
    worst_norm = {}
    for Ns in (64, 128, 256):
        _, _, inner = glued.annulus_maxima(make_shell_config(Ns, 16.0), 8, 64)
        worst_norm[Ns] = float(inner.max()) * Ns / math.log(Ns)
        out.append(
            _check(
                f"longitudinal_scaled_N{Ns}", worst_norm[Ns], constants.C_LONGITUDINAL
            )
        )
    arr = np.array(list(worst_norm.values()))
    out.append(
        _check("longitudinal_sweep_stability", (arr.max() - arr.min()) / arr.mean(), 1.0)
    )
    return out


def theorems_suite():
    cfg = make_shell_config(100, 16.0)
    quad = SphereQuadrature(16384)
    out = []
    for cfg_f in (make_shell_config(25, 16.0), cfg):
        val = flux_charge(2 * cfg_f.R, cfg_f, quad)
        out.append(_check(f"flux_charge_N{cfg_f.N}", abs(val - cfg_f.N), 1e-3))
    # s = 2 is the sphere of flux_charge_N100 just above
    vals = [flux_charge(1.5 * cfg.R, cfg, quad), val, flux_charge(4.0 * cfg.R, cfg, quad)]
    out.append(_check("flux_r_independence", max(vals) - min(vals), 1e-3))
    geometry = theorem_report(cfg)
    scale = cfg.diagnostics["residue_target"]
    for name, bound in (
        ("shell_sphere_mean", constants.C_MEAN_AT_R * scale),
        ("interior_max_half_radius", constants.C_INTERIOR * scale),
        ("zeros_on_shell_sphere", 1e-9 * cfg.R),
        ("outer_small_higgs_radius", cfg.R + 2 * cfg.L),
    ):
        out.append(_check(name, geometry[name], bound))
    return out


def operator_suite(seed=0):
    out = []
    mono = ScaledMonopole(center=np.zeros(3), scale=1.0)
    ps_bg = ps_evaluator(mono)
    x0 = np.array([0.9, -0.4, 0.7])
    bump = bump_pair(x0, 1.5, seed + 1)

    defect = deformation_identity(bump, ps_bg, x0, h=1e-4)
    a0, e0 = bump(x0[None, :])
    scale = float(np.sqrt(np.sum(a0**2) + np.sum(e0**2)))
    out.append(_check("deformation_identity_rel", defect / scale, 1e-6))

    # Weitzenboeck on flat, exact-core, and glued backgrounds: order 2 in h.
    cfg = make_shell_config(100, 16.0)
    p_idx = 11
    x_ann = cfg.points[p_idx] + (0.17 * cfg.L) * np.array([0.6, 0.64, 0.48]) / np.linalg.norm(
        [0.6, 0.64, 0.48]
    )
    backgrounds = [
        ("flat", flat_bg(), x0),
        ("core", ps_bg, x0),
        ("glued", glued.ball_evaluator(cfg, p_idx), x_ann),
    ]
    for name, bg, x in backgrounds:
        u = bump_pair(x, 1.0 if name != "glued" else 0.05 * cfg.L, seed + 2)
        d1 = weitzenbock_defect(u, bg, x, h=2e-4 if name != "glued" else 4e-5)
        d2 = weitzenbock_defect(u, bg, x, h=1e-4 if name != "glued" else 2e-5)
        # exact-at-rounding counts as within the order-2 budget (flat case)
        ratio = 4.0 if max(d1, d2) < 1e-12 else d1 / d2
        out.append(_check(f"weitzenbock_order_{name}", ratio, 5.0, ok=3.0 <= ratio <= 5.0))

    q1 = bump_pair(np.array([0.2, 0.1, -0.3]), 1.2, seed + 3)
    q2 = bump_pair(np.array([-0.3, 0.25, 0.1]), 1.2, seed + 4)
    gap, magnitude = adjointness_gap(q1, q2, flat_bg(), ((-2, 2), (-2, 2), (-2, 2)), n_nodes=48)
    out.append(_check("adjointness_gap_rel", gap / magnitude, 1e-6))

    rng = np.random.default_rng(seed + 5)
    qa = (rng.normal(size=(3, 3)), rng.normal(size=3))
    qb = (rng.normal(size=(3, 3)), rng.normal(size=3))
    h1 = hash_bilinear(qa, qb)
    h2 = hash_bilinear(qb, qa)
    out.append(_check("hash_symmetry", np.abs(h1[0] - h2[0]).max(), 0.0))

    cfg_deg = make_shell_config(25, 16.0)
    total = sum(local_degree(i, cfg_deg) for i in range(cfg_deg.N))
    out.append(_check("local_degree_sum", abs(total - cfg_deg.N), 0.0))
    return out


SUITES = {
    "algebra": algebra_suite,
    "ps": ps_suite,
    "lemma31": lemma31_suite,
    "lemma32": lemma32_suite,
    "theorems": theorems_suite,
    "operator": operator_suite,
}


def run_suite(name):
    """The entries of suite `name`, or of every suite in order for 'all'."""
    names = SUITES if name == "all" else (name,)
    return [entry for key in names for entry in SUITES[key]()]
