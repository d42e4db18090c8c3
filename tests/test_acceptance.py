"""Acceptance gate: one test per numbered criterion, one printed verdict line each.

A criterion that repeats a verification suite's measurement reads the suite
value, each (suite, arguments) pair run once per module, and adds only its
stated bounds: 01 and 11 read `ps_suite(seed=11)`, 03 and 10 (b, c)
`theorems_suite()` (03 measures its own N = 1 case, which no suite covers),
06 `lemma31_suite()`, 07 `lemma32_suite()` and 12 `operator_suite(seed=20)`.
Two keep their own measurement: 02 prints the raw energy E_d, which
`ps_suite` reports only as a relative error, and 04 samples 4 balls x 50
points at seed 12, where `lemma32_suite` samples one ball x 200 at seed 0.
10 (a) bounds `analysis.higgs_floor`, which no suite bounds.

Nine criteria pass at their stated tolerances.  Three (08, 09 and 10) probe
asymptotic bounds that measurably fail at this charge scale (the gluing
scale satisfies r_p L ~ 1 instead of >> 1, so the Higgs norm vanishes on the
residual support shell and several scalings sit in a different regime).
Those tests assert the stated bounds anyway and fail honestly, printing the
measured values; the decisions ledger carries the analysis.

Criterion 05 checks the closed-form residual against a finite-difference
oracle: the Richardson combination (4 g(h/2) - g(h)) / 3 of the second-order
stencil at h = 1e-4 and h/2, which cancels the stencil's h^2 error and leaves
O(h^4) truncation.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from magbag import constants, glued, suites
from magbag.analysis import (
    SphereQuadrature,
    flux_charge,
    higgs_floor,
    ps_energy,
    sphere_stats,
)
from magbag.operators import fd_curvature
from magbag.su2 import form_norm
from magbag.suites import _shell


def _verdict(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def _suite_values(suite, **kwargs):
    """{check: value} of a verification suite; the test applies its own bounds."""
    checks = suite(**kwargs)
    names = [c["check"] for c in checks]
    assert len(set(names)) == len(names), f"{suite.__name__} repeats a check name"
    return {c["check"]: c["value"] for c in checks}


@pytest.fixture(scope="module")
def shells():
    return {
        (100, 16): _shell(100, 16.0),
        (64, 16): _shell(64, 16.0),
        (256, 16): _shell(256, 16.0),
        (100, 81): _shell(100, 81.0),
        (100, 256): _shell(100, 256.0),
    }


@pytest.fixture(scope="module")
def ps_checks():
    """ps_suite at seed 11 (3000 draws, 1000 points) and the wall time of the call."""
    t0 = time.time()
    checks = _suite_values(suites.ps_suite, seed=11)
    return checks, time.time() - t0


@pytest.fixture(scope="module")
def theorem_checks():
    return _suite_values(suites.theorems_suite)


def test_criterion_01_core_bogomolny_residual(ps_checks):
    checks, elapsed = ps_checks
    rel = checks["bogomolny_rel_defect"]
    ratio = checks["bogomolny_h_ratio"]
    ok = rel <= 1e-6 and 3.5 <= ratio <= 4.5 and elapsed < 10.0
    _verdict(1, ok, f"max rel defect {rel:.2e} (<=1e-6), h-ratio {ratio:.2f}, {elapsed:.1f}s")
    assert rel <= 1e-6
    assert 3.5 <= ratio <= 4.5
    assert elapsed < 10.0


def test_criterion_02_core_energy():
    t0 = time.time()
    E_F, E_d = ps_energy(r_max=40.0)
    four_pi = 4 * math.pi
    err_d = abs(E_d - four_pi) / four_pi
    err_fd = abs(E_F - E_d) / four_pi
    elapsed = time.time() - t0
    ok = err_d <= 5e-3 and err_fd <= 5e-3 and elapsed < 60.0
    _verdict(2, ok, f"energy {E_d:.6f} vs 4pi (rel {err_d:.1e}), F-match {err_fd:.1e}, {elapsed:.1f}s")
    assert err_d <= 5e-3 and err_fd <= 5e-3
    assert elapsed < 60.0


def test_criterion_03_flux_quantization(theorem_checks):
    one = SimpleNamespace(points=np.zeros((1, 3)), R=1.0, L=0.1, N=1)
    errs = {1: abs(flux_charge(2.0, one, SphereQuadrature(16384)) - 1.0)}
    errs.update({N: theorem_checks[f"flux_charge_N{N}"] for N in (25, 100)})
    spread = theorem_checks["flux_r_independence"]
    ok = all(e <= 1e-3 for e in errs.values()) and spread <= 1e-3
    _verdict(3, ok, f"charge errors {({k: f'{v:.1e}' for k, v in errs.items()})}, r-spread {spread:.1e}")
    assert all(e <= 1e-3 for e in errs.values())
    assert spread <= 1e-3


def test_criterion_04_chart_overlap(shells):
    cfg = shells[(100, 16)]
    rng = np.random.default_rng(12)
    worst = 0.0
    for p_idx in rng.choice(cfg.N, size=4, replace=False):
        dirs = rng.normal(size=(50, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        rads = rng.uniform(3 * cfg.L / 16, 0.999 * cfg.L, 50)
        X = cfg.points[p_idx] + rads[:, None] * dirs
        _, phi = glued.ball_fields(X, int(p_idx), cfg)
        n_chart = np.linalg.norm(phi, axis=1)
        n_ext = np.abs(glued.phi_theta(X, cfg))
        worst = max(worst, float(np.max(np.abs(n_chart - n_ext) / n_ext)))
    ok = worst <= 1e-12
    _verdict(4, ok, f"max relative overlap mismatch {worst:.2e} over 200 points (<=1e-12)")
    assert worst <= 1e-12


def test_criterion_05_residual_formula_cross_check(shells):
    # The cutoff varies on the scale L/32 ~ 0.04, so the second-order
    # stencil alone is off by ~2e-3 at h = 1e-4.  Its h^2 error term is
    # removed by Richardson extrapolation from h and h/2, leaving O(h^4)
    # truncation well below the 1e-6 bound.  The same-set h-halving ratio
    # of the plain stencil checks that what was removed is O(h^2).
    cfg = shells[(100, 16)]
    rng = np.random.default_rng(13)
    h = 1e-4
    worst = 0.0
    worst_plain = 0.0
    worst_half = 0.0

    def rel_mismatch(g, g_ex):
        return float((form_norm(g - g_ex) / (1.0 + form_norm(g))).max())

    for p_idx in range(cfg.N):
        dirs = rng.normal(size=(500, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        rads = rng.uniform(cfg.L / 8, cfg.L / 4, 500)
        X = cfg.points[p_idx] + rads[:, None] * dirs
        gT, gL = glued.residual_fields(X, p_idx, cfg)
        g_ex = gT + gL
        ev = glued.ball_evaluator(cfg, p_idx)
        g_h = fd_curvature(ev, X, h=h).g
        g_h2 = fd_curvature(ev, X, h=h / 2).g
        worst = max(worst, rel_mismatch((4.0 * g_h2 - g_h) / 3.0, g_ex))
        worst_plain = max(worst_plain, rel_mismatch(g_h, g_ex))
        worst_half = max(worst_half, rel_mismatch(g_h2, g_ex))
    ratio = worst_plain / worst_half
    ok = worst <= 1e-6 and 3.5 <= ratio <= 4.5
    _verdict(
        5,
        ok,
        f"max rel mismatch {worst:.2e} for the Richardson oracle from h=1e-4 and 5e-5 "
        f"(stated bound 1e-6), {worst_plain:.2e} for plain h=1e-4; "
        f"h-halving ratio {ratio:.3f} (3.5..4.5)",
    )
    assert worst <= 1e-6, (
        f"explicit residual differs from the extrapolated fd oracle by {worst:.3e}, "
        "above the stated 1e-6"
    )
    assert 3.5 <= ratio <= 4.5, (
        f"plain fd mismatch shrinks by {ratio:.3f} per h-halving, not ~4, so the part "
        "removed by extrapolation is not O(h^2) truncation"
    )


def test_criterion_06_coulomb_sum_suite():
    t0 = time.time()
    checks = _suite_values(suites.lemma31_suite)
    elapsed = time.time() - t0
    sweep = (64, 128, 256, 512)
    s1 = max(checks[f"S1_normalized_N{N}"] for N in sweep)
    s2 = max(checks[f"S2_normalized_N{N}"] for N in sweep)
    spread1 = checks["S1_sweep_stability"]
    spread2 = checks["S2_sweep_stability"]
    ok = (
        s1 <= constants.KAPPA_S1
        and s2 <= constants.KAPPA_S2
        and spread1 <= 0.6
        and spread2 <= 0.6
        and elapsed < 60.0
    )
    _verdict(
        6,
        ok,
        f"S1 norm {s1:.3f}<= {constants.KAPPA_S1}, S2 norm {s2:.3f}<= {constants.KAPPA_S2}, "
        f"spreads {spread1 * 100:.0f}%/{spread2 * 100:.0f}% (<=60%), {elapsed:.1f}s",
    )
    assert s1 <= constants.KAPPA_S1 and s2 <= constants.KAPPA_S2
    assert spread1 <= 0.6 and spread2 <= 0.6
    assert elapsed < 60.0


def test_criterion_07_longitudinal_scaling():
    checks = _suite_values(suites.lemma32_suite)
    arr = np.array([checks[f"longitudinal_scaled_N{N}"] for N in (64, 128, 256)])
    dev = np.abs(arr - arr.mean()).max() / arr.mean()
    ok = arr.max() <= constants.C_LONGITUDINAL and dev <= 0.5
    _verdict(
        7,
        ok,
        f"normalized max {arr.max():.1f} (<= {constants.C_LONGITUDINAL}), deviation {dev * 100:.0f}% (<=50%)",
    )
    assert arr.max() <= constants.C_LONGITUDINAL
    assert dev <= 0.5


def test_criterion_08_transverse_decay_mechanism(shells):
    x, _, fit = glued.transverse_decay([shells[(100, m)] for m in (16, 81, 256)])
    slope = float(fit[0])
    ok = -0.18 <= slope <= -0.07
    _verdict(
        8,
        ok,
        f"ln max|gT| vs rbar*L slope {slope:.2f} (stated window [-0.18, -0.07]); "
        f"rbar*L = {np.round(x, 3).tolist()} decreases with m at this charge, so the "
        "peak scales like the cutoff prefactor 1/L^2 instead of the core decay",
    )
    assert -0.18 <= slope <= -0.07, (
        f"slope {slope:.2f} outside [-0.18, -0.07]: the decay window presumes "
        f"rbar*L growing like the asymptotic thickness scale, but the residues "
        f"saturate below 1 here and rbar*L = {np.round(x, 3).tolist()} shrinks with m"
    )


def test_criterion_09_weighted_residual_norm(shells):
    results = {}
    for N in (64, 256):
        results[N] = glued.gstar_scaling(shells[(N, 16)])[2:]
    bound_ok = all(v[0] <= constants.C_GSTAR for v in results.values())
    stab_ok = all(v[1] < 0.01 for v in results.values())
    detail = ", ".join(
        f"N={N}: m*lnN-scaled {v[0]:.0f} (<= {constants.C_GSTAR:.0f}), doubling shift {v[1] * 100:.0f}%"
        for N, v in results.items()
    )
    _verdict(9, bound_ok and stab_ok, detail + " (stability bound 1%)")
    assert bound_ok
    assert stab_ok, (
        f"sampled norm shifts by {max(v[1] for v in results.values()) * 100:.0f}% under "
        "quadrature doubling: the weight 1/|Phi| diverges on the support shell "
        "(the blended Higgs profile crosses zero there when r_p L ~ 1), so the "
        "supremum has no finite resolution-independent value at this scale"
    )


def test_criterion_10_bag_geometry(shells, theorem_checks):
    cfg = shells[(100, 16)]
    scale = cfg.m * math.log(cfg.N) / math.sqrt(cfg.N)

    # (a) Higgs floor over points at distance >= L from the shell set
    floor = higgs_floor(cfg)
    floor_bound = 0.25 * scale / 2.0
    floor_ok = floor >= floor_bound

    # (b) shell-sphere mean against the frozen scaling constant
    mean_R = theorem_checks["shell_sphere_mean"]
    mean_ok = mean_R <= constants.C_MEAN_AT_R * scale

    # (c) all construction zeros exactly on the shell sphere
    zeros_ok = theorem_checks["zeros_on_shell_sphere"] <= 1e-9 * cfg.R

    # (d) sphere mean at twice the shell radius: stated bracket and the
    # harmonic mean-value oracle it cites
    _, mean_2R, _ = sphere_stats(2 * cfg.R, cfg, SphereQuadrature(4096))
    oracle = 1.0 - cfg.N / (2 * cfg.R)
    bracket_ok = 0.40 <= mean_2R <= 0.60
    oracle_ok = abs(mean_2R - oracle) <= 0.02 * oracle

    ok = floor_ok and mean_ok and zeros_ok and bracket_ok
    _verdict(
        10,
        ok,
        f"floor {floor:.3f} vs {floor_bound:.3f} [{'ok' if floor_ok else 'FAIL'}]; "
        f"mean(R) {mean_R:.3f} <= {constants.C_MEAN_AT_R * scale:.3f} [{'ok' if mean_ok else 'FAIL'}]; "
        f"zeros on sphere [{'ok' if zeros_ok else 'FAIL'}]; "
        f"mean(2R) {mean_2R:.3f} vs bracket [0.40, 0.60] [{'ok' if bracket_ok else 'FAIL'}] "
        f"(matches its own mean-value oracle {oracle:.3f} to {abs(mean_2R - oracle):.1e})",
    )
    assert mean_ok and zeros_ok and oracle_ok
    assert floor_ok, (
        f"sampled floor {floor:.3f} < {floor_bound:.3f}: the lower bound presumes the "
        "residue scale m ln(N)/sqrt(N) << 1, but it is 7.37 here, so residues saturate "
        "near 1 - N/R and the Higgs at distance L from a core only reaches r_p - 1/L"
    )
    assert bracket_ok, (
        f"mean(2R) = {mean_2R:.4f} outside [0.40, 0.60]; it equals the bracket's own "
        f"oracle 1 - N/(2R) = {oracle:.4f} exactly, so the bracket numbers mis-evaluate "
        "that oracle at the true shell radius"
    )


def test_criterion_11_core_critical_radii(ps_checks):
    checks, _ = ps_checks
    vals = {eps: (checks[f"r_eps<{eps}"], checks[f"rhat_eps<{eps}"]) for eps in (0.3, 0.5, 0.7)}
    ok = all(r_e < 1 / (1 - eps) and rh_e < 1 / (1 - eps) ** 2 for eps, (r_e, rh_e) in vals.items())
    r_half = vals[0.5][0]
    ok &= abs(r_half - 1.797) <= 0.01
    _verdict(
        11,
        ok,
        f"r_eps {({e: f'{v[0]:.3f}' for e, v in vals.items()})} all below 1/(1-eps); r_0.5 = {r_half:.4f}",
    )
    for eps, (r_e, rh_e) in vals.items():
        assert r_e < 1 / (1 - eps)
        assert rh_e < 1 / (1 - eps) ** 2
    assert abs(r_half - 1.797) <= 0.01


def test_criterion_12_operator_suite():
    # the operator suite on the bump fields of seeds 21..25, held to this
    # criterion's own windows
    checks = _suite_values(suites.operator_suite, seed=20)
    deform_rel = checks["deformation_identity_rel"]
    ratios = {name: checks[f"weitzenbock_order_{name}"] for name in ("flat", "core", "glued")}
    adjoint_rel = checks["adjointness_gap_rel"]
    hash_sym = checks["hash_symmetry"]
    degree_off = checks["local_degree_sum"]

    ok = (
        deform_rel <= 1e-6
        and all(3.4 <= r <= 4.6 for r in ratios.values())
        and adjoint_rel <= 1e-6
        and hash_sym == 0.0
        and degree_off == 0.0
    )
    _verdict(
        12,
        ok,
        f"deformation rel {deform_rel:.1e}; weitzenbock h-ratios "
        f"{({k: f'{v:.2f}' for k, v in ratios.items()})}; adjoint rel {adjoint_rel:.1e}; "
        f"hash exact; degree sum {'25' if degree_off == 0.0 else f'off 25 by {degree_off:g}'}",
    )
    assert deform_rel <= 1e-6
    for name, r in ratios.items():
        assert 3.4 <= r <= 4.6, f"weitzenbock ratio on {name} background: {r}"
    assert adjoint_rel <= 1e-6
    assert hash_sym == 0.0
    assert degree_off == 0.0
