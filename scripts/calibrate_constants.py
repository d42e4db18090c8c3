#!/usr/bin/env python3
"""One-shot calibration sweeps behind src/magbag/constants.py.

Prints every measured constant together with the margin actually frozen.
The suite entries, the bag-geometry scalings, the transverse decay, the
weighted-norm scaling and the Higgs floor are read from the functions the
verification suites and acceptance tests call.  Two sweeps measure on
their own: `bogomolny_scale` takes its own 1000 uniform draws and keeps
those in the radius-8 ball, where `ps_suite` keeps the first 1000 in-ball
points of 3000 draws, and it reports max |*F - d phi| / h^2 rather than
the suite's relative defect; `band_overshoot` takes the worst
(sum n_k - N) / sqrt(N) over every N in 64..1024, where the test of
BAND_SUM_C only bounds it at every seventh N.  Rerun after any change to
the field formulas; runtime is about ten seconds.
"""

import math

import numpy as np

from magbag import analysis, glued
from magbag.monopole import ScaledMonopole, ps_evaluator
from magbag.operators import fd_curvature
from magbag.shell import band_sizes, choose_band_count, make_shell_config
from magbag.su2 import form_norm
from magbag.suites import lemma31_suite, lemma32_suite


def bogomolny_scale():
    rng = np.random.default_rng(0)
    mono = ScaledMonopole(center=np.zeros(3), scale=1.0)
    X = rng.uniform(-8, 8, size=(1000, 3))
    X = X[np.linalg.norm(X, axis=1) <= 8.0]
    h = 1e-4
    defect = form_norm(fd_curvature(ps_evaluator(mono), X, h=h).g)
    print(f"[core] max |*F - d phi| / h^2 = {defect.max() / h**2:.4g}  (freeze BOGOMOLNY_H2 with ~2x margin)")


def suite_values():
    """Every Lemma 3.1 and 3.2 suite entry against its frozen bound."""
    for suite in (lemma31_suite, lemma32_suite):
        print(f"[{suite.__name__}] measured value vs bound:")
        for c in suite():
            verdict = "ok" if c["pass"] else "FAIL"
            print(f"  {c['check']}: {c['value']:.6g} vs {c['bound']:.4g}  [{verdict}]")


def band_overshoot():
    worst = 0.0
    for N in range(64, 1025):
        K = choose_band_count(N)
        worst = max(worst, (band_sizes(K).sum() - N) / math.sqrt(N))
    print(f"[bands] max (sum n_k - N)/sqrt(N) over 64..1024 = {worst:.4f}")


def glued_scalings():
    print("[glued] shell-sphere and interior scalings:")
    for N, m in ((100, 16.0), (64, 16.0), (256, 16.0)):
        cfg = make_shell_config(N, m)
        rep = analysis.theorem_report(cfg)
        scale = cfg.diagnostics["residue_target"]
        mean_R, interior = rep["shell_sphere_mean"], rep["interior_max_half_radius"]
        print(
            f"  N={N} m={m}: mean|Phi|(R)={mean_R:.4f} -> C={mean_R / scale:.4f}; "
            f"interior max={interior:.4f} -> C={interior / scale:.4f}"
        )


def gt_slope():
    print("[residual] transverse peak vs core decay scale (N = 100):")
    ms = (16.0, 81.0, 256.0)
    x, y, fit = glued.transverse_decay([make_shell_config(100, m) for m in ms])
    for m, xi, yi in zip(ms, x, y):
        print(f"  m={m}: rbar*L={xi:.4f}  ln max|gT|={yi:.4f}")
    resid = y - np.polyval(fit, x)
    print(f"  affine fit slope = {fit[0]:.4f}, max residual = {np.abs(resid).max():.4f}")


def gstar_values():
    print("[gstar] weighted norm (support shells contain Higgs zeros at desk scale):")
    for N in (64, 256):
        (total, sup_t, int_t), (total2, _, _), scaled, _ = glued.gstar_scaling(
            make_shell_config(N, 16.0))
        print(
            f"  N={N}: gstar={total:.4g} (sup {sup_t:.4g} + int {int_t:.4g}); "
            f"doubled sampling -> {total2:.4g}  (ratio {total2 / total:.3f})"
        )
        print(f"        gstar * m * lnN = {scaled:.4g}")


def higgs_floor():
    print("[floor] min |Phi| at distance >= L from the points (N=100, m=16):")
    cfg = make_shell_config(100, 16.0)
    scale = cfg.diagnostics["residue_target"]
    print(f"  measured floor = {analysis.higgs_floor(cfg):.4f};  quarter-scale/2 = {scale / 8:.4f}")


if __name__ == "__main__":
    bogomolny_scale()
    suite_values()
    band_overshoot()
    glued_scalings()
    gt_slope()
    gstar_values()
    higgs_floor()
