#!/usr/bin/env python3
"""One-shot calibration sweeps behind src/magbag/constants.py.

Prints every measured constant together with the margin actually frozen.
Rerun after any change to the field formulas; runtime is a few minutes.
"""

import math
import warnings

import numpy as np

from magbag import glued
from magbag.analysis import SphereQuadrature, fibonacci_sphere, sphere_stats
from magbag.monopole import ScaledMonopole, ps_evaluator
from magbag.operators import fd_curvature
from magbag.shell import (
    _squared_distances,
    band_sizes,
    choose_band_count,
    coulomb_maxima,
    coulomb_sums,
    make_shell_config,
    place_points,
)
from magbag.su2 import form_norm


def bogomolny_scale():
    rng = np.random.default_rng(0)
    mono = ScaledMonopole(center=np.zeros(3), scale=1.0)
    X = rng.uniform(-8, 8, size=(1000, 3))
    X = X[np.linalg.norm(X, axis=1) <= 8.0]
    h = 1e-4
    defect = form_norm(fd_curvature(ps_evaluator(mono), X, h=h).g)
    print(f"[core] max |*F - d phi| / h^2 = {defect.max() / h**2:.4g}  (freeze BOGOMOLNY_H2 with ~2x margin)")


def coulomb_sweep():
    print("[coulomb] R = N sweep:")
    d1 = {}
    d2 = {}
    for N in (64, 128, 256, 512):
        d1[N], d2[N] = coulomb_maxima(N)
        print(f"  N={N}: normalized S1 dev={d1[N]:.4f}  S2={d2[N]:.4f}")
    for tag, d in (("S1", d1), ("S2", d2)):
        vals = np.array(list(d.values()))
        print(
            f"  {tag}: max={vals.max():.4f}  spread={(vals.max() - vals.min()) / vals.mean() * 100:.1f}% of mean"
        )
    # Origin sums with L = 1 (bounds with unit constants for reference).
    for N in (64, 256):
        pts = place_points(N, float(N))
        _, _, s3, s4 = coulomb_sums(pts, np.zeros(3), 1.0)
        k3 = (s3 - N / N) / (1.0 + math.sqrt(N) * math.log(N) / N)
        k4 = s4 / (1.0 + math.log(N) / N)
        print(f"  N={N}: origin S3 kappa={k3:.4f}  S4 kappa={k4:.4f}")


def band_overshoot():
    worst = 0.0
    for N in range(64, 1025):
        K = choose_band_count(N)
        worst = max(worst, (band_sizes(K).sum() - N) / math.sqrt(N))
    print(f"[bands] max (sum n_k - N)/sqrt(N) over 64..1024 = {worst:.4f}")


def glued_scalings():
    quad = SphereQuadrature(4096)
    print("[glued] shell-sphere and interior scalings:")
    for N, m in ((100, 16.0), (64, 16.0), (256, 16.0)):
        cfg = make_shell_config(N, m)
        scale = m * math.log(N) / math.sqrt(N)
        _, mean_R, _ = sphere_stats(cfg.R, cfg, quad)
        interior = max(
            sphere_stats(f * cfg.R, cfg, quad)[2] for f in (0.1, 0.25, 0.5)
        )
        print(
            f"  N={N} m={m}: mean|Phi|(R)={mean_R:.4f} -> C={mean_R / scale:.4f}; "
            f"interior max={interior:.4f} -> C={interior / scale:.4f}"
        )


def longitudinal_scaling():
    print("[residual] max |<sh, g>| * N / ln N  (m = 16):")
    vals = {}
    for N in (64, 128, 256):
        _, _, inner = glued.annulus_maxima(make_shell_config(N, 16.0), 8, 64)
        worst = float(inner.max())
        vals[N] = worst * N / math.log(N)
        print(f"  N={N}: max long = {worst:.4f}, normalized = {vals[N]:.4f}")
    arr = np.array(list(vals.values()))
    print(f"  spread = {(arr.max() - arr.min()) / arr.mean() * 100:.1f}% of mean")


def gt_slope():
    print("[residual] transverse peak vs core decay scale (N = 100):")
    rows = []
    for m in (16.0, 81.0, 256.0):
        cfg = make_shell_config(100, m)
        rbar = float(cfg.residues.min())
        max_gT, _, _ = glued.annulus_maxima(cfg, 8, 64)
        rows.append((rbar * cfg.L, math.log(max_gT.max())))
        print(f"  m={m}: rbar*L={rows[-1][0]:.4f}  ln max|gT|={rows[-1][1]:.4f}")
    x = np.array([r[0] for r in rows])
    y = np.array([r[1] for r in rows])
    slope = np.polyfit(x, y, 1)[0]
    resid = y - np.polyval(np.polyfit(x, y, 1), x)
    print(f"  affine fit slope = {slope:.4f}, max residual = {np.abs(resid).max():.4f}")


def gstar_values():
    print("[gstar] weighted norm (support shells contain Higgs zeros at desk scale):")
    for N in (64, 256):
        cfg = make_shell_config(N, 16.0)
        (total, sup_t, int_t), (total2, _, _) = glued.gstar_doubling(cfg)
        print(
            f"  N={N}: gstar={total:.4g} (sup {sup_t:.4g} + int {int_t:.4g}); "
            f"doubled sampling -> {total2:.4g}  (ratio {total2 / total:.3f})"
        )
        print(f"        gstar * m * lnN = {total * 16.0 * math.log(N):.4g}")


def higgs_floor():
    print("[floor] min |Phi| at distance >= L from the points (N=100, m=16):")
    cfg = make_shell_config(100, 16.0)
    dirs = fibonacci_sphere(2048)
    worst = np.inf
    for rad in np.concatenate(
        [cfg.R + cfg.L * np.array([1.0, 1.2, 1.5, 2, 3, 5]), cfg.R - cfg.L * np.array([1.0, 1.5, 2])]
    ):
        pts = rad * dirs
        d = np.min(np.sqrt(_squared_distances(pts, cfg.points)), axis=1)
        ok = d >= cfg.L
        if ok.any():
            worst = min(worst, float(glued.higgs_norm(pts[ok], cfg).min()))
    scale = cfg.m * math.log(cfg.N) / math.sqrt(cfg.N)
    print(f"  measured floor = {worst:.4f};  quarter-scale/2 = {scale / 8:.4f}")
    # Where the ball-chart profile crosses zero:
    p_idx = 0
    r = cfg.residues[p_idx]
    ds = np.linspace(cfg.L / 8, cfg.L, 4000)
    pts = cfg.points[p_idx] + ds[:, None] * np.array([1.0, 0, 0])
    prof = glued.higgs_norm(pts, cfg)
    zeros = ds[np.nonzero((prof[1:] < 1e-3) & (prof[:-1] >= 1e-3))[0]]
    print(f"  r_p L = {r * cfg.L:.3f}; profile near-zeros at d/L = {zeros / cfg.L}")


if __name__ == "__main__":
    warnings.filterwarnings("ignore")
    bogomolny_scale()
    coulomb_sweep()
    band_overshoot()
    glued_scalings()
    longitudinal_scaling()
    gt_slope()
    gstar_values()
    higgs_floor()
