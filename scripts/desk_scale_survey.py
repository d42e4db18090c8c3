#!/usr/bin/env python3
"""Survey of the gluing construction across charge and thickness.

Reports, for a grid of (N, m): the residue statistics against the
asymptotic target, the product r_p L that controls whether the blended
Higgs profile stays positive (it needs roughly r_p L > 16/3 so that the
exterior profile r_p - 1/d is already positive where the cutoff starts to
fade the core), the radii where the profile crosses zero, and the
resulting weighted-norm behavior.  Output is a JSON table on stdout.
"""

import argparse
import json

import numpy as np

from magbag import glued
from magbag.shell import make_shell_config


def profile_zero_radii(cfg):
    """Radii in (0, L) where the ball-chart Higgs coefficient changes sign,
    from 200000 samples along the x-axis ray out of the first shell point."""
    p = cfg.points[0]
    r = cfg.residues[0]
    ds = np.linspace(1e-4 * cfg.L, 0.9999 * cfg.L, 200000)
    ext = glued.phi_theta(p + ds[:, None] * np.array([1.0, 0.0, 0.0]), cfg)
    coeff = glued.ball_higgs(ds, r, glued.chi(8.0 * ds / cfg.L - 1.0), ext)
    flips = np.nonzero(np.diff(np.sign(coeff)) != 0)[0]
    return [float(0.5 * (ds[i] + ds[i + 1]) / cfg.L) for i in flips]


def survey_row(N, m):
    cfg = make_shell_config(N, m)
    zeros = profile_zero_radii(cfg)
    (gstar1, _, _), (gstar2, _, _) = glued.gstar_doubling(cfg, 4, 32, 4, 16)
    return {
        "N": N,
        "m": m,
        "R": cfg.R,
        "L": cfg.L,
        "residue_target": cfg.diagnostics["residue_target"],
        "r_min": cfg.diagnostics["r_min"],
        "r_max": cfg.diagnostics["r_max"],
        "rL_min": cfg.diagnostics["Lr_min"],
        "rL_needed_for_positive_profile": 16.0 / 3.0,
        "profile_zero_radii_over_L": zeros,
        "gstar_coarse": gstar1,
        "gstar_fine": gstar2,
        "gstar_stable": abs(gstar2 - gstar1) <= 0.01 * gstar1,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="*", default=[64, 100, 256])
    ap.add_argument("--m", type=float, nargs="*", default=[16.0, 81.0, 256.0])
    args = ap.parse_args()
    rows = [survey_row(N, m) for N in args.n for m in args.m]
    print(json.dumps(rows, indent=2))


if __name__ == "__main__":
    main()
