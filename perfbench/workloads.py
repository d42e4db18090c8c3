"""The benchmark workloads: seeded inputs, one pass, and its checked outputs.

Each workload has three parts.  `setup(seed)` draws every sampled input
from the seed.  `run(inputs)` is one timed pass; it calls magbag only
through `magbag.cli.main` and public functions, looked up as module
attributes at call time so that the tracer's rebinding takes effect.
`outputs(raw)` turns what the pass produced into named scalars, each with
the tolerance it is checked at against the reference outputs.

Shell parameters are fixed per workload (m = 16 throughout); the seed only
moves the sampled points.  See README.md for why each workload exists.
"""

import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

M = 16.0
# Float outputs must agree with the reference to this relative tolerance.
# Rounding-level reorderings stay far inside it; a flipped sign or a dropped
# source term moves the outputs by O(1).
RTOL = 1e-8

# residual: closed form vs finite differences on seeded support-shell points.
FD_N, FD_BALLS, FD_POINTS, FD_H = 100, 4, 250, 1e-4
# The h = 1e-4 stencil truncation floor at N = 100 is ~2e-3 relative
# (criterion 05); a formula error is O(1).
FD_FLOOR = 1e-2
REPORT_N = 32
# _eta_alpha_sums works in chunks of 512 samples with Gauss-Legendre
# orders 8 and 16.
TAIL_CHUNK, TAIL_ORDER = 512, 16

# exterior
PROFILE_ARGS = ("--n", "256", "--m", "16", "--quad", "4096", "--steps", "16")
EXT_N, CRIT_EPS, CRIT_QUAD, FLUX_QUAD, EXT_SAMPLES = 100, 0.5, 1024, 16384, 4096

# large_shell
PLACE_NS = (1600, 4800)
ROW_SAMPLES = 32


def load_magbag():
    """Import magbag from this checkout's src/, never from site-packages."""
    if not (SRC / "magbag" / "__init__.py").is_file():
        raise ImportError(f"no magbag sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import magbag

    if SRC.resolve() not in Path(magbag.__file__).resolve().parents:
        raise ImportError(f"magbag imported from {magbag.__file__}, not from {SRC}")
    return magbag


def shell_config(N):
    from magbag import shell

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # N < 64 warns about the regime
        return shell.make_shell_config(N, M)


class Outputs:
    """Named scalar outputs of a pass, each with its (rtol, atol)."""

    def __init__(self):
        self.values = {}
        self.tols = {}

    def add(self, key, value, rtol=RTOL, atol=0.0):
        if key in self.values:
            raise KeyError(f"duplicate output {key}")
        if isinstance(value, np.generic):
            value = value.item()
        self.values[key] = value
        self.tols[key] = (rtol, atol)

    def add_checks(self, prefix, entries):
        """Suite entries: verdicts exact, values to RTOL or to 1e-3 of the
        bound (a value at rounding level carries no digits to compare)."""
        for e in entries:
            key = f"{prefix}.{e['check']}"
            self.add(f"{key}.pass", e["pass"])
            self.add(f"{key}.bound", e["bound"], rtol=1e-12)
            self.add(f"{key}.value", e["value"], atol=1e-3 * abs(e["bound"]))

    def add_dict(self, prefix, values):
        for k, v in values.items():
            self.add(f"{prefix}.{k}", v)


def agrees(value, ref, rtol, atol):
    if isinstance(ref, float) and not isinstance(value, bool):
        return isinstance(value, (int, float)) and abs(value - ref) <= atol + rtol * abs(ref)
    return type(value) is type(ref) and value == ref


def compare(outputs, fixed, seeded):
    """(attempted, failed keys) of a pass's outputs against the reference.

    `fixed` holds the outputs every seed shares; `seeded` the outputs of
    this seed's sampled inputs, or None when the seed was not recorded, in
    which case the `seeded.` outputs are not compared.
    """
    reference = dict(fixed)
    if seeded is not None:
        reference.update(seeded)
    failed = [key for key, ref in reference.items()
              if key not in outputs.values or not agrees(outputs.values[key], ref,
                                                         *outputs.tols[key])]
    unreferenced = [key for key in outputs.values if key not in reference
                    and not (seeded is None and key.startswith("seeded."))]
    return len(reference) + len(unreferenced), failed + unreferenced


def _out_path(name):
    OUT_DIR.mkdir(exist_ok=True)
    return str(OUT_DIR / name)


def _cli(*argv):
    from magbag import cli

    return cli.main(list(argv))


def _verify(suite):
    path = _out_path(f"verify_{suite}.json")
    return _cli("verify", "--suite", suite, "--out", path), path


def _add_verify(out, suite, result):
    rc, path = result
    out.add(f"verify.{suite}.exit_code", rc)
    with open(path) as fh:
        out.add_checks(f"verify.{suite}", json.load(fh))


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------------------
# residual: glued exterior tail sums (_eta_alpha_sums), O(N^2 B)

def residual_setup(seed):
    cfg = shell_config(FD_N)
    rng = np.random.default_rng(seed)
    balls = [int(p) for p in rng.choice(cfg.N, FD_BALLS, replace=False)]
    samples = []
    for p in balls:
        dirs = rng.normal(size=(FD_POINTS, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        rads = rng.uniform(cfg.L / 8, cfg.L / 4, FD_POINTS)
        samples.append((p, cfg.points[p] + rads[:, None] * dirs))
    return {"cfg": cfg, "samples": samples}


def residual_run(inputs):
    from magbag import glued, operators, su2

    raw = {"operator": _verify("operator"), "ps": _verify("ps")}
    cfg32 = shell_config(REPORT_N)
    raw["report"] = glued.residual_report(cfg32)
    raw["report_diagnostics"] = cfg32.diagnostics
    cfg = inputs["cfg"]
    worst = []
    for p, X in inputs["samples"]:
        gT, gL = glued.residual_fields(X, p, cfg)
        g_fd = operators.fd_curvature(glued.ball_evaluator(cfg, p), X, h=FD_H).g
        rel = su2.form_norm(g_fd - gT - gL) / (1.0 + su2.form_norm(g_fd))
        worst.append(float(rel.max()))
    raw["fd_worst"] = worst
    raw["fd_diagnostics"] = cfg.diagnostics
    return raw


def residual_outputs(raw):
    out = Outputs()
    for suite in ("operator", "ps"):
        _add_verify(out, suite, raw[suite])
    out.add_dict("report", {k: v for k, v in raw["report"].items() if k != "per_annulus"})
    per = raw["report"]["per_annulus"]
    out.add("report.per_annulus.count", len(per))
    for key in ("max_gT", "max_gL", "max_inner_sigma_g"):
        out.add(f"report.per_annulus.sum_{key}", math.fsum(a[key] for a in per))
    out.add_dict(f"diagnostics.N{REPORT_N}", raw["report_diagnostics"])
    out.add_dict(f"diagnostics.N{FD_N}", raw["fd_diagnostics"])
    worst = max(raw["fd_worst"])
    out.add("fd.within_truncation_floor", worst <= FD_FLOOR)
    # FD differencing amplifies rounding by 1/h, hence the looser tolerance.
    for i, w in enumerate(raw["fd_worst"]):
        out.add(f"seeded.fd.worst_rel.ball{i}", w, rtol=1e-6)
    return out


# ---------------------------------------------------------------------------
# exterior: O(B N) exterior sums (higgs_norm, phi_theta, grad_phi_theta)

def exterior_setup(seed):
    cfg = shell_config(EXT_N)
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(EXT_SAMPLES, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    # Half the samples lie within 2L of a shell point, so the ball-chart
    # branch of higgs_norm is taken; the other half lie across the shell
    # in the exterior chart.
    half = EXT_SAMPLES // 2
    near = rng.integers(cfg.N, size=half)
    near_x = cfg.points[near] + cfg.L * rng.uniform(1 / 32, 2.0, half)[:, None] * dirs[:half]
    rads = cfg.R + cfg.L * rng.uniform(-3.0, 3.0, EXT_SAMPLES - half)
    return {"cfg": cfg, "X": np.vstack([near_x, rads[:, None] * dirs[half:]])}


def exterior_run(inputs):
    from magbag import analysis, glued

    cfg, X = inputs["cfg"], inputs["X"]
    path = _out_path("profile.csv")
    raw = {"profile": (_cli("profile", *PROFILE_ARGS, "--out", path), path)}
    raw["critical_radii"] = analysis.critical_radii(
        CRIT_EPS, cfg, analysis.SphereQuadrature(CRIT_QUAD))
    raw["flux"] = analysis.flux_charge(2.0 * cfg.R, cfg, analysis.SphereQuadrature(FLUX_QUAD))
    raw["higgs_norm"] = glued.higgs_norm(X, cfg)
    raw["phi_theta"] = glued.phi_theta(X, cfg)
    raw["inputs"] = inputs
    return raw


def exterior_outputs(raw):
    out = Outputs()
    rc, path = raw["profile"]
    out.add("profile.exit_code", rc)
    header, rows = _read_csv(path)
    out.add("profile.header", header)
    out.add("profile.rows", len(rows))
    for i, row in enumerate(rows):
        for name, v in zip(header.split(","), row):
            out.add(f"profile.row{i}.{name}", float(v), atol=1e-12)
    for name, v in zip(("R_eps", "r_eps", "rhat_eps"), raw["critical_radii"]):
        out.add(f"critical_radii.{name}", v)
    cfg, X = raw["inputs"]["cfg"], raw["inputs"]["X"]
    out.add("flux.charge", raw["flux"])
    out.add("flux.is_point_count", abs(raw["flux"] - cfg.N) <= 1e-3)
    out.add_dict(f"diagnostics.N{EXT_N}", cfg.diagnostics)
    hn, pt = raw["higgs_norm"], raw["phi_theta"]
    far = np.min(np.linalg.norm(X[:, None, :] - cfg.points, axis=-1), axis=1) >= cfg.L
    # Outside every ball the Higgs norm is |phi_theta| by definition.
    out.add("samples.far_identity", bool(np.all(np.abs(hn[far] - np.abs(pt[far]))
                                                <= 1e-12 * np.abs(pt[far]))))
    out.add("seeded.samples.far_count", int(far.sum()))
    for name, vals in (("higgs_norm", hn), ("phi_theta", pt)):
        out.add(f"seeded.samples.{name}.sum", math.fsum(vals), atol=1e-9)
        out.add(f"seeded.samples.{name}.min", float(vals.min()), atol=1e-12)
        out.add(f"seeded.samples.{name}.max", float(vals.max()), atol=1e-12)
    return out


# ---------------------------------------------------------------------------
# large_shell: the N x N x 3 arrays of the shell layout

def large_shell_setup(seed):
    return {}


def large_shell_run(inputs):
    raw = {}
    for N in PLACE_NS:
        path = _out_path(f"place_{N}.csv")
        raw[f"place{N}"] = (_cli("place", "--n", str(N), "--m", "16", "--out", path), path)
    raw["lemma31"] = _verify("lemma31")
    raw["algebra"] = _verify("algebra")
    return raw


def large_shell_outputs(raw):
    from magbag import shell

    out = Outputs()
    for N in PLACE_NS:
        key = f"place{N}"
        rc, path = raw[key]
        out.add(f"{key}.exit_code", rc)
        header, rows = _read_csv(path)
        out.add(f"{key}.header", header)
        out.add(f"{key}.rows", len(rows))
        out.add(f"{key}.index_in_order", bool(np.array_equal(rows[:, 0], np.arange(len(rows)))))
        R = shell.shell_radius(N, M)
        radii = np.linalg.norm(rows[:, 2:5], axis=1)
        out.add(f"{key}.on_sphere", bool(np.all(np.abs(radii - R) <= 1e-9 * R)))
        bands = rows[:, 1].astype(int)
        out.add(f"{key}.band.sum", int(bands.sum()))
        out.add(f"{key}.band.max", int(bands.max()))
        for col, name in ((2, "x"), (3, "y"), (4, "z"), (5, "r_p")):
            vals = rows[:, col]
            # Coordinates near 0 carry rounding of size eps * R.
            atol = 1e-9 * R if name != "r_p" else 1e-12
            out.add(f"{key}.{name}.min", float(vals.min()), atol=atol)
            out.add(f"{key}.{name}.max", float(vals.max()), atol=atol)
            out.add(f"{key}.{name}.sum", math.fsum(vals), atol=atol * math.sqrt(N))
            out.add(f"{key}.{name}.sumsq", math.fsum(vals * vals), atol=atol * R)
        for i in range(0, len(rows), len(rows) // ROW_SAMPLES):
            out.add(f"{key}.row{i}.band", int(bands[i]))
            for col, name in ((2, "x"), (3, "y"), (4, "z")):
                out.add(f"{key}.row{i}.{name}", float(rows[i, col]), atol=1e-9 * R)
            out.add(f"{key}.row{i}.r_p", float(rows[i, 5]), atol=1e-12)
        # ShellConfig.diagnostics["Lr_min"], read back from the table.
        out.add(f"{key}.Lr_min", shell.gluing_length(N, M) * float(rows[:, 5].min()))
    for suite in ("lemma31", "algebra"):
        _add_verify(out, suite, raw[suite])
    return out


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    outputs: Callable
    largest_array: dict  # the largest array one pass computes, by size


def _array(label, shape):
    return {"label": label, "shape": list(shape),
            "bytes": 8 * math.prod(shape), "basis": "computed"}


WORKLOADS = {
    "residual": Workload(
        residual_setup, residual_run, residual_outputs,
        _array("_eta_alpha_sums Gauss-Legendre segments (chunk, sources, order, 3) float64",
               (TAIL_CHUNK, FD_N - 1, TAIL_ORDER, 3))),
    "exterior": Workload(
        exterior_setup, exterior_run, exterior_outputs,
        _array("grad_phi_theta differences (flux quadrature, N, 3) float64",
               (FLUX_QUAD, EXT_N, 3))),
    "large_shell": Workload(
        large_shell_setup, large_shell_run, large_shell_outputs,
        _array("pairwise_distances differences (N, N, 3) float64",
               (max(PLACE_NS), max(PLACE_NS), 3))),
}
