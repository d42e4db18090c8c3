"""Command-line front end.

Subcommands: `place` writes the point table, `profile` writes a radial
|Phi| profile, `verify` runs a named check suite and emits a JSON report.
Exit codes: 0 all checks pass, 1 at least one check failed, 2 invalid
invocation.
"""

import argparse
import contextlib
import json
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np


@dataclass
class RunConfig:
    n: int = 100
    m: float = 16.0
    quad: int = 4096
    r_min: float = 0.5
    r_max: float = 4.0
    steps: int = 32
    suite: str = "all"
    out: str | None = None

    def validate(self, need_shell=True):
        # Values from a --config file bypass argparse's typing.
        for name in ("n", "quad", "steps"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {val!r}")
        for name in ("m", "r_min", "r_max"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {val!r}")
        if not isinstance(self.suite, str):
            raise ValueError(f"suite must be a string, got {self.suite!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a string or null, got {self.out!r}")
        if need_shell and self.n < 8:
            raise ValueError(f"charge must be at least 8, got n={self.n}")
        if not need_shell and self.n != 1 and self.n < 8:
            raise ValueError(f"charge must be 1 (exact core) or >= 8, got n={self.n}")
        if not (math.isfinite(self.m) and self.m > 1):
            raise ValueError(f"thickness parameter must be a finite m > 1, got m={self.m}")
        if self.quad < 256:
            raise ValueError(f"need at least 256 quadrature points, got {self.quad}")
        if not (math.isfinite(self.r_min) and math.isfinite(self.r_max)):
            raise ValueError(f"r-min and r-max must be finite, got {self.r_min}, {self.r_max}")
        if not 0 < self.r_min < self.r_max:
            raise ValueError("need 0 < r-min < r-max")
        if self.steps < 2:
            raise ValueError("need at least 2 radial steps")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="magbag",
        description="Shell monopole configurations and verification suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, docs in (
        ("place", "write the shell point table as CSV"),
        ("profile", "write a radial |Phi| profile as CSV"),
        ("verify", "run a verification suite, emit a JSON report"),
    ):
        # No prefix matching: a flag that is not spelled out in full (or that
        # no longer exists, such as --h) is an error, not --help.
        p = sub.add_parser(name, help=docs, allow_abbrev=False)
        p.add_argument("--n", type=int, help="topological charge")
        p.add_argument("--m", type=float, help="shell thickness parameter")
        p.add_argument("--quad", type=int, help="spherical quadrature points")
        p.add_argument("--r-min", dest="r_min", type=float, help="profile start (units of R)")
        p.add_argument("--r-max", dest="r_max", type=float, help="profile end (units of R)")
        p.add_argument("--steps", type=int, help="profile row count")
        p.add_argument("--suite", type=str, help="verify: suite name or 'all'")
        p.add_argument("--out", type=str, help="output path (default stdout)")
        p.add_argument("--config", type=str, help="JSON file with RunConfig keys")
    return parser


def _merge_config(args):
    cfg = RunConfig()
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        known = {f.name for f in fields(RunConfig)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, val in data.items():
            setattr(cfg, key, val)
    for f in fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    return cfg


@contextlib.contextmanager
def _output(out):
    """The text file `out`, or stdout when no path is given."""
    if not out:
        yield sys.stdout
        return
    with open(out, "w", newline="") as fh:
        yield fh


def cmd_place(cfg):
    from .shell import make_shell_config, write_points_csv

    cfg.validate(need_shell=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shell = make_shell_config(cfg.n, cfg.m)
    with _output(cfg.out) as fh:
        write_points_csv(shell, fh)
    return 0


def cmd_profile(cfg):
    from .analysis import SphereQuadrature, radial_profile, write_profile_csv
    from .monopole import ScaledMonopole
    from .shell import make_shell_config

    cfg.validate(need_shell=False)
    quad = SphereQuadrature(cfg.quad)
    if cfg.n == 1:
        field = ScaledMonopole(center=np.zeros(3), scale=1.0)
        radii = np.linspace(cfg.r_min, cfg.r_max, cfg.steps)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            field = make_shell_config(cfg.n, cfg.m)
        radii = field.R * np.linspace(cfg.r_min, cfg.r_max, cfg.steps)
    rows = radial_profile(radii, field, quad)
    with _output(cfg.out) as fh:
        write_profile_csv(rows, fh)
    return 0


def cmd_verify(cfg):
    from .suites import SUITE_NAMES, run_suite

    cfg.validate(need_shell=False)
    if cfg.suite != "all" and cfg.suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {cfg.suite!r}; choose from {SUITE_NAMES} or 'all'")
    results = run_suite(cfg.suite)
    with _output(cfg.out) as fh:
        fh.write(json.dumps(results, indent=2) + "\n")
    return 0 if all(r["pass"] for r in results) else 1


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _merge_config(args)
        handler = {"place": cmd_place, "profile": cmd_profile, "verify": cmd_verify}[
            args.command
        ]
        return handler(cfg)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
