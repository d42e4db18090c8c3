"""Command-line front end.

Flags are the only input, and each subcommand takes only the flags it reads:

- `place` writes the shell point table: --n, --m, --out;
- `profile` writes a radial |Phi| profile: --n, --m, --quad, --r-min,
  --r-max, --steps, --out;
- `verify` runs a named check suite and emits a JSON report: --suite, --out.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 invalid
invocation or a run that does not fit in memory.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

# name -> (type, default, help)
OPTIONS = {
    "n": (int, 100, "topological charge"),
    "m": (float, 16.0, "shell thickness parameter"),
    "quad": (int, 4096, "spherical quadrature points"),
    "r_min": (float, 0.5, "profile start (units of R)"),
    "r_max": (float, 4.0, "profile end (units of R)"),
    "steps": (int, 32, "profile row count"),
    "suite": (str, "all", "suite name or 'all'"),
    "out": (str, None, "output path (default stdout)"),
}

@functools.cache
def _build_parser():
    """The parser, built once per process: parsing leaves it unchanged, and
    each parse starts from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="magbag",
        description="Shell monopole configurations and verification suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (docs, names, _) in COMMANDS.items():
        # A flag not spelled out in full, or not read by the subcommand, is an error.
        p = sub.add_parser(command, help=docs, allow_abbrev=False)
        for name in names:
            kind, default, text = OPTIONS[name]
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=kind,
                           default=default, help=text)
    return parser


def _require(ok, message):
    if not ok:
        raise ValueError(message)


def _check_m(m):
    _require(math.isfinite(m) and m > 1, f"thickness parameter must be a finite m > 1, got m={m}")


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

    shell = make_shell_config(cfg.n, cfg.m)
    with _output(cfg.out) as fh:
        write_points_csv(shell, fh)
    return 0


def cmd_profile(cfg):
    from .analysis import SphereQuadrature, radial_profile, write_profile_csv
    from .monopole import ScaledMonopole
    from .shell import make_shell_config

    _require(cfg.n == 1 or cfg.n >= 8, f"charge must be 1 (exact core) or >= 8, got n={cfg.n}")
    _check_m(cfg.m)
    _require(cfg.quad >= 256, f"need at least 256 quadrature points, got {cfg.quad}")
    _require(math.isfinite(cfg.r_min) and math.isfinite(cfg.r_max),
             f"r-min and r-max must be finite, got {cfg.r_min}, {cfg.r_max}")
    _require(0 < cfg.r_min < cfg.r_max, "need 0 < r-min < r-max")
    _require(cfg.steps >= 2, "need at least 2 radial steps")
    quad = SphereQuadrature(cfg.quad)
    radii = np.linspace(cfg.r_min, cfg.r_max, cfg.steps)
    if cfg.n == 1:
        field = ScaledMonopole(center=np.zeros(3), scale=1.0)
    else:
        field = make_shell_config(cfg.n, cfg.m)
        radii = field.R * radii
    rows = radial_profile(radii, field, quad)
    with _output(cfg.out) as fh:
        write_profile_csv(rows, fh)
    return 0


def cmd_verify(cfg):
    from .suites import SUITES, run_suite

    _require(cfg.suite == "all" or cfg.suite in SUITES,
             f"unknown suite {cfg.suite!r}; choose from {tuple(SUITES)} or 'all'")
    results = run_suite(cfg.suite)
    with _output(cfg.out) as fh:
        fh.write(json.dumps(results, indent=2) + "\n")
    return 0 if all(r["pass"] for r in results) else 1


# subcommand -> (help, the options it reads, handler)
COMMANDS = {
    "place": ("write the shell point table as CSV", ("n", "m", "out"), cmd_place),
    "profile": ("write a radial |Phi| profile as CSV",
                ("n", "m", "quad", "r_min", "r_max", "steps", "out"), cmd_profile),
    "verify": ("run a verification suite, emit a JSON report", ("suite", "out"), cmd_verify),
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler = COMMANDS[args.command][2]
    try:
        # Checked before computing; the file itself is opened only afterwards,
        # so a failed run leaves an existing file as it was.
        _require(not args.out or os.path.isdir(os.path.dirname(args.out) or "."),
                 f"--out {args.out}: its directory does not exist")
        _require(not args.out or not os.path.isdir(args.out), f"--out {args.out}: is a directory")
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # not a failed check: the run never finished
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
