"""Command-line front end.

Each subcommand takes only the options it reads, as flags or as the keys of
a flat JSON object given with `--config` (flags override the file):

- `place` writes the shell point table: n, m, out;
- `profile` writes a radial |Phi| profile: n, m, quad, r-min, r-max, steps,
  out (config keys r_min, r_max);
- `verify` runs a named check suite and emits a JSON report: suite, out.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 invalid
invocation.
"""

import argparse
import contextlib
import functools
import json
import math
import numbers
import sys

import numpy as np

# name -> (type, default, help).  argparse types the flags; a --config value
# must already have the type (out may also be null).
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

_FILE_TYPES = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number"),
               str: (str, "a string")}

# subcommand -> (help, the options it reads)
COMMANDS = {
    "place": ("write the shell point table as CSV", ("n", "m", "out")),
    "profile": ("write a radial |Phi| profile as CSV",
                ("n", "m", "quad", "r_min", "r_max", "steps", "out")),
    "verify": ("run a verification suite, emit a JSON report", ("suite", "out")),
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
    for command, (docs, names) in COMMANDS.items():
        # A flag not spelled out in full, or not read by the subcommand, is an
        # error.  A flag not given sets no attribute, so the file shows through.
        p = sub.add_parser(command, help=docs, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        for name in names:
            kind, _, text = OPTIONS[name]
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, help=text)
        p.add_argument("--config", help="JSON object keyed by this subcommand's options")
    return parser


def _merge_config(args):
    """Defaults, then the --config file, then the flags given."""
    names = COMMANDS[args.command][1]
    cfg = {name: OPTIONS[name][1] for name in names}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = json.load(fh)
        _require(isinstance(data, dict), "the config file must hold a JSON object")
        unknown = sorted(set(data) - set(names))
        _require(not unknown, f"unknown config keys for {args.command}: {unknown}")
        for key, val in data.items():
            kind, default, _ = OPTIONS[key]
            base, noun = _FILE_TYPES[kind]
            if default is None:  # out: a path or null
                base, noun = (base, type(None)), noun + " or null"
            ok = isinstance(val, base) and not isinstance(val, bool)
            _require(ok, f"{key} must be {noun}, got {val!r}")
        cfg.update(data)
    cfg.update((name, getattr(args, name)) for name in names if hasattr(args, name))
    return argparse.Namespace(**cfg)


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


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler = {"place": cmd_place, "profile": cmd_profile, "verify": cmd_verify}[args.command]
    try:
        return handler(_merge_config(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
