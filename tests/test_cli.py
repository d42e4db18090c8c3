import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magbag
from magbag.cli import main


def run_cli(args):
    return main(args)


def test_place_writes_csv(tmp_path):
    out = tmp_path / "theta.csv"
    code = run_cli(["place", "--n", "100", "--m", "16", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "index,band,x,y,z,r_p"
    assert len(lines) == 101
    R = 100 * (1 + 1.6 * math.log(100))
    for line in lines[1:]:
        cells = line.split(",")
        radius = math.sqrt(sum(float(v) ** 2 for v in cells[2:5]))
        assert abs(radius - R) < 1e-9 * R


def test_place_rejects_small_charge(capsys):
    assert run_cli(["place", "--n", "7"]) == 2
    assert "charge" in capsys.readouterr().err


def test_place_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(["place", "--n", "64", "--m", "16", "--out", str(a)])
    run_cli(["place", "--n", "64", "--m", "16", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("args", [
    ["place", "--n", "64", "--m", "16"],
    ["profile", "--n", "100", "--m", "16", "--quad", "256", "--steps", "3"],
])
def test_stdout_matches_out_file(tmp_path, capsys, args):
    capsys.readouterr()
    assert run_cli(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "table.csv"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == printed.encode()


def test_profile_core_mode(tmp_path):
    out = tmp_path / "prof.csv"
    code = run_cli(
        ["profile", "--n", "1", "--quad", "512", "--r-min", "1", "--r-max", "3",
         "--steps", "5", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 6
    radii = [float(l.split(",")[0]) for l in lines[1:]]
    assert radii == sorted(radii) and radii[0] == 1.0
    row2 = [float(v) for v in lines[1 + 2].split(",")]  # r = 2
    assert row2[0] == 2.0
    assert row2[2] == pytest.approx(1 / math.tanh(2) - 0.5, abs=1e-6)


def test_profile_glued_mode(tmp_path, cfg100):
    out = tmp_path / "prof.csv"
    code = run_cli(
        ["profile", "--n", "100", "--m", "16", "--quad", "1024", "--r-min", "0.5",
         "--r-max", "2.0", "--steps", "4", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(2 * cfg100.R, rel=1e-12)
    assert last[2] == pytest.approx(1 - 100 / (2 * cfg100.R), rel=0.02)


def test_verify_algebra_suite(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["verify", "--suite", "algebra", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert all(item["pass"] for item in report)
    assert {"check", "value", "bound", "pass"} <= set(report[0])


def test_verify_unknown_suite():
    assert run_cli(["verify", "--suite", "nonsense"]) == 2


@pytest.mark.parametrize("command", ["place", "profile", "verify"])
def test_config_flag_exits_2(tmp_path, capsys, command):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"n": 64}))
    assert run_cli([command, "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert "--config" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag,value,message", [
    ("--n", "100.5", "invalid int value"), ("--m", "inf", "finite m > 1"),
], ids=["n", "m"])
def test_place_rejects_bad_shell_parameters(capsys, flag, value, message):
    # argparse types --n; the shell builder rejects a non-finite m
    assert run_cli(["place", flag, value]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_out_directory_checked_before_computing(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr("magbag.suites.run_suite", never)
    monkeypatch.setattr("magbag.shell.make_shell_config", never)
    missing = str(tmp_path / "missing" / "dir" / "r.json")
    for out, message in ((missing, "its directory does not exist"), (str(tmp_path), "is a directory")):
        for argv in (["verify", "--suite", "all"], ["place"], ["profile", "--n", "100"]):
            assert run_cli([*argv, "--out", out]) == 2
            captured = capsys.readouterr()
            assert f"--out {out}: {message}" in captured.err
            assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_allocation_failure_exits_2(tmp_path, capsys, monkeypatch):
    # exit 1 means a failed check; a run that cannot allocate checked nothing
    def oversized(cfg):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    docs, names, _ = magbag.cli.COMMANDS["profile"]
    monkeypatch.setitem(magbag.cli.COMMANDS, "profile", (docs, names, oversized))
    out = tmp_path / "prof.csv"
    assert run_cli(["profile", "--n", "100", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: not enough memory: Unable to allocate 74.5 GiB for an array\n"
    assert captured.out == ""
    assert not out.exists()


def test_failed_run_keeps_existing_out(tmp_path):
    out = tmp_path / "prof.csv"
    out.write_text("kept\n")
    assert run_cli(["profile", "--n", "1", "--quad", "64", "--out", str(out)]) == 2
    assert out.read_text() == "kept\n"


def test_invalid_flags():
    assert run_cli(["profile", "--n", "1", "--quad", "64"]) == 2  # quad too small
    assert run_cli(["profile", "--n", "1", "--h", "1.0"]) == 2  # unrecognised flag
    assert run_cli(["verify", "--n", "3"]) == 2


@pytest.mark.parametrize("flag,value", [("--r-max", "inf"), ("--r-min", "nan"), ("--r-max", "nan")])
def test_profile_rejects_non_finite_radii(capsys, flag, value):
    args = ["profile", "--n", "16", "--m", "16", "--quad", "256", "--steps", "3", flag, value]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert "r-min and r-max must be finite" in captured.err
    assert captured.out == ""


# The options each subcommand reads; every other option is an invalid invocation.
READS = {
    "place": {"n", "m", "out"},
    "profile": {"n", "m", "quad", "r_min", "r_max", "steps", "out"},
    "verify": {"suite", "out"},
}
VALUES = {"n": 16, "m": 16.0, "quad": 512, "r_min": 0.5, "r_max": 2.0, "steps": 3,
          "suite": "algebra"}
FOREIGN = [(command, name) for command, names in READS.items()
           for name in sorted(set(VALUES) - names)]


@pytest.mark.parametrize("command,name", FOREIGN)
def test_foreign_flag_exits_2(capsys, command, name):
    flag = "--" + name.replace("_", "-")
    assert run_cli([command, flag, str(VALUES[name])]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""


def test_verify_rejects_shell_options(capsys):
    # verify runs its suites at their own fixed N and m; --n and --m are not its options
    assert run_cli(["verify", "--suite", "algebra", "--n", "1600", "--m", "2"]) == 2
    captured = capsys.readouterr()
    assert "--n" in captured.err
    assert captured.out == ""


def _fresh_process(argv, out):
    """Exit code of `magbag.cli` run with argv in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(magbag.__file__).resolve().parents[1])}
    cmd = [sys.executable, "-m", "magbag.cli", *argv, "--out", str(out)]
    return subprocess.run(cmd, env=env, capture_output=True, timeout=300).returncode


def test_repeated_calls_match_fresh_processes(tmp_path):
    # main reuses one parser; a flag given to one call must not reach the
    # next, so the third and fourth calls fall back to m = 16, r-min = 0.5
    # and 32 steps
    calls = [
        ["place", "--n", "64", "--m", "2"],
        ["profile", "--n", "100", "--m", "81", "--quad", "256", "--r-min", "1", "--steps", "3"],
        ["place", "--n", "64"],
        ["profile", "--n", "100", "--quad", "256"],
        ["verify", "--suite", "algebra"],
    ]
    for i, argv in enumerate(calls):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        assert main([*argv, "--out", str(here)]) == _fresh_process(argv, fresh) == 0
        assert here.read_bytes() == fresh.read_bytes()
    assert (tmp_path / "here0").read_bytes() != (tmp_path / "here2").read_bytes()
    assert len((tmp_path / "here3").read_text().splitlines()) == 1 + 32
