"""The scripts load as modules and name only package API that exists, so a
deleted name they use fails here and not only when a script is run.  The
benchmark's files are only read, for the same check on the names it traces
and calls."""

import ast
import importlib.util
import inspect
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["calibrate_constants", "desk_scale_survey"])
def test_script_names_existing_api(name):
    module = _load(name)
    lookups = [
        (getattr(module, node.value.id, None), node.attr)
        for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    ]
    lookups = [(mod, attr) for mod, attr in lookups
               if inspect.ismodule(mod) and mod.__name__.startswith("magbag")]
    assert lookups
    assert [f"{mod.__name__}.{attr}" for mod, attr in lookups if not hasattr(mod, attr)] == []


def test_calibration_prints_every_lemma_suite_check(capsys):
    from magbag.suites import lemma31_suite, lemma32_suite

    _load("calibrate_constants").suite_values()
    printed = {line.split(":")[0].strip() for line in capsys.readouterr().out.splitlines()
               if line.startswith("  ")}
    assert printed == {c["check"] for c in lemma31_suite() + lemma32_suite()}


def _perfbench_lookups():
    """(module, attribute) pairs the benchmark looks up in magbag: every
    `spans.TARGETS` entry, and every `<module>.<attr>` in `workloads.py`
    whose module came from `from magbag import ...`."""
    spans = ast.parse((PERFBENCH / "spans.py").read_text())
    (targets,) = [
        node.value for node in spans.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    pairs = [(mod, fn) for mod, fns in ast.literal_eval(targets).items() for fn in fns]
    workloads = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(workloads)
        if isinstance(node, ast.ImportFrom) and node.module == "magbag"
        for alias in node.names
    }
    pairs += [
        (node.value.id, node.attr) for node in ast.walk(workloads)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    return pairs


def test_perfbench_names_existing_api():
    pairs = _perfbench_lookups()
    assert ("glued", "ball_evaluator") in pairs and ("monopole", "ps_pair_batch") in pairs
    missing = [f"magbag.{mod}.{attr}" for mod, attr in pairs
               if not hasattr(importlib.import_module(f"magbag.{mod}"), attr)]
    assert missing == []


def test_survey_row_keys():
    tracemalloc.start()
    try:
        row = _load("desk_scale_survey").survey_row(64, 16.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 200000-sample ray goes through phi_theta's row blocks, not one (samples, N) table
    assert peak <= 64e6
    assert row["profile_zero_radii_over_L"] == [0.16763482417412084]
    assert set(row) == {
        "N", "m", "R", "L", "residue_target", "r_min", "r_max", "rL_min",
        "rL_needed_for_positive_profile", "profile_zero_radii_over_L",
        "gstar_coarse", "gstar_fine", "gstar_stable",
    }
    assert row["N"] == 64 and row["gstar_stable"] is False


def test_bench_pairs_verdicts():
    verdict = _load("bench_pairs").verdict
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    # lower in every pair, by more than the parent's IQR (0.0375)
    v = verdict(parent, [p - 0.1 for p in parent], "lower", 0.25)
    assert v["wins"] == 10 and v["gain"] and v["no_regression"]
    assert v["parent_quartiles"][1] == 1.0
    # 9 of 10 wins and one tie: still a gain; ties count for neither side
    change = [p - 0.1 for p in parent[:9]] + [parent[9]]
    assert verdict(parent, change, "lower", 0.25)["wins"] == 9
    assert verdict(parent, change, "lower", 0.25)["gain"]
    # 8 of 10 wins is no gain, however large the median gap
    change = [p - 0.1 for p in parent[:8]] + [p + 0.1 for p in parent[8:]]
    assert not verdict(parent, change, "lower", 0.25)["gain"]
    # every pair won, but the medians differ by less than the parent's IQR
    v = verdict(parent, [p - 0.01 for p in parent], "lower", 0.25)
    assert v["wins"] == 10 and not v["gain"]
    # "higher" is better: the same samples read the other way round
    v = verdict(parent, [p + 0.1 for p in parent], "higher", 0.05)
    assert v["wins"] == 10 and v["gain"] and v["no_regression"]
    assert not verdict(parent, [p - 0.1 for p in parent], "higher", 0.05)["no_regression"]
    # a parent IQR of 3.75 % resolves a 5 % bound but not a 2 % one, unless
    # every change run is better than every parent run
    assert verdict(parent, [p + 0.01 for p in parent], "lower", 0.05)["resolved"]
    assert not verdict(parent, [p - 0.01 for p in parent], "lower", 0.02)["resolved"]
    assert verdict(parent, [p - 0.1 for p in parent], "lower", 0.02)["resolved"]
    # a median 20 % worse is within a 25 % bound, 30 % worse is not
    assert verdict(parent, [1.2 * p for p in parent], "lower", 0.25)["no_regression"]
    assert not verdict(parent, [1.3 * p for p in parent], "lower", 0.25)["no_regression"]
    for bad in ((parent, parent[:9], "lower"), (parent[:1], parent[:1], "lower"),
                (parent, parent, "smaller")):
        with pytest.raises(ValueError):
            verdict(*bad, 0.25)


def test_bench_pairs_reads_only_the_benchmark():
    # the script runs perfbench/run.py and reads BENCHMARK.json; it names no
    # magbag module and keeps every name inside its functions
    tree = ast.parse((SCRIPTS / "bench_pairs.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not any("magbag" in name for name in imported)
    assert [type(node).__name__ for node in tree.body
            if not isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef))] == ["Expr", "If"]
