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
