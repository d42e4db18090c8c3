"""The scripts load as modules and name only package API that exists, so a
deleted name they use fails here and not only when a script is run."""

import ast
import importlib.util
import inspect
import tracemalloc
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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


def test_survey_row_keys():
    tracemalloc.start()
    try:
        row = _load("desk_scale_survey").survey_row(64, 16.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 200000-sample ray is evaluated in chunks, not as one (samples, N, 3) array
    assert peak <= 64e6
    assert row["profile_zero_radii_over_L"] == [0.16763482417412084]
    assert set(row) == {
        "N", "m", "R", "L", "residue_target", "r_min", "r_max", "rL_min",
        "rL_needed_for_positive_profile", "profile_zero_radii_over_L",
        "gstar_coarse", "gstar_fine", "gstar_stable",
    }
    assert row["N"] == 64 and row["gstar_stable"] is False
