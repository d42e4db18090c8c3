"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py

They run one pass of every workload twice (large_shell peaks near 1.5 GB),
so they are not part of the package's test suite.
"""

import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import spans
import workloads
from run import REFERENCE
from workloads import OUT_DIR, ROOT, WORKLOADS

workloads.load_magbag()


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def test_per_layer_metrics_match_the_tracer():
    with open(ROOT / "BENCHMARK.json") as fh:
        per_layer = json.load(fh)["per_layer"]
    assert {m["name"]: m["unit"] for m in per_layer} == spans.metric_units()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_outputs_equal_untraced(name, reference):
    wl = WORKLOADS[name]
    inputs = wl.setup(0)
    try:
        plain = wl.outputs(wl.run(inputs))
        tracer = spans.Tracer()
        tracemalloc.start()
        try:
            with tracer:
                assert tracer.leftover_wrappers()
                traced = wl.outputs(wl.run(inputs))
        finally:
            tracemalloc.stop()
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    assert traced.values == plain.values
    assert tracer.leftover_wrappers() == []
    assert any(stat.calls for stat in tracer.stats.values())
    _, failed = workloads.compare(plain, reference["fixed"][name],
                                  reference["seeded"]["0"][name])
    assert failed == []


def test_compare_catches_a_flipped_sign(reference):
    fixed = reference["fixed"]["residual"]
    out = workloads.Outputs()
    for key, value in fixed.items():
        out.add(key, value)
    assert workloads.compare(out, fixed, None) == (len(fixed), [])
    out.values["report.max_gT"] = -out.values["report.max_gT"]
    assert workloads.compare(out, fixed, None)[1] == ["report.max_gT"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "residual",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
