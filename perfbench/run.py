"""Run one magbag benchmark workload and print its metrics.

    python3 perfbench/run.py --workload residual --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

A workload runs in this fresh process as one closed-loop client: each pass
starts when the previous one has ended.  After one untimed warm-up pass,
passes repeat until --seconds have elapsed (at least MIN_PASSES of them),
and every pass's outputs are checked against perfbench/reference.json.

--trace 0 reports the end-to-end metrics: wall_s (median pass), setup_s
(median over fresh processes, one before the passes and one after each,
that import magbag and draw the seeded inputs on one BLAS thread) and
peak_rss_mb.  --trace 1 spends half of --seconds
untraced and half under the outside-in tracer (spans.py) with tracemalloc
on, and reports the per-layer metrics.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.

--workload all runs every workload, each in its own process, and prints
one table.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import spans
import workloads
from workloads import OUT_DIR, ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
MIN_PASSES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _getconf(name):
    try:
        res = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(res.stdout.strip())
    except (OSError, subprocess.TimeoutExpired, ValueError):
        return None


def _git_revision():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_info():
    page = os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": _git_revision(),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * page / 2**20,
        "mem_free_mb": os.sysconf("SC_AVPHYS_PAGES") * page / 2**20,
    }


def _setup_once(workload, seed):
    # One BLAS thread: OpenBLAS starts its thread pool when numpy is
    # imported, and with a second thread that start-up took 0.17-0.28 s on a
    # 2-core host, depending on the load on the other core.  With one thread
    # it took 0.22-0.24 s.  The timed passes keep numpy's default threads.
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--setup-only"],
                   check=True, stdout=subprocess.DEVNULL, env=env)
    return time.perf_counter() - t0


class Checker:
    """Counts checked outputs and the ones that disagree with the reference."""

    def __init__(self, workload, seed):
        with open(REFERENCE) as fh:
            ref = json.load(fh)
        self.fixed = ref["fixed"][workload]
        self.seeded = ref["seeded"].get(str(seed), {}).get(workload)
        self.attempted = 0
        self.failed = []

    def check(self, outputs):
        attempted, failed = workloads.compare(outputs, self.fixed, self.seeded)
        self.record(attempted, failed)

    def record(self, attempted, failed):
        self.attempted += attempted
        self.failed.extend(failed)


def _passes(wl, inputs, seconds, on_pass):
    """Closed loop: run passes until `seconds` have elapsed; (walls, cpus)."""
    walls, cpus = [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        c0, t0 = time.process_time(), time.perf_counter()
        raw = wl.run(inputs)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        on_pass(raw)
    return walls, cpus


def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    inputs = wl.setup(seed)
    checker = Checker(name, seed)
    print("host " + json.dumps(host_info()))
    print("largest_array " + json.dumps(wl.largest_array))

    warm = wl.outputs(wl.run(inputs))
    checker.check(warm)
    if not trace:
        # One set-up process after each pass: host speed drifts over seconds,
        # so set-up is sampled across the whole run, like the passes.
        setups = [_setup_once(name, seed)]

        def untraced_pass(raw):
            checker.check(wl.outputs(raw))
            setups.append(_setup_once(name, seed))

        walls, _ = _passes(wl, inputs, seconds, untraced_pass)
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = UNITS
        print(f"passes {len(walls)}: wall_s min {min(walls):.4f} max {max(walls):.4f}; "
              f"setup_s samples {[round(s, 4) for s in setups]}")
    else:
        walls, cpus = _passes(wl, inputs, seconds / 2,
                              lambda raw: checker.check(wl.outputs(raw)))
        per_pass = []
        tracer = spans.Tracer()

        def traced_pass(raw):
            per_pass.append(spans.pass_metrics(tracer.take()))
            outputs = wl.outputs(raw)
            checker.check(outputs)
            # Tracing must not change a single output.
            checker.record(1, [] if outputs.values == warm.values else ["trace.outputs_equal"])

        tracemalloc.start()
        try:
            with tracer:
                traced_walls, _ = _passes(wl, inputs, seconds / 2, traced_pass)
        finally:
            tracemalloc.stop()
        leftover = tracer.leftover_wrappers()
        checker.record(1, [f"trace.leftover:{w}" for w in leftover])
        metrics = {}
        for key in per_pass[0]:
            vals = [p[key] for p in per_pass]
            metrics[key] = max(vals) if key.endswith(".peak_mb") else statistics.median(vals)
        metrics["process.cpu_s"] = statistics.median(cpus)
        metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                           / statistics.median(walls))
        units = spans.metric_units()
        wall = statistics.median(traced_walls)
        split = sorted(((metrics[f"{s}.self_s"], s) for s in spans.span_names()), reverse=True)
        print("self-time split of a traced pass (%.3f s): " % wall + ", ".join(
            f"{s} {t / wall:.1%}" for t, s in split[:6] if t > 0))

    failed = len(checker.failed)
    print(f"fail_ratio {failed / checker.attempted:.6g} ratio "
          f"({failed} of {checker.attempted} checked outputs disagree)")
    for key in checker.failed[:20]:
        print(f"mismatch {key}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    return {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args):
    """Every workload in its own process; one table and one JSON line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            return res.returncode
        result = json.loads(res.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
            rows.append((name, key, m["value"], m["unit"]))
        rows.append((name, "fail_ratio", result["failed"] / result["attempted"], "ratio"))
    for name, key, value, unit in rows:
        print(f"{name:<12} {key:<48} {value:>14.6g} {unit}")
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import magbag, draw the seeded inputs and exit")
    args = parser.parse_args(argv)
    try:
        workloads.load_magbag()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[args.workload].setup(args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
