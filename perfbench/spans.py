"""Outside-in tracing of magbag: spans recorded from the benchmark's own files.

`Tracer` wraps the functions named in `TARGETS` by rebinding module
attributes.  A name bound with `from .x import f` is a second reference to
the same function object, so every `magbag.<module>` attribute that holds a
target is rebound, which covers the internal call sites (for example
`suites.coulomb_sums` and `analysis.fd_curvature`).  The package namespace
`magbag` itself is left alone: the program never calls through it.  The
suite table `suites.SUITES` is rebound entry by entry, because `run_suite`
looks the suites up there.  `uninstall` puts every original back.

Each span records its duration and the time covered by its child spans;
self time is the difference.  While `tracemalloc` is tracing, each span also
records the peak of traced memory above its entry level.
"""

import functools
import sys
import time
import tracemalloc

import numpy as np

TARGETS = {
    "shell": ("make_shell_config", "pairwise_distances", "residues", "coulomb_sums",
              "write_points_csv"),
    "glued": ("residual_fields", "ball_fields", "higgs_norm", "phi_theta", "grad_phi_theta",
              "gstar_norm", "residual_report"),
    "operators": ("fd_curvature", "deformation_identity", "weitzenbock_defect",
                  "adjointness_gap"),
    "monopole": ("ps_pair_batch",),
    "analysis": ("critical_radii", "sphere_stats", "radial_profile", "flux_charge",
                 "theorem_report", "ps_energy", "local_degree"),
    "cli": ("main",),
}

SUITES = ("algebra", "ps", "lemma31", "lemma32", "theorems", "operator")

PEAK_MB = ("shell.pairwise_distances", "shell.residues", "glued.higgs_norm",
           "glued.residual_fields", "operators.fd_curvature")


def _samples(x):
    return int(np.asarray(x).size // 3)


def _ball_work(X, p_idx, cfg, *rest):
    b = _samples(X)
    return {"samples": b, "sample_sources": b * (cfg.N - 1)}


def _higgs_work(x, cfg, *rest):
    b = _samples(x)
    return {"samples": b, "sample_sources": b * cfg.N}


def _residue_work(points):
    n = len(points)
    return {"pairs": n * n}


# Work counts read from the positional arguments:
# span -> (counter, its keys, rate name).
# The rate is the span's total time in ns per unit of the last key.
_BALL = ("samples", "sample_sources")
WORK = {
    "glued.residual_fields": (_ball_work, _BALL, "ns_per_sample_source"),
    "glued.ball_fields": (_ball_work, _BALL, "ns_per_sample_source"),
    "glued.higgs_norm": (_higgs_work, _BALL, "ns_per_sample_source"),
    "shell.residues": (_residue_work, ("pairs",), "ns_per_pair"),
}


def span_names():
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    def unit(key):
        if key.endswith(".peak_mb"):
            return "MB"
        if ".ns_per_" in key:
            return "ns"
        return "s" if key.endswith("_s") else "count"

    units = {key: unit(key) for key in pass_metrics({})}
    units["process.cpu_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class _Stat:
    __slots__ = ("calls", "total", "self", "peak", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.peak = 0
        self.counts = {}


class Tracer:
    """Context manager that traces the `TARGETS` while it is active."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._patched = []  # (namespace, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        from magbag import suites

        modules = [m for name, m in list(sys.modules.items())
                   if name.startswith("magbag.") and m is not None]
        for mod_name, fn_names in TARGETS.items():
            home = sys.modules[f"magbag.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((vars(mod), attr, original))
                            setattr(mod, attr, wrapper)
        for key in SUITES:
            original = suites.SUITES[key]
            self._patched.append((suites.SUITES, key, original))
            suites.SUITES[key] = self._wrap(f"suites.{key}", original)

    def uninstall(self):
        while self._patched:
            namespace, key, original = self._patched.pop()
            namespace[key] = original

    def leftover_wrappers(self):
        """Names in magbag that still hold a wrapper (empty after uninstall)."""
        from magbag import suites

        found = []
        namespaces = [(name, vars(m)) for name, m in list(sys.modules.items())
                      if (name == "magbag" or name.startswith("magbag.")) and m is not None]
        namespaces.append(("magbag.suites.SUITES", suites.SUITES))
        for name, namespace in namespaces:
            for attr, value in namespace.items():
                if getattr(value, "__perfbench_span__", None) is not None:
                    found.append(f"{name}.{attr}")
        return found

    def take(self):
        """Return the statistics gathered so far and start afresh."""
        stats, self.stats = self.stats, {}
        return stats

    def _wrap(self, name, fn):
        work = WORK.get(name, (None,))[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name, work(*args) if work else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        wrapper.__perfbench_span__ = name
        return wrapper

    def _enter(self, name, counts):
        mem0 = 0
        if tracemalloc.is_tracing():
            mem0, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent[4] = max(parent[4], peak)
            tracemalloc.reset_peak()
        # [name, start, child time, entry memory, running peak, counts]
        self._stack.append([name, time.perf_counter(), 0.0, mem0, mem0, counts])

    def _exit(self):
        end = time.perf_counter()
        name, start, child, mem0, running, counts = self._stack.pop()
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        stat.calls += 1
        stat.total += duration
        stat.self += duration - child
        if counts:
            for key, n in counts.items():
                stat.counts[key] = stat.counts.get(key, 0) + n
        if tracemalloc.is_tracing():
            peak = max(running, tracemalloc.get_traced_memory()[1])
            stat.peak = max(stat.peak, peak - mem0)
        else:
            peak = 0
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent[4] = max(parent[4], peak)


def pass_metrics(stats):
    """Per-layer metrics of one traced pass (every name, zero when unused)."""
    out = {}
    for name in span_names():
        stat = stats.get(name, _Stat())
        out[f"{name}.calls"] = stat.calls
        out[f"{name}.total_s"] = stat.total
        out[f"{name}.self_s"] = stat.self
    for suite in SUITES:
        stat = stats.get(f"suites.{suite}", _Stat())
        out[f"suites.{suite}.total_s"] = stat.total
    for name, (_, keys, rate) in WORK.items():
        stat = stats.get(name, _Stat())
        for key in keys:
            out[f"{name}.{key}"] = stat.counts.get(key, 0)
        n = stat.counts.get(keys[-1], 0)
        out[f"{name}.{rate}"] = stat.total * 1e9 / n if n else 0.0
    for name in PEAK_MB:
        out[f"{name}.peak_mb"] = stats.get(name, _Stat()).peak / 2**20
    return out
