"""Spans around the package's public functions, and the per-layer metrics.

A layer is one module of the package. `Tracer` runs inside a traced
command process: it wraps every function in `TARGETS` in each module
namespace that holds it, so calls made through `from .x import f` are
caught too, and records one span per call. `layer_metrics` turns the
spans of one workload pass into the per-layer metrics.

A span is `[name, start, end, parent, hook_s, maxrss_before_kb,
maxrss_after_kb, info]`; `hook_s` is the time the tracer spent after
`end` deriving `info` from the call's arguments and result, and is
charged to nobody.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time

PACKAGE = "hyperdecomp"

# Layer -> public functions wrapped in that module.
TARGETS: dict[str, tuple[str, ...]] = {
    "cli": (
        "main",
        "cmd_decompose",
        "cmd_analyze",
        "cmd_generate",
        "cmd_evaluate",
        "cmd_recover",
    ),
    "io": (
        "read_simplex_format",
        "read_line_format",
        "read_weighted_graph",
        "write_line_format",
        "write_weighted_graph",
        "write_report",
        "write_histogram_tsv",
        "write_spectrum_tsv",
    ),
    "core": ("canonicalize", "dedup"),
    "decompose": ("decompose", "decompose_weighted"),
    "metrics": (
        "connected_components",
        "degree_histogram",
        "effective_diameter",
        "clustering_coefficient",
        "singular_values",
    ),
    "tailfit": ("heavy_tail_verdict", "ks_dstat"),
    "generators": (
        "learn_params",
        "hyperpa_detailed",
        "naivepa",
        "subset_sampling",
        "null_model",
        "evaluate",
    ),
    "recovery": ("recover",),
}
LAYERS = tuple(TARGETS)

# Self-time metrics of single functions: metric -> spans it sums.
FUNCTION_TIMES: dict[str, tuple[str, ...]] = {
    "io.read_simplex_s": ("io.read_simplex_format",),
    "io.read_line_s": ("io.read_line_format",),
    "io.read_weighted_s": ("io.read_weighted_graph",),
    "io.write_line_s": ("io.write_line_format",),
    "io.write_weighted_s": ("io.write_weighted_graph",),
    "io.write_report_s": ("io.write_report", "io.write_histogram_tsv", "io.write_spectrum_tsv"),
    "core.canonicalize_s": ("core.canonicalize",),
    "core.dedup_s": ("core.dedup",),
    "decompose.capped_s": ("decompose.decompose",),
    "decompose.weighted_s": ("decompose.decompose_weighted",),
    "metrics.components_s": ("metrics.connected_components", "metrics.degree_histogram"),
    "metrics.diameter_s": ("metrics.effective_diameter",),
    "metrics.clustering_s": ("metrics.clustering_coefficient",),
    "metrics.spectrum_s": ("metrics.singular_values",),
    "tailfit.verdict_s": ("tailfit.heavy_tail_verdict",),
    "tailfit.ks_s": ("tailfit.ks_dstat",),
    "generators.learn_params_s": ("generators.learn_params",),
    "generators.hyperpa_s": ("generators.hyperpa_detailed",),
    "generators.naivepa_s": ("generators.naivepa",),
    "generators.subset_s": ("generators.subset_sampling",),
    "generators.null_s": ("generators.null_model",),
    "generators.evaluate_self_s": ("generators.evaluate",),
    "recovery.recover_s": ("recovery.recover",),
}
GENERATOR_SPANS = (
    "generators.hyperpa_detailed",
    "generators.naivepa",
    "generators.subset_sampling",
    "generators.null_model",
)

# Units of every per-layer metric, in the order they are reported.
UNITS: dict[str, str] = {
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "cli.commands": "count",
    **{name: "s" for name in FUNCTION_TIMES if name.startswith("io.")},
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "io.read_mb_per_s": "MB/s",
    "core.canonicalize_s": "s",
    "core.dedup_s": "s",
    "core.hyperedges_in": "count",
    "core.dedup_dropped": "count",
    "decompose.capped_s": "s",
    "decompose.weighted_s": "s",
    "decompose.calls": "count",
    "decompose.nodes_out": "count",
    "decompose.edges_out": "count",
    "decompose.edges_per_s": "1/s",
    "decompose.hyperedges_over_cap": "count",
    "metrics.components_s": "s",
    "metrics.diameter_s": "s",
    "metrics.bfs_sources": "count",
    "metrics.clustering_s": "s",
    "metrics.clustering_maxrss_growth_mb": "MB",
    "metrics.spectrum_s": "s",
    "metrics.spectrum_values": "count",
    "metrics.spectrum_dense_fallbacks": "count",
    "metrics.graph_edges": "count",
    "tailfit.verdict_s": "s",
    "tailfit.verdicts": "count",
    "tailfit.tpl_unavailable": "count",
    "tailfit.ks_s": "s",
    "generators.learn_params_s": "s",
    "generators.hyperpa_s": "s",
    "generators.naivepa_s": "s",
    "generators.subset_s": "s",
    "generators.null_s": "s",
    "generators.hyperedges_out": "count",
    "generators.hyperedges_per_s": "1/s",
    "generators.hyperpa_fallback_draws": "count",
    "generators.hyperpa_capped_draws": "count",
    "generators.evaluate_self_s": "s",
    "generators.profiles_computed": "count",
    "recovery.recover_s": "s",
    "recovery.edges_in": "count",
    "recovery.hyperedges_out": "count",
    "recovery.edges_per_s": "1/s",
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "cli"},
    "trace.overhead_frac": "ratio",
}


# --- recording (runs inside the traced command process) --------------------


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _info_decompose(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    cap = a["cfg"].max_edge_size
    over = sum(1 for e in a["H"].edges if len(e.members) > cap)
    return {"nodes": result.num_nodes, "edges": result.num_edges, "over_cap": over}


def _info_weighted(fn, args, kwargs, result) -> dict:
    return {"nodes": result.base.num_nodes, "edges": result.base.num_edges, "over_cap": 0}


def _info_diameter(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    n = a["G"].num_nodes
    exact = n <= a["exact_threshold"] or a["num_sources"] >= n
    return {"bfs_sources": n if exact else a["num_sources"]}


def _info_spectrum(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    G = a["G"]
    n = G.num_nodes
    m = min(n, 500) if a["m"] is None else min(a["m"], n)
    dense = n > 0 and G.num_edges > 0 and m > n - 2
    return {"values": len(result.values), "dense": int(dense)}


def _info_verdict(fn, args, kwargs, result) -> dict:
    return {"tpl_unavailable": int(result.ratios.get("truncated-powerlaw") is None)}


def _info_recover(fn, args, kwargs, result) -> dict:
    graphs = _bound(fn, args, kwargs)["graphs"]
    edges_in = sum(G.base.num_edges for G in graphs.values())
    return {"edges_in": edges_in, "hyperedges_out": result.num_edges}


def _info_generated(fn, args, kwargs, result) -> dict:
    H = result[0] if isinstance(result, tuple) else result
    return {"hyperedges_out": H.num_edges}


INFO = {
    "core.canonicalize": lambda fn, a, k, r: {"hyperedges": r.num_edges},
    "core.dedup": lambda fn, a, k, r: {"dropped": _bound(fn, a, k)["H"].num_edges - r.num_edges},
    "decompose.decompose": _info_decompose,
    "decompose.decompose_weighted": _info_weighted,
    "metrics.connected_components": lambda fn, a, k, r: {
        "graph_edges": _bound(fn, a, k)["G"].num_edges
    },
    "metrics.effective_diameter": _info_diameter,
    "metrics.singular_values": _info_spectrum,
    "tailfit.heavy_tail_verdict": _info_verdict,
    "recovery.recover": _info_recover,
    **{name: _info_generated for name in GENERATOR_SPANS},
}


class TargetMissing(RuntimeError):
    """A wrapped function no longer exists where the benchmark expects it."""


class Tracer:
    """Records spans for every call into a wrapped function, in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        info_of = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, 0.0, _maxrss_kb(), 0, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[6] = _maxrss_kb()
                self._stack.pop()
            if info_of is not None:
                span[7] = info_of(fn, args, kwargs, result)
                span[4] = time.perf_counter() - span[2]
            return result

        return wrapper

    def install(self) -> None:
        """Wrap each target in every loaded package module that binds it.

        Every target is looked up before any is wrapped, so a missing one
        leaves the package untouched.
        """
        importlib.import_module(f"{PACKAGE}.cli")
        found = []
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for fname in names:
                fn = getattr(home, fname, None)
                if not callable(fn):
                    raise TargetMissing(f"{PACKAGE}.{layer}.{fname} does not exist")
                found.append((f"{layer}.{fname}", fn))
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == PACKAGE]
        for name, fn in found:
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --- analysis (runs in the benchmark process) ------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1] + s[4]
    return own


def _under(spans: list[list], index: int, ancestor: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(commands: list[list[list]]) -> tuple[dict[str, float], set[str], float]:
    """Per-layer metrics from the spans of each command of one pass.

    Counts are sums over the pass. Also returns the names of the functions
    hit and the total time spent inside readers. Metrics fed by the
    untraced run, the manifests or the file sizes are left to the caller.
    """
    by_name: dict[str, float] = {}
    by_layer = {layer: 0.0 for layer in LAYERS}
    totals: dict[str, float] = {}
    reads = 0.0

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for spans in commands:
        own = self_times(spans)
        for i, span in enumerate(spans):
            name, info = span[0], span[7] or {}
            by_name[name] = by_name.get(name, 0.0) + own[i]
            by_layer[name.split(".")[0]] += own[i]
            add("calls." + name, 1)
            if name.startswith("io.read_"):
                reads += span[2] - span[1]
            for key, value in info.items():
                add(f"{name}.{key}", value)
            if name == "metrics.clustering_coefficient":
                add("clustering_growth_kb", span[6] - span[5])
            if name == "decompose.decompose" and _under(spans, i, "generators.evaluate"):
                add("profiles", 1)

    def total(key: str) -> float:
        return totals.get(key, 0.0)

    out: dict[str, float] = {"cli.self_s": by_layer["cli"]}
    for metric, names in FUNCTION_TIMES.items():
        out[metric] = sum(by_name.get(n, 0.0) for n in names)
    for layer in LAYERS:
        if layer != "cli":
            out[f"{layer}.self_s"] = by_layer[layer]
    decomposed = ("decompose.decompose", "decompose.decompose_weighted")
    edges_out = sum(total(f"{n}.edges") for n in decomposed)
    decompose_s = out["decompose.capped_s"] + out["decompose.weighted_s"]
    generated = sum(total(f"{n}.hyperedges_out") for n in GENERATOR_SPANS)
    generate_s = sum(by_name.get(n, 0.0) for n in GENERATOR_SPANS)
    out.update(
        {
            "core.hyperedges_in": total("core.canonicalize.hyperedges"),
            "core.dedup_dropped": total("core.dedup.dropped"),
            "decompose.calls": sum(total("calls." + n) for n in decomposed),
            "decompose.nodes_out": sum(total(f"{n}.nodes") for n in decomposed),
            "decompose.edges_out": edges_out,
            "decompose.edges_per_s": edges_out / decompose_s if decompose_s else 0.0,
            "decompose.hyperedges_over_cap": total("decompose.decompose.over_cap"),
            "metrics.bfs_sources": total("metrics.effective_diameter.bfs_sources"),
            "metrics.clustering_maxrss_growth_mb": total("clustering_growth_kb") / 1024.0,
            "metrics.spectrum_values": total("metrics.singular_values.values"),
            "metrics.spectrum_dense_fallbacks": total("metrics.singular_values.dense"),
            "metrics.graph_edges": total("metrics.connected_components.graph_edges"),
            "tailfit.verdicts": total("calls.tailfit.heavy_tail_verdict"),
            "tailfit.tpl_unavailable": total("tailfit.heavy_tail_verdict.tpl_unavailable"),
            "generators.hyperedges_out": generated,
            "generators.hyperedges_per_s": generated / generate_s if generate_s else 0.0,
            "generators.profiles_computed": total("profiles"),
            "recovery.edges_in": total("recovery.recover.edges_in"),
            "recovery.hyperedges_out": total("recovery.recover.hyperedges_out"),
        }
    )
    recover_s = out["recovery.recover_s"]
    out["recovery.edges_per_s"] = out["recovery.edges_in"] / recover_s if recover_s else 0.0
    return out, set(by_name), reads
