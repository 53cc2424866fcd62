"""Layer spans for the benchmark, recorded by wrapping public cyclemeet functions.

`harness` imports its callees by name, so wrapping a function means replacing
every attribute of every loaded cyclemeet module that is bound to it. Spans
stay in memory as (name, start, end, parent span, instance id) and are reduced
to per-layer metrics or written out when a pass ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import Optional

# layer (cyclemeet module) -> wrapped public functions
LAYERS: dict[str, tuple[str, ...]] = {
    "harness": (
        "corpus_instances",
        "analyze_instance",
        "verify_babai",
        "verify_smith",
        "verify_devos",
        "verify_thm14",
        "reports_to_json",
    ),
    "corpus": (
        "load_connected_corpus",
        "pairwise_corpus",
        "vertex_transitive_corpus",
        "random_circulants",
    ),
    "cycles": (
        "longest_cycle_length",
        "enumerate_longest_cycles",
        "is_t_transversal",
        "min_pairwise_intersection",
    ),
    "graphs": ("vertex_connectivity", "is_connected", "is_regular"),
    "flow": ("local_vertex_connectivity", "min_vertex_cut", "max_disjoint_paths", "xy_separator"),
    "transitive": ("is_vertex_transitive", "automorphism_mapping"),
    "auxgraph": ("build_aux", "type_census", "l_set", "pairwise_noncrossing", "supersaturation_report"),
    "exchange": ("improve_by_exchange",),
}

# searches with a node budget; their errors are budget exhaustions
BUDGETED = ("cycles.longest_cycle_length", "cycles.enumerate_longest_cycles", "cycles.is_t_transversal")

# calls per distinct graph: work repeated on a graph already seen in the pass
REPEATED = (
    "cycles.enumerate_longest_cycles",
    "graphs.vertex_connectivity",
    "transitive.is_vertex_transitive",
)

FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


UNITS = {"calls": "count", "self_s": "s", "share": "ratio", "errors": "count",
         "repeat_ratio": "calls/graph", "truncated_ratio": "ratio",
         "per_connectivity_call": "calls/call", "overhead_ratio": "ratio"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, in output order, with its unit."""
    names = [f"{f}.{kind}" for f in FUNCTIONS for kind in ("calls", "self_s")]
    names += [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "share")]
    names += [f"{f}.errors" for f in BUDGETED]
    names += [f"{f}.repeat_ratio" for f in REPEATED]
    names += [
        "cycles.enumerate_longest_cycles.truncated_ratio",
        "flow.local_vertex_connectivity.per_connectivity_call",
        "trace.overhead_ratio",
    ]
    return {name: UNITS[name.rsplit(".", 1)[1]] for name in names}


class Tracer:
    """Wraps the LAYERS functions while installed and records one pass of spans."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, instance id]
        self._stack: list[int] = []
        self._instance: Optional[str] = None
        self.errors: Counter = Counter()
        self.graphs: dict[str, set] = defaultdict(set)
        self.truncated = 0

    def install(self) -> None:
        from cyclemeet.cycles import BudgetExceededError

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "cyclemeet" or name.startswith("cyclemeet."))]
        for name in FUNCTIONS:
            layer, fn = name.split(".")
            original = getattr(sys.modules[f"cyclemeet.{layer}"], fn, None)
            if original is None:
                continue  # a function a later version removed reports zero calls
            wrapper = self._wrap(name, original, BudgetExceededError)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn, budget_error: type):
        is_instance = name == "harness.analyze_instance"
        budgeted = name in BUDGETED
        repeated = name in REPEATED
        enumerates = name == "cycles.enumerate_longest_cycles"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            parent = self._stack[-1] if self._stack else -1
            if is_instance:
                self._instance = args[0] if args else kwargs.get("instance_id")
            if repeated:
                self.graphs[name].add(args[0] if args else kwargs.get("g"))
            span = [name, 0.0, 0.0, parent, self._instance]
            spans.append(span)
            self._stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                if budgeted:
                    self.errors[name] += 1
                raise
            finally:
                span[2] = clock()
                self._stack.pop()
                if is_instance:
                    self._instance = None
            if enumerates and getattr(result, "truncated", False):
                self.truncated += 1
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _, _), inner in zip(self.spans, child_s):
            calls[name] += 1
            self_s[name] += end - start - inner
        out: dict[str, float] = {}
        for f in FUNCTIONS:
            out[f"{f}.calls"] = calls[f]
            out[f"{f}.self_s"] = self_s[f]
        total = sum(self_s.values())
        for layer, fns in LAYERS.items():
            layer_s = sum(self_s[f"{layer}.{fn}"] for fn in fns)
            out[f"{layer}.self_s"] = layer_s
            out[f"{layer}.share"] = layer_s / total if total else 0.0
        for f in BUDGETED:
            out[f"{f}.errors"] = self.errors[f]
        for f in REPEATED:
            distinct = len(self.graphs[f])
            out[f"{f}.repeat_ratio"] = calls[f] / distinct if distinct else 0.0
        enum_calls = calls["cycles.enumerate_longest_cycles"]
        out["cycles.enumerate_longest_cycles.truncated_ratio"] = (
            self.truncated / enum_calls if enum_calls else 0.0
        )
        kappa_calls = calls["graphs.vertex_connectivity"]
        out["flow.local_vertex_connectivity.per_connectivity_call"] = (
            calls["flow.local_vertex_connectivity"] / kappa_calls if kappa_calls else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, instance in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "instance": instance}) + "\n")
