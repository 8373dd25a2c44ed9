"""Spans around each layer's public entry points, patched from outside.

The program under test is not modified: ``install`` replaces functions
and methods with timing wrappers on the objects through which
``nucleus_decomposition`` reaches them. ``repro.nucleus.decomp`` binds
its helpers by name at import, so those are wrapped on that module;
``spark_s_counts`` is imported lazily inside the call, so it is wrapped
on ``repro.cliques.spark_count``; ``CliqueTable``, ``Bucketing`` and the
aggregators are wrapped on their classes.

A span is ``[name, start, end, parent]``; spans of one decomposition
are kept in memory and folded into per-layer metrics by ``summarize``.
A layer's seconds are the summed durations of its outermost spans (a
span nested in another span of the same layer is not counted twice),
and ``nucleus.self_s`` is the root span minus its direct children.
"""
from __future__ import annotations

import functools
import time
from collections import Counter

# Span name -> (module or class path, attribute). Names start with the
# layer they belong to; the layer is the text before the first dot.
SPANS = {
    "nucleus.decomp": ("repro.nucleus.decomp", "nucleus_decomposition"),
    "graphs.build_csr": ("repro.nucleus.decomp", "build_csr"),
    "graphs.make_rank": ("repro.nucleus.decomp", "make_rank"),
    "graphs.relabel": ("repro.nucleus.decomp", "relabel"),
    "graphs.orient_csr": ("repro.nucleus.decomp", "orient_csr"),
    "cliques.count": ("repro.nucleus.decomp", "s_counts_per_r_clique"),
    "cliques.update": ("repro.nucleus.decomp", "extend_cliques"),
    "spark.count": ("repro.cliques.spark_count", "spark_s_counts"),
    "tables.build": ("repro.nucleus.decomp", "make_table"),
    "tables.lookup": ("repro.tables.clique_table:CliqueTable", "lookup"),
    "tables.decode": ("repro.tables.clique_table:CliqueTable", "decode"),
    "bucketing.init": ("repro.bucketing:Bucketing", "__init__"),
    "bucketing.next_bucket": ("repro.bucketing:Bucketing", "next_bucket"),
    "bucketing.update": ("repro.bucketing:Bucketing", "update"),
    "aggregation.make": ("repro.nucleus.decomp", "make_aggregator"),
    "aggregation.begin_round": ("repro.aggregation:_BaseU", "begin_round"),
    "aggregation.record": ("repro.aggregation:_BaseU", "record"),
    "aggregation.drain": ("repro.aggregation:_BaseU", "drain"),
    "nucleus.contract": ("repro.nucleus.decomp", "maybe_contract"),
}
# Per-layer metric -> unit.
PER_LAYER = {
    "graphs.prep_s": "s",
    "graphs.make_rank_s": "s",
    "cliques.count_s": "s",
    "cliques.update_s": "s",
    "cliques.update_calls": "count",
    "cliques.scliques_discovered": "count",
    "spark.count_s": "s",
    "spark.jobs": "count",
    "spark.tasks": "count",
    "spark.failed_tasks": "count",
    "tables.build_s": "s",
    "tables.memory_units": "count",
    "tables.allocated_cells": "count",
    "tables.lookup_s": "s",
    "tables.lookup_rows": "count",
    "tables.decode_s": "s",
    "bucketing.s": "s",
    "bucketing.rounds": "count",
    "bucketing.bucket_moves": "count",
    "bucketing.rematerializations": "count",
    "aggregation.s": "s",
    "aggregation.updated": "count",
    "aggregation.serialized_ops": "count",
    "aggregation.clear_work": "count",
    "nucleus.contract_s": "s",
    "nucleus.contractions": "count",
    "nucleus.self_s": "s",
    "trace.overhead_s": "s",
}


def _resolve(path: str):
    import importlib

    mod, _, cls = path.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.live: dict[str, object] = {}  # last instance seen per layer
        self.spark_status = None  # callable -> (jobs, tasks, failed) totals
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == name:
                return orig(*args, **kwargs)  # super() call inside the same span
            parent = stack[-1] if stack else -1
            status = name == "spark.count" and tracer.spark_status is not None
            before = tracer._hook(parent) if status else None
            span = [name, 0.0, 0.0, parent]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if status:
                after = tracer._hook(parent)
                for key, b, a in zip(("spark.jobs", "spark.tasks", "spark.failed_tasks"), before, after):
                    tracer.counts[key] += a - b
            else:
                tracer._post(name, args, out)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def _hook(self, parent: int) -> tuple[int, int, int]:
        """Read the Spark status totals inside a ``trace.hook`` span, so the
        time counts as tracing overhead, not as the parent's self time."""
        t0 = time.perf_counter()
        out = self.spark_status()
        self.spans.append(["trace.hook", t0, time.perf_counter(), parent])
        return out

    def _post(self, name: str, args: tuple, out) -> None:
        c = self.counts
        if name == "tables.lookup":
            c["tables.lookup_rows"] += len(args[1])
        elif name == "bucketing.init":
            self.live["bucketing"] = args[0]
        elif name == "aggregation.make":
            self.live["aggregation"] = out
        elif name == "aggregation.drain":
            c["aggregation.updated"] += len(out)

    def install(self) -> "Tracer":
        for name, (path, attr) in SPANS.items():
            owner = _resolve(path)
            self.wrap(owner, attr, name)
            # Overrides (the aggregators' drain and begin_round) call the
            # base method through super(); the same-name rule in ``wrap``
            # folds the two into one span.
            for sub in owner.__subclasses__() if isinstance(owner, type) else ():
                if attr in sub.__dict__:
                    self.wrap(sub, attr, name)
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.live.clear()

    def fired(self) -> set[str]:
        return {s[0] for s in self.spans} - {"trace.hook"}

    def summarize(self, res) -> dict[str, float]:
        """Per-layer metrics of the one decomposition traced since ``reset``."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        layer = [s[0].partition(".")[0] for s in spans]

        def outermost(i: int) -> bool:
            p = spans[i][3]
            while p >= 0:
                if layer[p] == layer[i]:
                    return False
                p = spans[p][3]
            return True

        def layer_s(name: str) -> float:
            return float(sum(dur[i] for i in range(len(spans)) if layer[i] == name and outermost(i)))

        def span_s(name: str) -> float:
            return float(sum(dur[i] for i in range(len(spans)) if spans[i][0] == name))

        roots = [i for i, s in enumerate(spans) if s[0] == "nucleus.decomp"]
        child_s = sum(dur[i] for i, s in enumerate(spans) if s[3] in roots)
        n_calls = Counter(s[0] for s in spans)
        bk = self.live.get("bucketing")
        ag = self.live.get("aggregation")
        c = self.counts
        return {
            "graphs.prep_s": layer_s("graphs"),
            "graphs.make_rank_s": span_s("graphs.make_rank"),
            "cliques.count_s": span_s("cliques.count"),
            "cliques.update_s": span_s("cliques.update"),
            "cliques.update_calls": n_calls["cliques.update"],
            "cliques.scliques_discovered": res.counters.scliques_discovered,
            "spark.count_s": span_s("spark.count"),
            "spark.jobs": c["spark.jobs"],
            "spark.tasks": c["spark.tasks"],
            "spark.failed_tasks": c["spark.failed_tasks"],
            "tables.build_s": span_s("tables.build"),
            "tables.memory_units": res.table_memory_units,
            "tables.allocated_cells": res.table_allocated_cells,
            "tables.lookup_s": span_s("tables.lookup"),
            "tables.lookup_rows": c["tables.lookup_rows"],
            "tables.decode_s": span_s("tables.decode"),
            "bucketing.s": layer_s("bucketing"),
            "bucketing.rounds": n_calls["bucketing.next_bucket"],
            "bucketing.bucket_moves": bk.bucket_moves if bk else 0,
            "bucketing.rematerializations": bk.rematerializations if bk else 0,
            "aggregation.s": layer_s("aggregation"),
            "aggregation.updated": c["aggregation.updated"],
            "aggregation.serialized_ops": ag.serialized_ops if ag else 0,
            "aggregation.clear_work": ag.clear_work if ag else 0,
            "nucleus.contract_s": span_s("nucleus.contract"),
            "nucleus.contractions": res.contractions,
            "nucleus.self_s": float(sum(dur[i] for i in roots) - child_s),
        }
