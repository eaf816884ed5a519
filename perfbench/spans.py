"""Layer spans recorded from outside the library.

:class:`SpanRecorder` wraps the public function each layer exposes
(the attribute its caller actually resolves), so the program itself is
unchanged.  A span is ``(name, start, end, parent, solve)``; spans stay
in memory and are written once, as a Chrome trace, when the run ends.

Span names are the layers of the per-layer metrics; ``solve``,
``engine.construct``, ``algo`` and ``engine.close`` are opened by the
benchmark itself around one solve.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, List, Optional, Tuple

import repro.analysis.compile.synthesize as _synth
import repro.core.engine as _engine
import repro.runtime.flashware as _flashware
import repro.runtime.oocore.kernels as _ooc
import repro.runtime.vectorized.kernels as _vec
from repro.core.subset import VertexSubset
from repro.graph.blocks import BlockStore
from repro.runtime.distributed.executor import WorkerPool

_KERNELS = ("run_vertex_map", "run_edge_map_dense", "run_edge_map_sparse")

#: (owner, attribute, span name) for every wrapped entry point.
PATCHES: List[Tuple[Any, str, str]] = (
    [(_flashware, "partition_graph", "graph.partition")]
    + [(_engine, f, "analysis")
       for f in ("analyze_edge_map", "analyze_vertex_map", "validate_spec")]
    + [(_synth, f, "analysis.synthesize")
       for f in ("synthesize_vertex_spec", "synthesize_edge_spec")]
    + [(_vec, f, "kernel.vectorized") for f in _KERNELS]
    + [(_ooc, f, "kernel.oocore") for f in _KERNELS]
    + [(_flashware.Flashware, f, "barrier") for f in ("barrier", "barrier_columnar")]
    + [(VertexSubset, "__init__", "subset.build")]
    + [(_engine.FlashEngine, f, "engine.primitive")
       for f in ("vertex_map", "edge_map", "edge_map_dense", "edge_map_sparse")]
    + [(BlockStore, "get", "graph.blocks.get")]
    + [(WorkerPool, f, "dist.request") for f in ("request_many", "broadcast")]
)


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Optional[Tuple[str, float, float, int, int]]] = []
        self.block_hits: Dict[int, int] = {}
        self.solve = -1
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    @contextmanager
    def _record(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.solve)

    def span(self, name: str):
        """A span around benchmark-side code; free when not enabled."""
        return self._record(name) if self.enabled else nullcontext()

    def _wrap(self, fn, name: str):
        rec = self

        def wrapper(*args, **kwargs):
            with rec._record(name):
                out = fn(*args, **kwargs)
            if name == "graph.blocks.get" and out[1]:
                rec.block_hits[rec.solve] = rec.block_hits.get(rec.solve, 0) + 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner, attr, name in PATCHES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        self.enabled = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.enabled = False

    # -- analysis --------------------------------------------------------
    def per_solve(self) -> Dict[int, Dict[str, Dict[str, float]]]:
        """Per solve and span name: ``count``, ``incl`` (time of spans not
        nested in a span of the same name) and ``self`` (duration minus
        the time its child spans cover)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _solve in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[int, Dict[str, Dict[str, float]]] = {}
        for sid, (name, start, end, parent, solve) in enumerate(spans):
            row = out.setdefault(solve, {}).setdefault(
                name, {"count": 0, "incl": 0.0, "self": 0.0}
            )
            dur = end - start
            row["count"] += 1
            row["self"] += dur - child_time[sid]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                row["incl"] += dur
        return out

    def write_chrome(self, path: str) -> None:
        """Write the spans as Chrome-trace complete events (opens in
        chrome://tracing and Perfetto)."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": round((start - t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"span": sid, "parent": parent, "solve": solve},
            }
            for sid, (name, start, end, parent, solve) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def layer_metrics(rec: SpanRecorder, solves: Dict[int, Dict[str, float]]) -> Dict[str, float]:
    """Per-layer metrics: for each, the median over traced solves of its
    per-solve value.  ``solves`` maps a traced solve's index to the
    engine-side counters read after it (``workloads.Workload.counters``)."""
    table = rec.per_solve()
    rows: List[Dict[str, float]] = []
    for i, counters in solves.items():
        spans = table.get(i, {})

        def get(name: str, key: str) -> float:
            return spans.get(name, {}).get(key, 0.0)

        wall = get("solve", "incl")
        calls = get("graph.blocks.get", "count")
        request_s = get("dist.request", "incl")
        row = {
            "graph.partition_s": get("graph.partition", "incl"),
            "graph.blocks.get_calls": calls,
            "graph.blocks.get_s": get("graph.blocks.get", "incl"),
            "graph.blocks.hit_ratio": rec.block_hits.get(i, 0) / calls if calls else 0.0,
            "engine.construct_s": get("engine.construct", "incl"),
            "engine.close_s": get("engine.close", "incl"),
            "engine.primitive_s": get("engine.primitive", "incl"),
            "engine.dispatch_self_s": get("engine.primitive", "self"),
            "subset.builds": get("subset.build", "count"),
            "subset.build_s": get("subset.build", "incl"),
            "analysis.s": get("analysis", "incl"),
            "analysis.synthesize_s": get("analysis.synthesize", "incl"),
            "kernel.vectorized_calls": get("kernel.vectorized", "count"),
            "kernel.vectorized_self_s": get("kernel.vectorized", "self"),
            "kernel.oocore_calls": get("kernel.oocore", "count"),
            "kernel.oocore_self_s": get("kernel.oocore", "self"),
            "barrier.calls": get("barrier", "count"),
            "barrier.s": get("barrier", "incl"),
            "dist.request_s": request_s,
            "dist.wait_s": request_s - counters.get("dist.critical_path_s", 0.0),
            "algo.self_s": get("algo", "self"),
            "trace.coverage": (
                1.0 - (get("solve", "self") + get("algo", "self")) / wall if wall else 0.0
            ),
        }
        row.update(counters)
        rows.append(row)
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}
