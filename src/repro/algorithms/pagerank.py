"""PageRank (power iteration) — the intro's other canonical ISVP
algorithm, included beyond the paper's 14 evaluated applications.

Each round every vertex scatters ``rank / out_degree`` to its neighbors
and applies the damping update.  Demonstrates the "simulating
vertex-centric models" construction of §III-A / Appendix A."""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.algorithms.common import AlgorithmResult, make_engine
from repro.core.engine import FlashEngine
from repro.core.primitives import ctrue
from repro.graph.graph import Graph
from repro.runtime.vectorized.specs import EdgeMapSpec, VertexMapSpec

# Rank scatter: every edge carries ``rank / out_degree`` into the
# target's accumulator.  ``sum`` is applied in arc order, so float
# results match the interpreted sequential fold bit-for-bit.
# Hand spec: explain_edge refuses it ("assignment to a non-property target").
_SCATTER_SPEC = EdgeMapSpec(
    prop="acc",
    reduce="sum",
    value=lambda k: k.sp("rank") / k.src_out_deg,
    reads=("rank", "acc"),
)


def pagerank(
    graph_or_engine: Union[Graph, FlashEngine],
    num_workers: int = 4,
    damping: float = 0.85,
    max_iters: int = 20,
    tolerance: float = 1e-9,
) -> AlgorithmResult:
    """PageRank values (summing to ~1) after power iteration."""
    eng = make_engine(graph_or_engine, num_workers)
    n = eng.graph.num_vertices
    eng.add_property("rank", 1.0 / max(n, 1))
    eng.add_property("acc", 0.0)
    dangling = np.flatnonzero(eng.graph.out_degrees() == 0).tolist()

    def scatter(s, d):
        share = s.rank / s.out_deg if s.out_deg else 0.0
        d.acc = d.acc + share
        return d

    def r_sum(t, d):
        d.acc = d.acc + t.acc
        return d

    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        before = eng.values("rank")
        # Sinks spread their rank uniformly (networkx's dangling-node
        # convention), keeping total mass at 1 on directed graphs too.
        dangling_mass = sum(before[v] for v in dangling) / n if dangling else 0.0

        def apply(v, extra=dangling_mass):
            v.rank = (1.0 - damping) / n + damping * (v.acc + extra)
            v.acc = 0.0
            return v

        # Hand spec: explain_vertex refuses it ("unresolvable name 'extra'").
        apply_spec = VertexMapSpec(
            map=lambda k, extra=dangling_mass: {
                "rank": (1.0 - damping) / n + damping * (k.p("acc") + extra),
                "acc": np.zeros(len(k)),
            },
            reads=("acc", "rank"),
            writes=("rank", "acc"),
        )

        eng.edge_map(
            eng.V, eng.E, ctrue, scatter, ctrue, r_sum,
            label="pr:scatter", spec=_SCATTER_SPEC,
        )
        eng.vertex_map(eng.V, ctrue, apply, label="pr:apply", spec=apply_spec)
        after = eng.values("rank")
        delta = sum(abs(a - b) for a, b in zip(after, before))
        if delta < tolerance:
            break
    return AlgorithmResult("pagerank", eng, eng.values("rank"), iterations)
