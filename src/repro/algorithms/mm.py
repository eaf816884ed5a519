"""Maximal Matching — basic (paper Algorithm 11) and optimized
(paper Algorithm 12) variants.

Both run rounds of *max-id handshaking*: every unmatched vertex collects
proposals from unmatched neighbors (keeping the largest proposer id in
``p``), and mutual best-proposers match (``s`` records the partner).

The optimized variant is the paper's showcase for arbitrary edge sets
(§III-B, Fig. 4a): after the first round, instead of re-proposing from
every unmatched vertex, only the vertices whose recorded best proposer
was just matched away are reactivated — the active set collapses by
orders of magnitude.
"""

from __future__ import annotations

from typing import List, Tuple, Union

from repro.algorithms.common import AlgorithmResult, make_engine
from repro.core.engine import FlashEngine
from repro.core.edgeset import join
from repro.core.primitives import ctrue
from repro.errors import ReproError
from repro.graph.graph import Graph
from repro.runtime.vectorized.specs import EdgeMapSpec

# The mutual-handshake match kernel over the ``join(U, p)`` virtual
# edges (vertex -> its recorded best proposer).  Each target has exactly
# one incoming virtual arc, so the ``return t`` fold is trivially
# deterministic — ``reduce="last"`` declares that contract.  Virtual
# edge sets never dispatch vectorized; the spec is the kernel's access
# declaration (and lint/speccheck input) only.
# Hand spec: explain_edge accepts it, but synthesis runs only over the plain E.
_MATCH_SPEC = EdgeMapSpec(
    prop="s",
    reduce="last",
    value=lambda k: k.src,
    f=lambda k: k.dp("p") == k.src,
    cond_unvisited=-1,
    reads=("p",),
)


def _matching_pairs(eng: FlashEngine) -> List[Tuple[int, int]]:
    partner = eng.values("s")
    return [(v, p) for v, p in enumerate(partner) if p != -1 and v < p]


def mm_basic(
    graph_or_engine: Union[Graph, FlashEngine],
    num_workers: int = 4,
    max_iterations: int = 100_000,
) -> AlgorithmResult:
    """Greedy maximal matching; ``values`` is the partner id per vertex
    (-1 when unmatched)."""
    eng = make_engine(graph_or_engine, num_workers)
    eng.add_property("s", -1)  # matched partner
    eng.add_property("p", -1)  # best proposer this round

    def init(v):
        v.p = -1
        return v

    def cond(v):
        return v.s == -1

    def propose(s, d):
        d.p = max(d.p, s.id)
        return d

    def r1(t, d):
        d.p = max(d.p, t.p)
        return d

    def check(s, d):
        return s.p == d.id and d.p == s.id

    def update2(s, d):
        d.s = s.id
        return d

    def r2(t, d):
        return t

    frontier = eng.vertex_map(eng.V, ctrue, init, label="mm:init")
    iterations = 0
    while eng.size(frontier) != 0:
        iterations += 1
        if iterations > max_iterations:
            raise ReproError("mm_basic failed to converge")
        frontier = eng.vertex_map(frontier, cond, init, label="mm:reset")
        frontier = eng.edge_map(frontier, eng.E, ctrue, propose, cond, r1, label="mm:propose")
        eng.edge_map(frontier, eng.E, check, update2, cond, r2, label="mm:match")

    pairs = _matching_pairs(eng)
    return AlgorithmResult(
        "mm_basic", eng, eng.values("s"), iterations, extra={"matching": pairs}
    )


def mm_opt(
    graph_or_engine: Union[Graph, FlashEngine],
    num_workers: int = 4,
    max_iterations: int = 100_000,
) -> AlgorithmResult:
    """Optimized maximal matching (Algorithm 12): only vertices whose best
    proposer was matched away get recomputed, via the virtual edge sets
    ``join(U, p)`` (vertex → its best proposer) and the reactivation pass
    from newly matched vertices."""
    eng = make_engine(graph_or_engine, num_workers)
    eng.add_property("s", -1)
    eng.add_property("p", -1)

    def init(v):
        v.p = -1
        return v

    def cond(v):
        return v.s == -1

    def f1(s, d):
        return s.s == -1

    def propose(s, d):
        d.p = max(d.p, s.id)
        return d

    def r1(t, d):
        d.p = max(d.p, t.p)
        return d

    def f2(s, d):
        return d.p == s.id

    def m2(s, d):
        d.s = s.id
        return d

    def r2(t, d):
        return t

    def m3(s, d):
        return d

    def _unmatched_with_unmatched_neighbor() -> list:
        partner = eng.values("s")
        graph = eng.graph
        return [
            v
            for v in range(graph.num_vertices)
            if partner[v] == -1
            and any(partner[int(u)] == -1 for u in graph.out_neighbors(v))
        ]

    frontier = eng.vertex_map(eng.V, ctrue, init, label="mm_opt:init")
    iterations = 0
    reseeds = 0
    while True:
        if eng.size(frontier) == 0:
            # Stale best-proposer pointers can (rarely) drain the frontier
            # while matchable edges remain; reseed from the unmatched set.
            remaining = _unmatched_with_unmatched_neighbor()
            if not remaining:
                break
            reseeds += 1
            frontier = eng.subset(remaining)
        iterations += 1
        if iterations > max_iterations:
            raise ReproError("mm_opt failed to converge")
        frontier = eng.vertex_map(frontier, cond, init, label="mm_opt:reset")
        # Unmatched sources propose to the (unmatched) frontier only.
        eng.edge_map_dense(eng.V, join(eng.E, frontier), f1, propose, cond, label="mm_opt:propose")
        # Mutual best-proposers match, both sides.
        a = eng.edge_map_sparse(
            frontier, join(frontier, "p"), f2, m2, cond, r2,
            label="mm_opt:match1", spec=_MATCH_SPEC,
        )
        b = eng.edge_map_sparse(
            a, join(a, "p"), f2, m2, cond, r2,
            label="mm_opt:match2", spec=_MATCH_SPEC,
        )
        # Reactivate unmatched vertices whose best proposer was just taken.
        frontier = eng.edge_map_sparse(a.union(b), eng.E, f2, m3, cond, m3, label="mm_opt:react")

    pairs = _matching_pairs(eng)
    return AlgorithmResult(
        "mm_opt",
        eng,
        eng.values("s"),
        iterations,
        extra={"matching": pairs, "reseeds": reseeds},
    )
