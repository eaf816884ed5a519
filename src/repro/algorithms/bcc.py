"""Biconnected Components (paper Algorithm 19, after Slota et al. [47]).

Pipeline:

1. a **CC round** labels every component by its maximum-(degree, id)
   vertex (label propagation of the (d, cid) pair);
2. a **BFS round** from each component root records levels (``dis``) and
   parents (``p``), building a BFS forest;
3. **JoinEdges** walks every non-tree edge's endpoints up the BFS tree
   (via FLASHWARE ``get``) to their meeting point, unioning the tree
   edges along the cycle in a disjoint set (each tree edge represented
   by its child vertex);
4. the DSUs are REDUCE-merged and every vertex is labeled with
   ``dsu_find`` of itself — i.e. the biconnected component of its parent
   edge.

``extra['edge_groups']`` maps every edge to its BCC label, which is the
form the standard oracle (edge partition) uses.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

from repro.algorithms.common import AlgorithmResult, make_engine
from repro.core.engine import FlashEngine
from repro.core.primitives import bind, ctrue
from repro.graph.graph import Graph


def bcc(
    graph_or_engine: Union[Graph, FlashEngine],
    num_workers: int = 4,
) -> AlgorithmResult:
    """BCC labels per vertex (label of the tree edge to its parent; roots
    keep their own find), plus the per-edge grouping in ``extra``."""
    eng = make_engine(graph_or_engine, num_workers)
    if eng.graph.directed:
        raise ValueError("bcc needs an undirected graph")
    eng.add_property("cid", 0)
    eng.add_property("d", 0)
    eng.add_property("dis", -1)
    eng.add_property("p", -1)
    eng.add_property("bcc", -1)

    def init(v):
        v.cid = v.id
        v.d = v.deg
        v.dis = -1
        v.p = -1
        v.bcc = -1
        return v

    def bigger(s_d, s_cid, d_d, d_cid):
        return (s_d > d_d) or (s_d == d_d and s_cid > d_cid)

    def f1(s, d):
        return bigger(s.d, s.cid, d.d, d.cid)

    def update1(s, d):
        d.cid = s.cid
        d.d = s.d
        return d

    def r1(t, d):
        if bigger(t.d, t.cid, d.d, d.cid):
            d.cid = t.cid
            d.d = t.d
        return d

    def filter_root(v):
        return v.cid == v.id

    def local1(v):
        v.dis = 0
        return v

    def update2(s, d):
        d.dis = s.dis + 1
        return d

    def cond2(v):
        return v.dis == -1

    def r2(t, d):
        return t

    def f3(s, d):
        return s.dis == d.dis - 1

    def update3(s, d):
        d.p = s.id
        return d

    def cond3(v):
        return v.p == -1

    def r3(t, d):
        return t

    # Phase 1: component roots (max (deg, id) labels).
    frontier = eng.vertex_map(eng.V, ctrue, init, label="bcc:init")
    while eng.size(frontier) != 0:
        frontier = eng.edge_map(frontier, eng.E, f1, update1, ctrue, r1, label="bcc:cc")

    # Phase 2: BFS levels and parents from the roots.
    frontier = eng.vertex_map(eng.V, filter_root, local1, label="bcc:roots")
    while eng.size(frontier) != 0:
        frontier = eng.edge_map(
            frontier, eng.E, ctrue, update2, cond2, r2, label="bcc:bfs"
        )
    eng.edge_map(eng.V, eng.E, f3, update3, cond3, r3, label="bcc:parent")

    # Phase 3: JoinEdges — union tree edges along every non-tree cycle.
    dsu = eng.dsu()
    dis = eng.values("dis")
    parent = eng.values("p")
    edge_groups: Dict[Tuple[int, int], int] = {}
    non_tree = []
    for s, d in eng.graph.edges():
        if s == d:
            continue
        a, b = eng.get(s), eng.get(d)
        # Non-tree edges only, each considered once (the paper's F4).
        if b.p == a.id or a.p == b.id:
            continue
        non_tree.append((s, d))
        # Walk both endpoints up to their meeting point; every vertex moved
        # is the child of a tree edge on the cycle closed by (s, d).
        path = []
        x, y = s, d
        while x != y:
            if dis[x] >= dis[y]:
                path.append(x)
                x = parent[x]
            else:
                path.append(y)
                y = parent[y]
        anchor = path[0]
        for child in path[1:]:
            dsu.union(anchor, child)

    # Phase 4: REDUCE the (conceptually per-worker) DSUs and label.
    eng.collect({0: dsu.labels()}, label="bcc:reduce")

    def local3(v, find):
        v.bcc = find(v.id)
        return v

    eng.vertex_map(eng.V, ctrue, bind(local3, dsu.find), label="bcc:label")

    for s, d in eng.graph.edges():
        if s == d:
            continue
        if parent[d] == s:
            edge_groups[(s, d)] = dsu.find(d)
        elif parent[s] == d:
            edge_groups[(s, d)] = dsu.find(s)
        else:
            deeper = s if dis[s] >= dis[d] else d
            edge_groups[(s, d)] = dsu.find(deeper)

    return AlgorithmResult(
        "bcc",
        eng,
        eng.values("bcc"),
        iterations=1,
        extra={"edge_groups": edge_groups, "non_tree_edges": len(non_tree)},
    )
