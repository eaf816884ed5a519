"""The four workloads: set-up, one solve, reference values and checks.

A *solve* is what a library user pays per call: build a ``FlashEngine``
on the already-resident graph, run the algorithm, ``close()``.  Backend,
executor, worker count and analysis mode are pinned here so a change of
the library's defaults cannot move a workload silently.  Reference
values are computed once per run, outside every timed region.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from typing import Any, Dict, List

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, shortest_path

from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import pagerank
from repro.core.engine import FlashEngine
from repro.graph.blocks import BlockGraph, BlockStore, build_block_store
from repro.graph.generators import road_network, social_network
from repro.runtime.distributed.executor import get_pool, shutdown_pools

DAMPING = 0.85
#: Pagerank against the NumPy reference: |got - ref| <= ATOL + RTOL*|ref|
#: (summation order differs, so only the last bits may move).
RTOL, ATOL = 1e-9, 1e-15


def _adjacency(graph) -> sp.csr_matrix:
    csr = graph.out_csr
    n = graph.num_vertices
    data = np.ones(len(csr.indices))
    return sp.csr_matrix((data, csr.indices, csr.indptr), shape=(n, n))


class NumpyPagerank:
    """Power iteration with the library's dangling-mass convention (sinks
    spread their rank uniformly), ``iters`` fixed rounds.  Built once per
    graph; each call runs the iteration."""

    def __init__(self, graph, iters: int):
        self.n = graph.num_vertices
        self.iters = iters
        self.a_t = _adjacency(graph).T.tocsr()
        out_deg = np.asarray(graph.out_degrees(), dtype=np.float64)
        self.sinks = out_deg == 0
        self.safe = np.where(self.sinks, 1.0, out_deg)

    def __call__(self) -> np.ndarray:
        n, sinks = self.n, self.sinks
        rank = np.full(n, 1.0 / n)
        for _ in range(self.iters):
            dangling = rank[sinks].sum() / n
            acc = self.a_t @ np.where(sinks, 0.0, rank / self.safe)
            rank = (1.0 - DAMPING) / n + DAMPING * (acc + dangling)
        return rank


class PythonPagerank:
    """The same power iteration over plain Python lists."""

    def __init__(self, graph, iters: int):
        csr = graph.out_csr
        indptr, indices = csr.indptr, csr.indices
        self.adj = [indices[indptr[v]:indptr[v + 1]].tolist() for v in range(graph.num_vertices)]
        self.iters = iters

    def __call__(self) -> np.ndarray:
        n = len(self.adj)
        rank = [1.0 / n] * n
        for _ in range(self.iters):
            acc = [0.0] * n
            dangling = 0.0
            for v, nbrs in enumerate(self.adj):
                if nbrs:
                    share = rank[v] / len(nbrs)
                    for u in nbrs:
                        acc[u] += share
                else:
                    dangling += rank[v]
            base = (1.0 - DAMPING) / n + DAMPING * dangling / n
            rank = [base + DAMPING * a for a in acc]
        return np.asarray(rank)


def numpy_bfs(indptr: np.ndarray, indices: np.ndarray, root: int) -> np.ndarray:
    """Level-synchronous BFS: hop levels from ``root``, ``inf`` where not
    reached; one NumPy frontier expansion per level."""
    level = np.full(len(indptr) - 1, np.inf)
    level[root] = 0
    frontier = np.array([root])
    depth = 0
    while frontier.size:
        depth += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        arcs = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        nbrs = indices[arcs]
        frontier = np.unique(nbrs[np.isinf(level[nbrs])])
        level[frontier] = depth
    return level


def close_to(values: List[float], ref: np.ndarray) -> bool:
    got = np.asarray(values, dtype=np.float64)
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= ATOL + RTOL * np.abs(ref)))


class Workload:
    """Base: subclasses set the class attributes and the hooks."""

    name = ""
    engine_kwargs: Dict[str, Any] = {}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.graph = None
        self.setup_parts: Dict[str, float] = {}

    # -- set-up (timed as setup_s) ---------------------------------------
    def make_graph(self):
        raise NotImplementedError

    def setup(self) -> None:
        """Generate the graph and pay every one-time cost before the
        first solve, ending with one engine built and closed."""
        t0 = time.perf_counter()
        self.graph = self.make_graph()
        self.setup_parts = {"graph.generate_s": time.perf_counter() - t0}
        self.setup_extra()
        FlashEngine(self.graph, **self.engine_kwargs).close()

    def setup_extra(self) -> None:
        pass

    def teardown(self) -> None:
        self.graph = None

    # -- solve ---------------------------------------------------------------
    def solve(self, i: int, rec):
        with rec.span("engine.construct"):
            eng = FlashEngine(self.graph, **self.engine_kwargs)
        try:
            with rec.span("algo"):
                values = self.run(eng, i).values
        finally:
            with rec.span("engine.close"):
                eng.close()
        return eng, values

    def run(self, eng, i: int):
        raise NotImplementedError

    # -- correctness and the timing base ----------------------------------
    def prepare_reference(self) -> None:
        raise NotImplementedError

    def reference(self, i: int) -> np.ndarray:
        """Solve ``i``'s result from the benchmark's own NumPy/SciPy
        implementation of the algorithm on the same input.  Timed right
        after each solve as the base of ``solve_vs_ref``."""
        raise NotImplementedError

    def check(self, i: int, values) -> bool:
        raise NotImplementedError

    # -- stamps and counters ---------------------------------------------
    def inputs(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "vertices": int(self.graph.num_vertices),
            "arcs": int(self.graph.num_arcs),
            "engine": dict(self.engine_kwargs),
        }

    def counters(self, eng) -> Dict[str, float]:
        """Engine-side per-solve counters, read after the solve."""
        summary = eng.metrics.summary()
        return {
            "engine.supersteps": float(summary["supersteps"]),
            "engine.edge_ops": float(summary["ops"]),
            "sync.values": float(summary["sync_values"]),
            "oocore.blocks_read": float(summary["blocks_read"]),
            "oocore.bytes_read": float(summary["bytes_read"]),
            "model.predicted_s": float(eng.cost().total),
            "dist.worker_cpu_s": 0.0,
            "dist.critical_path_s": 0.0,
            "dist.bytes": 0.0,
            "dist.messages": 0.0,
            "dist.respawns": 0.0,
        }

    def baseline_s(self, solve_p50: float) -> float:
        """Solve time of the fastest single-process configuration (inline
        vectorized) on this workload's graph."""
        return solve_p50


class _Pagerank(Workload):
    #: Fixed iterations per solve.  Each workload keeps one solve under
    #: about a second, so a run takes dozens of samples and its median
    #: stays put when the host slows for a few seconds.
    iters = 10

    def run(self, eng, i: int):
        return pagerank(eng, max_iters=self.iters, tolerance=0.0)

    def prepare_reference(self) -> None:
        self.numpy_ref = NumpyPagerank(self.graph, self.iters)
        self.ref = self.numpy_ref()

    def reference(self, i: int) -> np.ndarray:
        return self.numpy_ref()

    def check(self, i: int, values) -> bool:
        return close_to(values, self.ref)


class PagerankSocial(_Pagerank):
    """Dense all-active supersteps on a small-diameter social graph:
    kernel, frontier build and barrier commit do the work."""

    name = "pagerank-social"
    engine_kwargs = {"backend": "vectorized", "executor": "inline",
                     "num_workers": 4, "analysis": "static"}

    def make_graph(self):
        return social_network(20000, avg_degree=20, seed=self.seed)


class BfsRoad(Workload):
    """Hundreds of tiny sparse supersteps on a large-diameter road grid:
    per-superstep dispatch and per-engine partitioning dominate."""

    name = "bfs-road"
    engine_kwargs = {"backend": "vectorized", "executor": "inline",
                     "num_workers": 4, "analysis": "compile"}
    side = 150
    #: Roots are stratified: one per cell of a LATTICE x LATTICE grid of
    #: cells, at most JITTER steps from the cell centre.
    lattice, jitter = 4, 2

    def make_graph(self):
        return road_network(self.side, self.side, seed=self.seed)

    def setup_extra(self) -> None:
        # A BFS's superstep count is its root's eccentricity, so uniformly
        # drawn roots would make the solve-time median depend on the seed.
        # Stratified roots keep the eccentricities, and with them the work,
        # nearly the same for every seed; the seed still picks each root.
        rng = np.random.default_rng(self.seed)
        _, labels = connected_components(_adjacency(self.graph), directed=False)
        giant = labels == np.argmax(np.bincount(labels))
        cell = self.side / self.lattice
        self.roots = []
        for cy in range(self.lattice):
            for cx in range(self.lattice):
                x0, y0 = int((cx + 0.5) * cell), int((cy + 0.5) * cell)
                window = [
                    y * self.side + x
                    for y in range(y0 - self.jitter, y0 + self.jitter + 1)
                    for x in range(x0 - self.jitter, x0 + self.jitter + 1)
                    if giant[y * self.side + x]
                ]
                self.roots.append(int(rng.choice(window)))

    def run(self, eng, i: int):
        return bfs(eng, root=self.roots[i % len(self.roots)])

    def prepare_reference(self) -> None:
        self.ref = shortest_path(_adjacency(self.graph), unweighted=True, indices=self.roots)
        csr = self.graph.out_csr
        self.csr = (np.asarray(csr.indptr), np.asarray(csr.indices))
        self.ref_ok = all(
            np.array_equal(self.reference(k), self.ref[k]) for k in range(len(self.roots))
        )

    def reference(self, i: int) -> np.ndarray:
        return numpy_bfs(*self.csr, self.roots[i % len(self.roots)])

    def check(self, i: int, values) -> bool:
        return self.ref_ok and np.array_equal(
            np.asarray(values, dtype=np.float64), self.ref[i % len(self.roots)]
        )

    def inputs(self) -> Dict[str, Any]:
        return {**super().inputs(), "roots": self.roots}


class PagerankOocore(_Pagerank):
    """The same pagerank streamed from a semi-external block store with a
    cache below the store size: block I/O and the streamed kernels."""

    name = "pagerank-oocore"
    engine_kwargs = {"backend": "oocore", "executor": "inline",
                     "num_workers": 4, "analysis": "static"}
    iters = 3
    budget = 4 << 20

    def make_graph(self):
        return social_network(20000, avg_degree=20, seed=self.seed)

    def setup_extra(self) -> None:
        # The semi-external graph replaces the resident one; the resident
        # graph is kept only until the reference is computed.
        t0 = time.perf_counter()
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        build_block_store(self.graph, self.store_dir).close()
        self.store = BlockStore(self.store_dir, budget=self.budget)
        self.setup_parts["graph.blocks_build_s"] = time.perf_counter() - t0
        self.resident = self.graph
        self.graph = BlockGraph(self.store)

    def teardown(self) -> None:
        self.store.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.resident = None
        super().teardown()

    def prepare_reference(self) -> None:
        """Bit-identical to inline vectorized, which is itself checked
        against the NumPy reference."""
        kwargs = {**self.engine_kwargs, "backend": "vectorized"}
        t0 = time.perf_counter()
        with FlashEngine(self.resident, **kwargs) as eng:
            self.ref_values = self.run(eng, 0).values
        self.vectorized_s = time.perf_counter() - t0
        self.numpy_ref = NumpyPagerank(self.resident, self.iters)
        self.ref_ok = close_to(self.ref_values, self.numpy_ref())
        self.resident = None

    def check(self, i: int, values) -> bool:
        return self.ref_ok and values == self.ref_values

    def inputs(self) -> Dict[str, Any]:
        return {
            **super().inputs(),
            "store_bytes": int(self.store.total_bytes),
            "cache_budget_bytes": self.budget,
            "blocks": sum(len(self.store.row_metas(d)) for d in range(self.store.num_intervals)),
        }

    def baseline_s(self, solve_p50: float) -> float:
        return self.vectorized_s


class PagerankMp2(_Pagerank):
    """Two worker processes with compile-planned sync: the only workload
    running IPC, sync encoding and the interpreted worker kernels."""

    name = "pagerank-mp2"
    engine_kwargs = {"backend": "interp", "executor": "mp",
                     "num_workers": 2, "analysis": "compile"}
    iters = 2

    def make_graph(self):
        return social_network(2000, avg_degree=20, seed=self.seed)

    def setup_extra(self) -> None:
        # Spawn the pool and ship the graph once; holding a reference keeps
        # the shared-memory copy alive across the per-solve engines.
        self.pool = get_pool(self.engine_kwargs["num_workers"])
        self.pool.acquire_graph(self.graph)

    def teardown(self) -> None:
        self.pool.release_graph(self.graph)
        self.pool = None
        shutdown_pools()
        super().teardown()

    def solve(self, i: int, rec):
        pool = self.pool
        msgs0 = pool.messages_sent + pool.messages_recv
        respawns0 = pool.respawns
        eng, values = super().solve(i, rec)
        self._ipc = {
            "dist.messages": float(pool.messages_sent + pool.messages_recv - msgs0),
            "dist.respawns": float(pool.respawns - respawns0),
        }
        return eng, values

    def counters(self, eng) -> Dict[str, float]:
        ds = eng.dist_summary()
        # Per-solve bytes from the per-superstep deltas: the summary's
        # bytes_sent is the pool-lifetime counter.
        steps = ds["per_superstep"]
        return {
            **super().counters(eng),
            "dist.worker_cpu_s": float(ds["worker_cpu_s"]),
            "dist.critical_path_s": float(ds["critical_path_s"]),
            "dist.bytes": float(sum(s["bytes_sent"] + s["bytes_recv"] for s in steps)),
            **self._ipc,
        }

    def prepare_reference(self) -> None:
        """Bit-identical to inline interp (checked against NumPy); the
        inline vectorized time is the fair single-process baseline.  The
        timed reference is plain Python, like the interp kernels the
        workers run: a NumPy one finishes in a fraction of a millisecond
        here, and its timing swings with the cache state the workers
        leave behind."""
        kwargs = {**self.engine_kwargs, "executor": "inline"}
        with FlashEngine(self.graph, **kwargs) as eng:
            self.ref_values = self.run(eng, 0).values
        numpy_values = NumpyPagerank(self.graph, self.iters)()
        self.python_ref = PythonPagerank(self.graph, self.iters)
        self.ref_ok = close_to(self.ref_values, numpy_values) and close_to(
            self.python_ref(), numpy_values
        )
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            with FlashEngine(self.graph, **{**kwargs, "backend": "vectorized"}) as eng:
                self.run(eng, 0)
            times.append(time.perf_counter() - t0)
        self.vectorized_s = statistics.median(times)

    def reference(self, i: int) -> np.ndarray:
        return self.python_ref()

    def check(self, i: int, values) -> bool:
        return self.ref_ok and values == self.ref_values

    def baseline_s(self, solve_p50: float) -> float:
        return self.vectorized_s


WORKLOADS = {w.name: w for w in (PagerankSocial, BfsRoad, PagerankOocore, PagerankMp2)}
