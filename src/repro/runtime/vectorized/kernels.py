"""Columnar EDGEMAP / VERTEXMAP kernels over an arc source.

Each kernel reproduces the interpreted kernel's *observable behavior*
exactly — the returned frontier, the committed property values, and the
full accounting (per-worker ops, reduce/sync messages and values) — so a
run is bitwise comparable across backends.  The correspondences:

``run_vertex_map``        ↔ ``FlashEngine.vertex_map``
``run_edge_map_sparse``   ↔ ``FlashEngine.edge_map_sparse`` (push)
``run_edge_map_dense``    ↔ ``FlashEngine.edge_map_dense``  (pull)

Arc sources
-----------
The kernels are written once and never see where the edges live.  They
loop over the superstep's *active* arcs (those leaving a frontier
vertex), which the engine's arc source hands out as :class:`EdgeBatch`
chunks in global in-CSR fold order: target-major, source-ascending per
target, each chunk sorted by target.  A target's arcs may span several
chunks, but never out of order.  Two sources exist:

* :class:`ResidentArcs` (``backend="vectorized"``) yields one chunk from
  the in-memory CSR: for push, the frontier's out-arcs, stably sorted by
  target; for pull, the in-arcs that pass the frontier mask.  It is the
  only holder of O(|arcs|) arrays.
* :class:`~repro.runtime.oocore.runtime.OocoreRuntime`
  (``backend="oocore"``) streams edge blocks row by row — one chunk per
  block, skipping source intervals with no active vertex — which replays
  the same order by the layout invariant :mod:`repro.graph.blocks`
  documents.

So every kernel probes its accumulator dtype on an empty batch (widening
it if a chunk produces a wider one), folds once per chunk, finds each
target's first arc with a running argmin, marks touched targets in an
O(|V|) mask, and computes its op charges from resident degree arrays —
and the per-target sequential folds commit the same bits on both
sources.

Accounting equivalences worth spelling out (derived from the
interpreted kernels; the parity test sweeps them):

* sparse: one op per enumerated out-edge of the frontier charged to the
  source's owner (the C evaluation), one more per M-passing edge, and
  one per temp charged to the target's owner (the R fold); the reduce
  round charges one message per *remote contributing partition* per
  touched target.
* dense, no C: every candidate target scans its full in-neighbor list —
  one op per in-arc charged to the target's owner.
* dense with a scan-invariant general C (``spec.cond``): a C-passing
  target scans its full in-list; a C-failing target with in-degree > 0
  costs exactly 1 op (charge, C fails, break).
* dense with a write-once C (``cond_unvisited``): an already-visited
  target with in-degree > 0 costs exactly 1 op (charge, C fails,
  break); an unvisited target whose first active in-neighbor sits at
  position ``p`` of its in-list costs ``min(p + 2, indeg)`` (scan to
  ``p``, apply, one more charge before C breaks); an unvisited target
  with no active in-neighbor costs its full in-degree.
* floating-point reductions: ``sum`` is applied with ``np.add.at`` on a
  snapshot-copy accumulator in fold order — the same sequential left
  fold the interpreted scan performs, so float results are
  bit-identical, not merely close.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

import numpy as np

from repro.core.edgeset import BaseEdges
from repro.core.primitives import ctrue
from repro.core.subset import VertexSubset
from repro.errors import FlashUsageError
from repro.runtime.vectorized.specs import NOT_SET, EdgeMapSpec, VertexMapSpec

_UFUNCS = {
    "min": np.minimum,
    "max": np.maximum,
    "sum": np.add,
    "or": np.logical_or,
}

_MAXI = np.iinfo(np.int64).max

_EMPTY_I = np.empty(0, dtype=np.int64)


# ----------------------------------------------------------------------
# Batch views handed to spec callables
# ----------------------------------------------------------------------
class EdgeBatch:
    """A chunk of arcs: parallel ``src`` / ``dst`` id arrays, each arc's
    global in-CSR position ``pos`` (``None`` for resident push chunks,
    which are gathered from the out-CSR), and typed property access.

    Weights are looked up only when ``w`` is read: ``weights`` is a
    zero-argument callable returning the chunk's weight column (``None``
    for unweighted graphs), indexed by ``widx``."""

    __slots__ = ("_ctx", "_state", "src", "dst", "pos", "_weights", "_widx")

    def __init__(self, ctx, state, src, dst, pos=None, weights=None, widx=None):
        self._ctx = ctx
        self._state = state
        self.src = src
        self.dst = dst
        self.pos = pos
        self._weights: Optional[Callable] = weights
        self._widx = widx

    def take(self, sel) -> "EdgeBatch":
        """The sub-chunk at ``sel`` (a boolean mask or an index array)."""
        return EdgeBatch(
            self._ctx, self._state, self.src[sel], self.dst[sel],
            None if self.pos is None else self.pos[sel],
            self._weights, None if self._widx is None else self._widx[sel],
        )

    def sp(self, name: str) -> np.ndarray:
        """Source-vertex values of property ``name``."""
        return self._state.array(name)[self.src]

    def dp(self, name: str) -> np.ndarray:
        """Target-vertex values of property ``name`` (current snapshot)."""
        return self._state.array(name)[self.dst]

    @property
    def w(self) -> np.ndarray:
        """Per-edge weights (1.0 when the graph is unweighted)."""
        col = None if self._weights is None else self._weights()
        if col is None:
            return np.ones(len(self.src), dtype=np.float64)
        return np.asarray(col[self._widx])

    @property
    def src_out_deg(self) -> np.ndarray:
        return self._ctx.out_degrees[self.src]

    @property
    def src_in_deg(self) -> np.ndarray:
        return self._ctx.in_degrees[self.src]

    def __len__(self) -> int:
        return len(self.src)


class VertexBatch:
    """A batch of vertices (the subset a VERTEXMAP runs over)."""

    __slots__ = ("_ctx", "_state", "ids")

    def __init__(self, ctx, state, ids):
        self._ctx = ctx
        self._state = state
        self.ids = ids

    def p(self, name: str) -> np.ndarray:
        """Property values at the batch's vertices."""
        return self._state.array(name)[self.ids]

    def raw(self, name: str):
        """The live (whole-graph) column — object columns included."""
        return self._state.column(name)

    @property
    def deg(self) -> np.ndarray:
        return self._ctx.graph.degrees()[self.ids]

    @property
    def out_deg(self) -> np.ndarray:
        return self._ctx.out_degrees[self.ids]

    @property
    def in_deg(self) -> np.ndarray:
        return self._ctx.in_degrees[self.ids]

    @property
    def n(self) -> int:
        return self._ctx.n

    def __len__(self) -> int:
        return len(self.ids)


# ----------------------------------------------------------------------
# Kernel context and the resident arc source
# ----------------------------------------------------------------------
class ResidentArcs:
    """Arc source over the in-memory CSR: one chunk per superstep."""

    def __init__(self, graph):
        self.graph = graph
        self.out_indptr = graph.out_csr.indptr
        self.out_indices = graph.out_csr.indices
        self.in_indices = graph.in_csr.indices
        # target vertex of every in-arc, in CSR (target-major) order
        self.in_targets = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64),
            np.diff(graph.in_csr.indptr),
        )
        self._out_w: Optional[np.ndarray] = None
        self._in_w: Optional[np.ndarray] = None

    def out_arc_weights(self) -> np.ndarray:
        if self._out_w is None:
            self._out_w = self.graph.arc_weights(self.graph.out_csr.arc_ids)
        return self._out_w

    def in_arc_weights(self) -> np.ndarray:
        if self._in_w is None:
            self._in_w = self.graph.arc_weights(self.graph.in_csr.arc_ids)
        return self._in_w

    def chunks(self, ctx, state, ids: np.ndarray, push: bool) -> Iterator[EdgeBatch]:
        if not push:
            arc_idx = np.flatnonzero(ctx.frontier_mask[self.in_indices])
            yield EdgeBatch(
                ctx, state, self.in_indices[arc_idx], self.in_targets[arc_idx],
                arc_idx, self.in_arc_weights, arc_idx,
            )
            return
        # flat out-CSR positions of every out-arc of the frontier, in
        # frontier order; the stable sort by target keeps each target's
        # arcs frontier-ascending — the interpreted fold order
        counts = ctx.out_degrees[ids]
        total = int(counts.sum())
        group_first = np.repeat(np.cumsum(counts) - counts, counts)
        pos = np.repeat(self.out_indptr[ids], counts) + (
            np.arange(total, dtype=np.int64) - group_first
        )
        dst = self.out_indices[pos]
        order = np.argsort(dst, kind="stable")
        yield EdgeBatch(
            ctx, state, np.repeat(ids, counts)[order], dst[order],
            None, self.out_arc_weights, pos[order],
        )


class KernelContext:
    """Per-engine O(|V|) arrays the kernels share, plus the engine's arc
    source: the block runtime on ``backend="oocore"`` engines (so nothing
    O(|arcs|) is allocated), :class:`ResidentArcs` otherwise."""

    def __init__(self, engine):
        g = engine.graph
        part = engine.flashware.partition
        self.graph = g
        self.n = g.num_vertices
        self.P = part.num_partitions
        self.owners = part.owners()
        self.out_degrees = np.asarray(g.out_degrees(), dtype=np.int64)
        self.in_degrees = np.asarray(g.in_degrees(), dtype=np.int64)
        self.in_indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.in_degrees, out=self.in_indptr[1:])
        # set on the frontier for the duration of an EDGEMAP; the arc
        # sources keep the arcs whose source it marks
        self.frontier_mask = np.zeros(self.n, dtype=bool)
        self.arcs = engine._ooc if engine._ooc is not None else ResidentArcs(g)


def get_ctx(engine) -> KernelContext:
    ctx = getattr(engine, "_vec_ctx", None)
    if ctx is None:
        ctx = KernelContext(engine)
        engine._vec_ctx = ctx
    return ctx


# ----------------------------------------------------------------------
# Dispatch predicates
# ----------------------------------------------------------------------
def _always_true(fn) -> bool:
    return fn is None or fn is ctrue


def vertex_map_supported(engine, spec: VertexMapSpec, F, M) -> bool:
    state = engine.flashware.state
    if (M is None) != (spec.map is None):
        return False
    if spec.filter is None and not _always_true(F):
        return False
    for name in spec.reads:
        if state.array(name) is None:
            return False
    for name in spec.raw_reads:
        if not state.has_property(name):
            return False
    return True


def edge_map_supported(engine, edges, spec: EdgeMapSpec, mode: str, F, C) -> bool:
    if type(edges) is not BaseEdges:
        return False
    if spec.only_mode is not None and mode != spec.only_mode:
        return False
    state = engine.flashware.state
    if spec.f is None and not _always_true(F):
        return False
    if (
        spec.cond_unvisited is NOT_SET
        and spec.cond is None
        and not _always_true(C)
    ):
        return False
    for name in spec.reads:
        if state.array(name) is None:
            return False
    for name in spec.raw_reads:
        if not state.has_property(name):
            return False
    if not state.has_property(spec.prop):
        return False
    if spec.kind == "gather":
        # gather appends into a list-valued column; pull mode only
        return mode == "dense" and state.array(spec.prop) is None
    return state.array(spec.prop) is not None


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _add_ops(rec, per_worker: np.ndarray) -> None:
    ops = rec.worker_ops
    for w, count in enumerate(per_worker[: len(ops)]):
        if count:
            ops[w] += int(count)


def _eval_value(spec: EdgeMapSpec, batch: EdgeBatch) -> np.ndarray:
    if callable(spec.value):
        vals = np.asarray(spec.value(batch))
    else:
        dtype = np.bool_ if spec.reduce == "or" else None
        vals = np.full(len(batch), spec.value, dtype=dtype)
    if len(vals) != len(batch):
        raise FlashUsageError("spec value returned a wrong-length array")
    return vals


def _probe_dtype(ctx, state, spec: EdgeMapSpec) -> np.dtype:
    """The dtype of the values ``spec`` produces, probed on an empty
    batch (NumPy dtype promotion does not depend on shape)."""
    return _eval_value(spec, EdgeBatch(ctx, state, _EMPTY_I, _EMPTY_I)).dtype


def _new_acc(ctx, state, spec: EdgeMapSpec, col: np.ndarray) -> np.ndarray:
    """A snapshot copy of ``col`` wide enough for ``spec``'s values."""
    want = np.result_type(col.dtype, _probe_dtype(ctx, state, spec))
    return col.astype(want, copy=True)


def _fit_acc(acc: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Upcast ``acc`` if a chunk produced a wider value dtype than the
    empty-batch probe predicted (defensive; value callables in practice
    are dtype-stable)."""
    want = np.result_type(acc.dtype, vals.dtype)
    return acc if want == acc.dtype else acc.astype(want)


def _run_heads(a: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in a
    non-empty sorted array — each target's first arc in a chunk."""
    heads = np.empty(len(a), dtype=bool)
    heads[0] = True
    np.not_equal(a[1:], a[:-1], out=heads[1:])
    return heads


def _distinct(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``a``: ``np.unique`` without its fixed
    per-call cost, which dominates on a sparse step's few hundred arcs."""
    a = np.sort(a)
    return a[_run_heads(a)] if len(a) else a


def _fold(acc: np.ndarray, reduce: str, dst: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Fold one non-empty chunk's values into ``acc`` in arc order."""
    acc = _fit_acc(acc, vals)
    if reduce == "last":
        # each target keeps the temp of its last arc in fold order — the
        # result of an R that returns its temp unchanged; later chunks
        # overwrite earlier ones
        last = np.append(_run_heads(dst)[1:], True)
        acc[dst[last]] = vals[last]
    else:
        _UFUNCS[reduce].at(acc, dst, vals)
    return acc


def _charge_targets(rec, ctx, t_ops: np.ndarray) -> None:
    """Charge per-target op counts to each target's owner."""
    per_worker = np.bincount(ctx.owners, weights=t_ops, minlength=ctx.P)
    _add_ops(rec, per_worker.astype(np.int64))


# ----------------------------------------------------------------------
# VERTEXMAP
# ----------------------------------------------------------------------
def run_vertex_map(engine, subset, F, M, spec: VertexMapSpec) -> VertexSubset:
    ctx = get_ctx(engine)
    fw = engine.flashware
    state = fw.state
    rec = fw._current
    if fw.tracer.enabled:
        fw.annotate_span(kernel="vertex_map.batch")
    ids = subset.array

    if F is not None:
        _add_ops(rec, np.bincount(ctx.owners[ids], minlength=ctx.P))
    if spec.filter is not None:
        mask = np.asarray(spec.filter(VertexBatch(ctx, state, ids)), dtype=bool)
        passing = ids[mask]
    else:
        passing = ids

    updates = {}
    if M is not None:
        _add_ops(rec, np.bincount(ctx.owners[passing], minlength=ctx.P))
        raw = spec.map(VertexBatch(ctx, state, passing))
        for name, column in raw.items():
            if isinstance(column, list):
                if len(column) != len(passing):
                    raise FlashUsageError("spec map returned a wrong-length column")
                updates[name] = column
            else:
                arr = np.asarray(column)
                if arr.ndim == 0:
                    arr = np.full(len(passing), column)
                if len(arr) != len(passing):
                    raise FlashUsageError("spec map returned a wrong-length column")
                updates[name] = arr

    fw.barrier_columnar(passing, updates, frontier_out=int(len(passing)))
    return VertexSubset(engine, passing)


# ----------------------------------------------------------------------
# EDGEMAP — push (sparse)
# ----------------------------------------------------------------------
def run_edge_map_sparse(engine, subset, spec: EdgeMapSpec) -> VertexSubset:
    ctx = get_ctx(engine)
    fw = engine.flashware
    state = fw.state
    rec = fw._current
    if fw.tracer.enabled:
        fw.annotate_span(kernel=f"edge_map.scatter[{spec.kind}:{spec.reduce}]")
    U = subset.array

    # one op per enumerated out-edge (the C evaluation), charged to the
    # source's owner
    enum = np.bincount(ctx.owners[U], weights=ctx.out_degrees[U], minlength=ctx.P)
    _add_ops(rec, enum.astype(np.int64))

    col = state.array(spec.prop)
    acc = _new_acc(ctx, state, spec, col)
    touched = np.zeros(ctx.n, dtype=bool)
    m_src = np.zeros(ctx.P, dtype=np.int64)
    r_dst = np.zeros(ctx.P, dtype=np.int64)
    pair_chunks = []
    ctx.frontier_mask[U] = True
    try:
        for chunk in ctx.arcs.chunks(ctx, state, U, push=True):
            if spec.cond_unvisited is not NOT_SET:
                chunk = chunk.take(col[chunk.dst] == spec.cond_unvisited)
            elif spec.cond is not None:
                # general C: evaluated per arc against the committed
                # snapshot of the target, exactly like the interpreted
                # per-arc WorkingView
                chunk = chunk.take(np.asarray(
                    spec.cond(VertexBatch(ctx, state, chunk.dst)), dtype=bool
                ))
            vals = _eval_value(spec, chunk)
            if spec.f == "improve":
                snap = col[chunk.dst]
                keep = vals < snap if spec.reduce == "min" else vals > snap
            elif callable(spec.f):
                keep = np.asarray(spec.f(chunk), dtype=bool)
            else:
                keep = None
            if keep is not None:
                chunk, vals = chunk.take(keep), vals[keep]

            # one op per M-passing edge (source owner), one per temp
            # folded by R (target owner)
            src_parts = ctx.owners[chunk.src]
            m_src += np.bincount(src_parts, minlength=ctx.P)
            r_dst += np.bincount(ctx.owners[chunk.dst], minlength=ctx.P)
            if not len(chunk):
                continue
            acc = _fold(acc, spec.reduce, chunk.dst, vals)
            touched[chunk.dst] = True
            # distinct (target, contributing partition) pairs
            pair_chunks.append(_distinct(chunk.dst * ctx.P + src_parts))
    finally:
        ctx.frontier_mask[U] = False

    _add_ops(rec, m_src)
    _add_ops(rec, r_dst)
    out_ids = np.flatnonzero(touched)
    pairs = _distinct(np.concatenate(pair_chunks)) if pair_chunks else _EMPTY_I
    fw.barrier_columnar(
        out_ids,
        {spec.prop: acc[out_ids]},
        reduce_pairs=(pairs // ctx.P, pairs % ctx.P),
        frontier_out=int(len(out_ids)),
    )
    return VertexSubset(engine, out_ids)


# ----------------------------------------------------------------------
# EDGEMAP — pull (dense)
# ----------------------------------------------------------------------
def run_edge_map_dense(engine, subset, spec: EdgeMapSpec) -> VertexSubset:
    ctx = get_ctx(engine)
    fw = engine.flashware
    state = fw.state
    rec = fw._current
    if fw.tracer.enabled:
        fw.annotate_span(kernel=f"edge_map.segment[{spec.kind}:{spec.reduce}]")
    ids = subset.array

    ctx.frontier_mask[ids] = True
    try:
        if spec.kind == "gather":
            return _dense_gather(engine, ctx, state, rec, spec, ids)
        if spec.cond_unvisited is not NOT_SET:
            return _dense_unvisited(engine, ctx, state, rec, spec, ids)
        cmask = None
        if spec.cond is not None:
            # scan-invariant general C (dispatch requires the condition
            # reads no written property): one mask over all targets
            cmask = np.asarray(
                spec.cond(
                    VertexBatch(ctx, state, np.arange(ctx.n, dtype=np.int64))
                ),
                dtype=bool,
            )
        return _dense_full(engine, ctx, state, rec, spec, ids, cmask)
    finally:
        ctx.frontier_mask[ids] = False


def _dense_full(engine, ctx, state, rec, spec, ids, cmask=None) -> VertexSubset:
    """Pull with C = ctrue (or a scan-invariant general C): every
    C-passing target scans its whole in-list; a C-failing target with
    in-degree > 0 costs exactly one op (charge, C fails, break)."""
    fw = engine.flashware
    col = state.array(spec.prop)
    acc = _new_acc(ctx, state, spec, col)
    touched = np.zeros(ctx.n, dtype=bool)
    for chunk in ctx.arcs.chunks(ctx, state, ids, push=False):
        if cmask is not None:
            chunk = chunk.take(cmask[chunk.dst])
        if callable(spec.f):
            chunk = chunk.take(np.asarray(spec.f(chunk), dtype=bool))
        if not len(chunk):
            continue
        acc = _fold(acc, spec.reduce, chunk.dst, _eval_value(spec, chunk))
        touched[chunk.dst] = True

    touched = np.flatnonzero(touched)
    if spec.f == "improve":
        if spec.reduce == "min":
            applied = touched[acc[touched] < col[touched]]
        else:
            applied = touched[acc[touched] > col[touched]]
    else:
        applied = touched

    if cmask is None:
        # full scan: one op per in-arc, charged to the target's owner
        _charge_targets(rec, ctx, ctx.in_degrees)
    else:
        _charge_targets(
            rec, ctx, np.where(cmask, ctx.in_degrees, np.minimum(ctx.in_degrees, 1))
        )

    fw.barrier_columnar(
        applied, {spec.prop: acc[applied]}, frontier_out=int(len(applied))
    )
    return VertexSubset(engine, applied)


def _dense_unvisited(engine, ctx, state, rec, spec, ids) -> VertexSubset:
    """Pull with a write-once C (``target.prop == sentinel``): the scan
    stops right after the first applying source (BFS Algorithm 2).  Each
    unvisited target takes the value of its first qualifying arc in fold
    order, found by a running O(|V|) argmin over the chunks."""
    fw = engine.flashware
    col = state.array(spec.prop)
    eligible_t = col == spec.cond_unvisited

    first = np.full(ctx.n, _MAXI, dtype=np.int64)
    first_val = np.empty(ctx.n, dtype=_probe_dtype(ctx, state, spec))
    for chunk in ctx.arcs.chunks(ctx, state, ids, push=False):
        chunk = chunk.take(eligible_t[chunk.dst])
        if callable(spec.f):
            chunk = chunk.take(np.asarray(spec.f(chunk), dtype=bool))
        if not len(chunk):
            continue
        # a target's first arc in a chunk heads its run (pos ascends
        # within a target); it wins unless an earlier chunk had one
        heads = np.flatnonzero(_run_heads(chunk.dst))
        win = chunk.take(heads[chunk.pos[heads] < first[chunk.dst[heads]]])
        vals = _eval_value(spec, win)
        first_val = _fit_acc(first_val, vals)
        first[win.dst] = win.pos
        first_val[win.dst] = vals
    applied = np.flatnonzero(first < _MAXI)

    # ops per target (see module docstring for the derivation)
    indeg = ctx.in_degrees
    t_ops = np.zeros(ctx.n, dtype=np.int64)
    visited = ~eligible_t & (indeg > 0)
    t_ops[visited] = 1
    t_ops[eligible_t] = indeg[eligible_t]
    t_ops[applied] = np.minimum(
        first[applied] - ctx.in_indptr[applied] + 2, indeg[applied]
    )
    _charge_targets(rec, ctx, t_ops)

    fw.barrier_columnar(
        applied, {spec.prop: first_val[applied]}, frontier_out=int(len(applied))
    )
    return VertexSubset(engine, applied)


def _dense_gather(engine, ctx, state, rec, spec, ids) -> VertexSubset:
    """Pull that appends each active edge's value to the target's
    list-valued property (LPA gossip)."""
    fw = engine.flashware
    bufs = {}
    for chunk in ctx.arcs.chunks(ctx, state, ids, push=False):
        if callable(spec.f):
            chunk = chunk.take(np.asarray(spec.f(chunk), dtype=bool))
        if not len(chunk):
            continue
        vals = _eval_value(spec, chunk).tolist()
        # per-target runs arrive in fold order (source-ascending), the
        # interpreted append order
        heads = np.flatnonzero(_run_heads(chunk.dst))
        ends = np.append(heads[1:], len(chunk))
        for t, s, e in zip(chunk.dst[heads].tolist(), heads.tolist(), ends.tolist()):
            bufs.setdefault(t, []).extend(vals[s:e])

    touched = np.asarray(sorted(bufs), dtype=np.int64)
    col = state.column(spec.prop)
    new_lists = [
        list(col[t]) + bufs[t] if col[t] else bufs[t] for t in touched.tolist()
    ]
    _charge_targets(rec, ctx, ctx.in_degrees)

    fw.barrier_columnar(
        touched, {spec.prop: new_lists}, frontier_out=int(len(touched))
    )
    return VertexSubset(engine, touched)
