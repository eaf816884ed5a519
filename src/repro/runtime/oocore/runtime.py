"""Out-of-core runtime state: options, store lifecycle, arc source.

One :class:`OocoreRuntime` lives on each ``backend="oocore"`` engine.
It owns (or borrows) the engine's :class:`~repro.graph.blocks.BlockStore`
— building one from the resident CSR on first use, or reusing the store
behind a :class:`~repro.graph.blocks.BlockGraph` for graphs that were
never resident — and is the engine's arc source: the shared columnar
kernels of :mod:`repro.runtime.vectorized.kernels` pull the active arcs
from it block by block, so only O(|V|) arrays and the mapped blocks are
ever resident.

Because nested engines (BC, SCC, BCC build sub-engines through
``make_engine``) receive no constructor kwargs, the memory budget /
interval knobs are ambient: ``use_oocore(budget=..., interval=...)``
scopes them the same way ``use_backend`` scopes the backend choice.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from repro.graph.blocks import BlockGraph, BlockStore, build_block_store
from repro.runtime.vectorized.kernels import EdgeBatch


@dataclass(frozen=True)
class OocoreOptions:
    """Knobs for the out-of-core backend.

    ``budget``
        Byte budget for simultaneously mapped blocks (LRU-evicted past
        it); ``None`` uses :data:`repro.graph.blocks.DEFAULT_BUDGET`.
    ``interval``
        Destination/source interval width of the block grid built from a
        resident graph; ``None`` picks
        :func:`repro.graph.blocks.default_interval`.
    ``directory``
        Where to build the block store; ``None`` uses a temporary
        directory removed on ``engine.close()``.
    """

    budget: Optional[int] = None
    interval: Optional[int] = None
    directory: Optional[str] = None


_ambient = OocoreOptions()


def current_oocore_options() -> OocoreOptions:
    """The options new ``backend="oocore"`` engines pick up."""
    return _ambient


@contextmanager
def use_oocore(**overrides) -> Iterator[OocoreOptions]:
    """Scope ambient out-of-core options (see :class:`OocoreOptions`).

    Nested engines created inside the block inherit them::

        with use_oocore(budget=1 << 20, interval=4096):
            with FlashEngine(graph, backend="oocore") as eng:
                ...
    """
    global _ambient
    prev = _ambient
    _ambient = replace(prev, **overrides)
    try:
        yield _ambient
    finally:
        _ambient = prev


class OocoreRuntime:
    """Store lifecycle + arc source for one oocore engine."""

    def __init__(
        self,
        engine,
        budget: Optional[int] = None,
        interval: Optional[int] = None,
        directory: Optional[str] = None,
    ):
        opts = _ambient
        if budget is None:
            budget = opts.budget
        if interval is None:
            interval = opts.interval
        if directory is None:
            directory = opts.directory
        self.engine = engine
        self._tmp: Optional[tempfile.TemporaryDirectory] = None

        graph = engine.graph
        if isinstance(graph, BlockGraph):
            # Semi-external graph: the store pre-exists; borrow it.
            self.store = graph.store
            self._owns_store = False
            if budget is not None:
                self.store.budget = max(1, int(budget))
        else:
            if directory is None:
                self._tmp = tempfile.TemporaryDirectory(prefix="repro-oocore-")
                directory = self._tmp.name
            self.store = build_block_store(graph, directory, interval=interval)
            self._owns_store = True
            if budget is not None:
                self.store.budget = max(1, int(budget))
        self.store.on_miss = self._charge_io
        self._closed = False

    # ------------------------------------------------------------------
    def _charge_io(self, meta) -> None:
        """Block-store cache-miss hook: charge the read to the running
        superstep (adjacency reads between supersteps go uncharged —
        there is no record to attribute them to)."""
        rec = self.engine.flashware._current
        if rec is not None:
            rec.blocks_read += 1
            rec.bytes_read += meta.bytes

    # ------------------------------------------------------------------
    def chunks(self, ctx, state, ids: np.ndarray, push: bool) -> Iterator[EdgeBatch]:
        """The arc source of the shared kernels (see
        :mod:`repro.runtime.vectorized.kernels`): the arcs leaving the
        frontier, one chunk per block, in global in-CSR order.

        Destination rows stream in ascending order and, within a row,
        blocks in ascending source interval — which replays in-CSR order
        (see :mod:`repro.graph.blocks`).  Blocks whose source interval
        holds no active vertex are skipped unread; the other blocks'
        arcs are filtered by ``ctx.frontier_mask``.  Push and pull read
        the same stream, so ``push`` is unused.  Emits one
        ``oocore.block`` span per block streamed; cache misses are
        charged to the superstep by the store's miss hook.
        """
        store = self.store
        tracer = self.engine.flashware.tracer
        active = np.bincount(ids // store.interval, minlength=store.num_intervals)
        for di in range(store.num_intervals):
            for meta in store.row_metas(di):
                if active[meta.si] == 0:
                    continue
                span = (
                    tracer.start(
                        "oocore.block", cat="oocore",
                        di=di, si=meta.si, arcs=meta.arcs,
                    )
                    if tracer.enabled
                    else None
                )
                block, hit = store.get(di, meta.si)
                src = np.asarray(block.src)
                sel = np.flatnonzero(ctx.frontier_mask[src])
                if len(sel):
                    yield EdgeBatch(
                        ctx, state, src[sel], np.asarray(block.dst)[sel],
                        np.asarray(block.pos)[sel], lambda w=block.w: w, sel,
                    )
                if span is not None:
                    span.end(bytes=meta.bytes, cached=hit)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release mapped blocks; delete the store if this engine built
        it.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.store.on_miss is self._charge_io:
            self.store.on_miss = None
        if self._owns_store:
            self.store.close()
            if self._tmp is not None:
                self._tmp.cleanup()
                self._tmp = None
        else:
            # Borrowed store (BlockGraph): unmap our working set but
            # leave the store open for other engines over the graph.
            self.store.release()
