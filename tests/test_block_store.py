"""Block store on-disk format, LRU budget enforcement, and the
block-paged :class:`BlockGraph` adjacency surface."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import Graph, random_graph
from repro.algorithms import bfs
from repro.core.engine import FlashEngine
from repro.graph.blocks import (
    BLOCK_FORMAT_VERSION,
    BlockGraph,
    BlockStore,
    build_block_store,
    build_block_store_streamed,
    default_interval,
)
from repro.graph.partition import partition_graph


@pytest.fixture()
def graph():
    return random_graph(40, 120, seed=11)


@pytest.fixture()
def store(graph, tmp_path):
    s = build_block_store(graph, tmp_path / "blocks", interval=8)
    yield s
    s.close()


# ---------------------------------------------------------------------------
# Manifest + shard layout
# ---------------------------------------------------------------------------
class TestFormat:
    def test_manifest_fields(self, graph, store, tmp_path):
        manifest = json.loads((tmp_path / "blocks" / "manifest.json").read_text())
        assert manifest["format_version"] == BLOCK_FORMAT_VERSION
        assert manifest["num_vertices"] == graph.num_vertices
        assert manifest["num_arcs"] == graph.num_arcs
        assert manifest["num_edges"] == graph.num_edges
        assert manifest["directed"] == graph.directed
        assert manifest["weighted"] == graph.weighted
        assert manifest["interval"] == 8
        assert manifest["num_intervals"] == 5
        assert "checksum" in manifest
        assert sum(b["arcs"] for b in manifest["blocks"]) == graph.num_arcs

    def test_blocks_replay_in_csr(self, graph, store):
        """Concatenating blocks row-major (di asc, si asc) replays the
        in-CSR arc sequence — the layout invariant every oocore kernel
        depends on for bit-identical reductions."""
        in_csr = graph.in_csr
        srcs, dsts, poss = [], [], []
        for di in range(store.num_intervals):
            for meta in store.row_metas(di):
                block, _ = store.get(meta.di, meta.si)
                srcs.append(np.array(block.src))
                dsts.append(np.array(block.dst))
                poss.append(np.array(block.pos))
        src = np.concatenate(srcs)
        dst = np.concatenate(dsts)
        pos = np.concatenate(poss)
        # Within a destination row the arcs of each target are ascending
        # by global in-CSR position; sorting rows by pos recovers the
        # exact in-CSR order.
        order = np.argsort(pos)
        assert np.array_equal(src[order], in_csr.indices)
        expected_dst = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64), graph.in_degrees()
        )
        assert np.array_equal(dst[order], expected_dst)

    def test_checksum_tamper_rejected(self, graph, tmp_path):
        s = build_block_store(graph, tmp_path / "b", interval=8)
        s.close()
        path = tmp_path / "b" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["num_arcs"] += 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="checksum"):
            BlockStore(tmp_path / "b")

    def test_version_mismatch_rejected(self, graph, tmp_path):
        s = build_block_store(graph, tmp_path / "b", interval=8)
        s.close()
        path = tmp_path / "b" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format v99 not supported"):
            BlockStore(tmp_path / "b")

    def test_truncated_shard_rejected(self, graph, tmp_path):
        s = build_block_store(graph, tmp_path / "b", interval=8)
        s.close()
        path = tmp_path / "b" / "blocks" / "b0_0.pos.npy"
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        store = BlockStore(tmp_path / "b")
        try:
            with pytest.raises(ValueError, match="b0_0.pos.npy"):
                store.get(0, 0)
        finally:
            store.close()

    def test_truncated_after_first_map_rejected(self, store):
        store.get(0, 0)
        store.release()
        path = store.directory / "blocks" / "b0_0.dst.npy"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="b0_0.dst.npy.*bytes on disk"):
            store.get(0, 0)

    def test_length_mismatched_shard_rejected(self, store):
        """A well-formed ``.npy`` shard whose length disagrees with the
        manifest's arc count is refused on first map."""
        path = store.directory / "blocks" / "b0_0.src.npy"
        np.save(path, np.load(path)[:-1])
        with pytest.raises(ValueError, match="b0_0.src.npy.*manifest expects"):
            store.get(0, 0)
        assert store.mapped_bytes == 0 and store.blocks_loaded == 0

    def test_wrong_dtype_shard_rejected(self, store):
        path = store.directory / "blocks" / "b0_0.src.npy"
        np.save(path, np.load(path).astype(np.int32))
        with pytest.raises(ValueError, match="b0_0.src.npy.*int32"):
            store.get(0, 0)

    def test_header_rewritten_between_maps_rejected(self, store):
        """Same size on disk, different header: caught by the byte
        compare against the header cached on the first map."""
        store.get(0, 0)
        store.release()
        path = store.directory / "blocks" / "b0_0.pos.npy"
        size = path.stat().st_size
        np.save(path, np.load(path).view(np.uint64))
        assert path.stat().st_size == size
        with pytest.raises(ValueError, match="b0_0.pos.npy.*header changed"):
            store.get(0, 0)

    def test_trimmed_block_fails_oocore_bfs(self, tmp_path):
        """Trimming arcs from every shard of one block (consistently, so
        each shard is a valid ``.npy``) must fail the solve, not let it
        finish with wrong values."""
        g = random_graph(200, 800, seed=5)
        store = build_block_store(g, tmp_path / "b", interval=64)
        try:
            for name in ("src", "dst", "pos"):
                path = tmp_path / "b" / "blocks" / f"b0_0.{name}.npy"
                np.save(path, np.load(path)[:-5])
            with pytest.raises(ValueError, match="manifest expects"):
                with FlashEngine(BlockGraph(store), num_workers=2,
                                 backend="oocore") as eng:
                    bfs(eng, root=0)
        finally:
            store.close()

    def test_default_interval_floor(self):
        assert default_interval(10) == 256
        assert default_interval(16 * 300) == 300


# ---------------------------------------------------------------------------
# LRU budget
# ---------------------------------------------------------------------------
class TestBudget:
    def test_eviction_bounds_mapped_bytes(self, graph, tmp_path):
        store = build_block_store(graph, tmp_path / "b", interval=8)
        try:
            biggest = max(m.bytes for row in range(store.num_intervals)
                          for m in store.row_metas(row))
            store.budget = biggest  # at most one big block resident
            for di in range(store.num_intervals):
                for meta in store.row_metas(di):
                    store.get(meta.di, meta.si)
                    assert store.mapped_bytes <= max(biggest, meta.bytes)
            assert store.blocks_evicted > 0
        finally:
            store.close()

    def test_cache_hit_within_budget(self, store):
        meta = store.row_metas(0)[0]
        _, hit1 = store.get(meta.di, meta.si)
        _, hit2 = store.get(meta.di, meta.si)
        assert not hit1 and hit2
        assert store.blocks_loaded == 1

    def test_remap_cycles_match_np_load(self, graph, tmp_path):
        """Every block mapped, evicted and re-mapped under a 1-byte budget
        reads back exactly what ``np.load`` reads from its shards."""
        weighted = Graph.from_edges(
            graph.edges(), weights=np.linspace(0.5, 2.0, graph.num_edges)
        )
        for g, name in ((graph, "plain"), (weighted, "weighted")):
            store = build_block_store(g, tmp_path / name, interval=8)
            store.budget = 1
            shards = ("src", "dst", "pos", "w") if g.weighted else ("src", "dst", "pos")
            try:
                for _cycle in range(3):
                    for di in range(store.num_intervals):
                        for meta in store.row_metas(di):
                            block, hit = store.get(meta.di, meta.si)
                            assert not hit
                            stem = store.directory / "blocks" / f"b{meta.di}_{meta.si}"
                            for shard in shards:
                                expected = np.load(f"{stem}.{shard}.npy")
                                got = getattr(block, shard)
                                assert got.dtype == expected.dtype
                                assert not got.flags.writeable
                                assert np.array_equal(got, expected)
                assert store.blocks_evicted == store.blocks_loaded - 1
            finally:
                store.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_open_fds_bounded_and_released(self, graph, store):
        """The store owns its ``mmap`` handles: a 1-byte-budget scan
        holds one block's shards open at a time, even while the caller
        keeps every evicted ``Block`` object, and ``close()`` returns the
        descriptor count to where it started."""
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        baseline = open_fds()
        store.budget = 1
        peak = baseline
        held = []
        for _cycle in range(2):
            for di in range(store.num_intervals):
                for meta in store.row_metas(di):
                    held.append(store.get(meta.di, meta.si)[0])
                    peak = max(peak, open_fds())
        assert store.blocks_loaded > store.num_intervals
        assert peak <= baseline + 3  # src, dst, pos of the one cached block
        store.close()
        assert open_fds() == baseline

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_open_maps_bounded_by_fd_limit(self, tmp_path):
        """Under a byte budget that fits every block, the cache still
        stops at a quarter of the soft descriptor limit: a scan of 6000
        tiny blocks (18000 shards) completes in a process whose soft
        limit is 256, and never holds more than 64 shard maps."""
        directory = tmp_path / "fine"
        build_block_store(random_graph(300, 3000, seed=1), directory, interval=1).close()
        script = textwrap.dedent("""
            import json, os, resource, sys
            from repro.graph.blocks import BlockStore

            _soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
            resource.setrlimit(resource.RLIMIT_NOFILE, (256, hard))
            def open_fds():
                return len(os.listdir("/proc/self/fd"))
            store = BlockStore(sys.argv[1])
            baseline = peak = open_fds()
            for di in range(store.num_intervals):
                for meta in store.row_metas(di):
                    store.get(meta.di, meta.si)
                    peak = max(peak, open_fds())
            print(json.dumps({"baseline": baseline, "peak": peak,
                              "loaded": store.blocks_loaded}))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.path.dirname(__file__), "..", "src"),
                          env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(directory)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["loaded"] == 6000
        assert out["peak"] - out["baseline"] <= 256 // 4

    def test_close_idempotent(self, graph, tmp_path):
        store = build_block_store(graph, tmp_path / "b", interval=8)
        store.get(0, 0)
        store.close()
        assert store.closed
        store.close()  # second close is a no-op
        with pytest.raises(RuntimeError, match="closed"):
            store.get(0, 0)


# ---------------------------------------------------------------------------
# BlockGraph adjacency surface
# ---------------------------------------------------------------------------
class TestBlockGraph:
    def test_adjacency_matches_graph(self, graph, store):
        bg = BlockGraph(store)
        assert bg.num_vertices == graph.num_vertices
        assert bg.num_arcs == graph.num_arcs
        assert bg.num_edges == graph.num_edges
        assert np.array_equal(bg.out_degrees(), graph.out_degrees())
        assert np.array_equal(bg.in_degrees(), graph.in_degrees())
        for v in range(graph.num_vertices):
            assert np.array_equal(np.sort(bg.in_neighbors(v)),
                                  np.sort(graph.in_neighbors(v))), v
            assert np.array_equal(np.sort(bg.out_neighbors(v)),
                                  np.sort(graph.out_neighbors(v))), v

    def test_directed_adjacency(self, tmp_path):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (0, 2)], directed=True)
        store = build_block_store(g, tmp_path / "b", interval=2)
        try:
            bg = BlockGraph(store)
            assert bg.directed
            for v in range(3):
                assert np.array_equal(np.sort(bg.out_neighbors(v)),
                                      np.sort(g.out_neighbors(v)))
                assert np.array_equal(np.sort(bg.in_neighbors(v)),
                                      np.sort(g.in_neighbors(v)))
        finally:
            store.close()

    def test_neighbor_partition_mask(self, graph, store):
        bg = BlockGraph(store)
        owner = np.arange(graph.num_vertices, dtype=np.int64) % 3
        mask = bg.neighbor_partition_mask(owner, 3)
        for v in range(graph.num_vertices):
            nbrs = set(owner[graph.out_neighbors(v)].tolist())
            nbrs.update(owner[graph.in_neighbors(v)].tolist())
            assert set(np.flatnonzero(mask[v]).tolist()) == nbrs, v


    def test_partition_mask_built_once_per_partitioning(self, graph, store):
        """A second engine over the same BlockGraph reuses the mask: no
        block is loaded while it is constructed, and its necessary
        mirrors equal those of a freshly streamed mask."""
        bg = BlockGraph(store)
        resident = partition_graph(graph, 3)

        def mirrors(eng):
            part = eng.flashware.partition
            return [part.neighbor_mirrors(v) for v in range(graph.num_vertices)]

        with FlashEngine(bg, num_workers=3, backend="oocore") as first:
            assert mirrors(first) == [resident.neighbor_mirrors(v)
                                      for v in range(graph.num_vertices)]
        loaded = store.blocks_loaded
        assert loaded > 0
        with FlashEngine(bg, num_workers=3, backend="oocore") as second:
            assert store.blocks_loaded == loaded
            assert mirrors(second) == mirrors(first)
            owner = second.flashware.partition.owners()
            cached = bg.neighbor_partition_mask(owner, 3)
            assert np.array_equal(cached, bg._stream_partition_mask(owner, 3))
            # callers get a copy: editing it leaves the cached mask intact
            cached[:] = False
            assert bg.neighbor_partition_mask(owner, 3).any()

    @pytest.mark.parametrize("kwargs", [{"num_workers": 2},
                                        {"partition_strategy": "chunk"}])
    def test_partition_mask_recomputed_for_new_partitioning(
        self, graph, store, kwargs
    ):
        bg = BlockGraph(store)
        with FlashEngine(bg, num_workers=3, backend="oocore"):
            pass
        loaded = store.blocks_loaded
        config = {"num_workers": 3, **kwargs}
        with FlashEngine(bg, backend="oocore", **config) as eng:
            assert store.blocks_loaded > loaded
            resident = partition_graph(
                graph, config["num_workers"], kwargs.get("partition_strategy", "hash")
            )
            part = eng.flashware.partition
            assert [part.neighbor_mirrors(v) for v in range(graph.num_vertices)] \
                == [resident.neighbor_mirrors(v) for v in range(graph.num_vertices)]


# ---------------------------------------------------------------------------
# Streamed (never-resident) builder
# ---------------------------------------------------------------------------
class TestStreamedBuilder:
    def test_matches_resident_builder(self, graph, tmp_path):
        edges = graph.edges()
        src = np.array([s for s, _ in edges], dtype=np.int64)
        dst = np.array([d for _, d in edges], dtype=np.int64)

        def chunks():
            for lo in range(0, len(edges), 17):
                yield src[lo:lo + 17], dst[lo:lo + 17]

        a = build_block_store(graph, tmp_path / "resident", interval=8)
        b = build_block_store_streamed(
            tmp_path / "streamed", graph.num_vertices, chunks,
            directed=graph.directed, interval=8,
        )
        try:
            assert b.num_intervals == a.num_intervals
            assert np.array_equal(b.out_degrees(), a.out_degrees())
            assert np.array_equal(b.in_degrees(), a.in_degrees())
            for di in range(a.num_intervals):
                metas_a, metas_b = a.row_metas(di), b.row_metas(di)
                assert [(m.di, m.si, m.arcs) for m in metas_a] == \
                       [(m.di, m.si, m.arcs) for m in metas_b]
                for meta in metas_a:
                    ba, _ = a.get(meta.di, meta.si)
                    bb, _ = b.get(meta.di, meta.si)
                    assert np.array_equal(ba.src, bb.src)
                    assert np.array_equal(ba.dst, bb.dst)
                    assert np.array_equal(ba.pos, bb.pos)
        finally:
            a.close()
            b.close()

    def test_spill_files_cleaned_up(self, tmp_path):
        def chunks():
            yield (np.array([0, 1, 2], dtype=np.int64),
                   np.array([1, 2, 0], dtype=np.int64))

        store = build_block_store_streamed(tmp_path / "b", 3, chunks, interval=2)
        try:
            assert not (tmp_path / "b" / "_rows").exists()
        finally:
            store.close()
