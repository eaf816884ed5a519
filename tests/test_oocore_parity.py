"""Out-of-core backend parity: ``backend="oocore"`` must be
observationally identical to ``vectorized`` — same values and the same
charged metrics — across the whole Table IV suite, with the only
allowed difference being the two I/O counters (``blocks_read`` /
``bytes_read``) that the block scheduler charges and the in-memory
backends never do.

Also covers: the low-memory-budget configuration (evictions forced,
results unchanged), per-kernel fallback to the interpreted path,
compile-time spec synthesis over blocks, engine close releasing every
mmap (no file-descriptor leak across repeated runs), and the CLI
surface.
"""

import os

import numpy as np
import pytest

from repro import load_dataset, random_graph
from repro.__main__ import main
from repro.algorithms import bfs, kcore_opt, pagerank, sssp
from repro.core.engine import FlashEngine
from repro.errors import FlashUsageError
from repro.graph.blocks import BlockGraph, build_block_store
from repro.runtime.oocore import OocoreOptions, current_oocore_options, use_oocore
from repro.runtime.vectorized import use_backend
from repro.suite import APPS, DIRECTED_APPS, prepare_graph, run_app

#: Apps whose FLASH variants carry hand-written specs, so at least one
#: superstep must dispatch the oocore block kernels and charge I/O.
SPECCED_APPS = {"cc", "bfs", "kc", "bcc", "lpa"}


@pytest.fixture(scope="module")
def graph():
    return random_graph(40, 120, seed=11)


@pytest.fixture(scope="module")
def weighted(graph):
    return graph.with_random_weights(seed=7)


def _strip_io(summary):
    io = (summary.pop("blocks_read"), summary.pop("bytes_read"))
    return summary, io


def _suite_pair(app, graph, interval=8, **kwargs):
    vec = run_app("flash", app, graph, num_workers=3, backend="vectorized", **kwargs)
    with use_oocore(interval=interval):
        ooc = run_app("flash", app, graph, num_workers=3, backend="oocore", **kwargs)
    return vec, ooc


#: Block intervals of the suite sweep.  On the 40-vertex graph, 64 gives
#: one block (the resident source's single-chunk shape) and 1 splits each
#: target's arcs across the most chunks.
INTERVALS = (1, 8, 64)


# ---------------------------------------------------------------------------
# Whole-suite sweep
# ---------------------------------------------------------------------------
class TestSuiteParity:
    @pytest.mark.parametrize("app, interval", [
        pytest.param(app, i, id=app if i == 8 else f"{app}-interval{i}")
        for i in INTERVALS for app in APPS
    ])
    def test_app_parity(self, app, interval, graph):
        g = graph
        if app in DIRECTED_APPS:
            g = load_dataset("OR", scale=0.05, directed=True)
        g = prepare_graph(app, g)
        vec, ooc = _suite_pair(app, g, interval)
        assert ooc.values == vec.values, app
        vec_summary, vec_io = _strip_io(vec.metrics.summary())
        ooc_summary, ooc_io = _strip_io(ooc.metrics.summary())
        assert ooc_summary == vec_summary, app
        assert vec_io == (0, 0), app  # in-memory backends never touch disk
        if app in SPECCED_APPS:
            assert ooc.metrics.backend_choices.get("oocore", 0) > 0, app
            assert ooc_io[0] > 0 and ooc_io[1] > 0, app

    @pytest.mark.parametrize("app", sorted(SPECCED_APPS - {"kc"}) + ["mis", "bc"])
    def test_compile_analysis_parity(self, app, graph):
        """Synthesized specs (analysis="compile") must stream through the
        block kernels with the same values and charged metrics too."""
        vec, ooc = _suite_pair(app, graph, analysis="compile")
        assert ooc.values == vec.values, app
        vec_summary, _ = _strip_io(vec.metrics.summary())
        ooc_summary, _ = _strip_io(ooc.metrics.summary())
        assert ooc_summary == vec_summary, app


# ---------------------------------------------------------------------------
# Bit-identity for float-valued and weighted algorithms
# ---------------------------------------------------------------------------
class TestBitIdentity:
    def _values_array(self, result):
        values = result.values
        if isinstance(values, dict):
            values = [values[k] for k in sorted(values)]
        return np.asarray(values, dtype=np.float64)

    def test_pagerank_bit_identical(self, graph):
        with use_backend("vectorized"):
            a = pagerank(graph, num_workers=3, max_iters=10)
        with use_backend("oocore"), use_oocore(interval=8):
            b = pagerank(graph, num_workers=3, max_iters=10)
        # exact float equality: the block layout replays the in-CSR arc
        # order, so every float sum folds in the same sequence
        assert np.array_equal(self._values_array(a), self._values_array(b))
        assert b.engine.metrics.backend_choices.get("oocore", 0) > 0

    def test_sssp_weighted_bit_identical(self, weighted):
        with use_backend("vectorized"):
            a = sssp(weighted, root=0, num_workers=3)
        with use_backend("oocore"), use_oocore(interval=8):
            b = sssp(weighted, root=0, num_workers=3)
        assert np.array_equal(self._values_array(a), self._values_array(b))
        assert b.engine.metrics.total_bytes_read > 0  # weight shards read


# ---------------------------------------------------------------------------
# Memory-budget configurations
# ---------------------------------------------------------------------------
class TestBudget:
    def test_low_budget_same_results(self, graph):
        """A budget so small that only one block fits must force
        evictions without changing values or charged metrics — only the
        I/O counters grow (the same block is re-read)."""
        vec, _ = _suite_pair("bfs", graph)
        with use_oocore(interval=8, budget=1):
            low = run_app("flash", "bfs", graph, num_workers=3, backend="oocore")
        assert low.values == vec.values
        vec_summary, _ = _strip_io(vec.metrics.summary())
        low_summary, low_io = _strip_io(low.metrics.summary())
        assert low_summary == vec_summary
        # With nothing retained across supersteps, every visit is a read.
        _, ooc = _suite_pair("bfs", graph)
        _, ample_io = _strip_io(ooc.metrics.summary())
        assert low_io[0] >= ample_io[0]

    def test_engine_budget_kwarg(self, graph):
        with FlashEngine(graph, num_workers=3, backend="oocore",
                         oocore_budget=1, oocore_interval=8) as eng:
            bfs(eng, root=0)
            store = eng._ooc.store
            assert store.budget == 1
            assert store.blocks_evicted > 0

    def test_ambient_options(self):
        assert current_oocore_options() == OocoreOptions()
        with use_oocore(budget=123, interval=4):
            assert current_oocore_options().budget == 123
            assert current_oocore_options().interval == 4
            with use_oocore(budget=456):
                assert current_oocore_options().budget == 456
                assert current_oocore_options().interval == 4
        assert current_oocore_options() == OocoreOptions()


# ---------------------------------------------------------------------------
# Per-kernel fallback
# ---------------------------------------------------------------------------
class TestFallback:
    def test_kcore_opt_mixes_backends(self, graph):
        """kcore_opt's histogram supersteps carry no spec and must fall
        back to the interpreted kernels within the same oocore run."""
        with use_backend("vectorized"):
            a = kcore_opt(graph, num_workers=3)
        with use_backend("oocore"), use_oocore(interval=8):
            b = kcore_opt(graph, num_workers=3)
        assert b.values == a.values
        assert b.engine.metrics.summary() == {
            **a.engine.metrics.summary(),
            "blocks_read": b.engine.metrics.total_blocks_read,
            "bytes_read": b.engine.metrics.total_bytes_read,
        }
        choices = b.engine.metrics.backend_choices
        assert choices.get("oocore", 0) > 0
        assert choices.get("interp", 0) > 0


# ---------------------------------------------------------------------------
# Never-resident graphs
# ---------------------------------------------------------------------------
class TestBlockGraph:
    def test_vectorized_rejects_block_graph(self, graph, tmp_path):
        """A BlockGraph has no resident CSR for the vectorized backend to
        read: the engine must refuse it up front, not crash mid-run."""
        store = build_block_store(graph, tmp_path / "blocks", interval=8)
        try:
            with pytest.raises(FlashUsageError, match="backend='oocore'"):
                FlashEngine(BlockGraph(store), num_workers=3, backend="vectorized")
            with FlashEngine(BlockGraph(store), num_workers=3,
                             backend="oocore") as eng:
                streamed = bfs(eng, root=0)
            assert streamed.values == bfs(graph, root=0, num_workers=3).values
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Resource lifecycle
# ---------------------------------------------------------------------------
def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestClose:
    def test_no_fd_leak_across_runs(self, graph):
        """Repeated engine runs must not leak mmap file descriptors —
        close() releases every mapped shard and the temporary store."""
        # Warm up import-time/file-cache descriptors first.
        with FlashEngine(graph, num_workers=3, backend="oocore",
                         oocore_interval=8) as eng:
            bfs(eng, root=0)
        baseline = _open_fds()
        for _ in range(5):
            with FlashEngine(graph, num_workers=3, backend="oocore",
                             oocore_interval=8) as eng:
                bfs(eng, root=0)
            assert _open_fds() <= baseline
        assert _open_fds() <= baseline

    def test_close_idempotent(self, graph):
        eng = FlashEngine(graph, num_workers=3, backend="oocore",
                          oocore_interval=8)
        bfs(eng, root=0)
        runtime = eng._ooc
        eng.close()
        assert runtime.store.closed
        eng.close()  # second close is a no-op

    def test_store_directory_cleaned_up(self, graph):
        eng = FlashEngine(graph, num_workers=3, backend="oocore",
                          oocore_interval=8)
        directory = eng._ooc.store.directory
        assert directory.exists()
        eng.close()
        assert not directory.exists()  # temporary store removed with engine


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCLI:
    def test_run_oocore_flag(self, capsys):
        assert main(["run", "bfs", "OR", "--scale", "0.05",
                     "--workers", "2", "--backend", "oocore",
                     "--oocore-budget-mb", "1"]) == 0
        out = capsys.readouterr().out
        assert "backend: oocore" in out
        assert "'oocore'" in out  # backend_choices show oocore supersteps
        assert "'blocks_read': " in out

    def test_compare_shows_io_line(self, capsys):
        assert main(["compare", "bfs", "OR", "--scale", "0.05",
                     "--workers", "2", "--backend", "oocore"]) == 0
        out = capsys.readouterr().out
        assert "flash[oocore]" in out
        assert "out-of-core I/O" in out
