"""The oocore backend's kernel entry points.

The out-of-core backend runs the shared columnar kernels of
:mod:`repro.runtime.vectorized.kernels` unchanged; only their arc
source differs (the engine's :class:`~repro.runtime.oocore.runtime.
OocoreRuntime` streams edge blocks instead of reading the resident CSR).
The engine resolves these names on this module for oocore engines, so
they can be wrapped separately from the resident ones.
"""

from repro.runtime.vectorized.kernels import (
    run_edge_map_dense,
    run_edge_map_sparse,
    run_vertex_map,
)

__all__ = ["run_edge_map_dense", "run_edge_map_sparse", "run_vertex_map"]
