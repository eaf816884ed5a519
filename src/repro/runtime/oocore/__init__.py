"""Out-of-core block execution backend (``backend="oocore"``).

Streams the graph's arcs from memory-mapped edge-block shards (see
:mod:`repro.graph.blocks`), one block at a time, through the vectorized
backend's columnar kernels — the same results and charged accounting
bit-for-bit, while keeping only O(|V|) vertex columns resident.
"""

from repro.runtime.oocore.runtime import (
    OocoreOptions,
    OocoreRuntime,
    current_oocore_options,
    use_oocore,
)

__all__ = [
    "OocoreOptions",
    "OocoreRuntime",
    "current_oocore_options",
    "use_oocore",
]
