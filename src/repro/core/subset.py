"""The ``vertexSubset`` type (paper §III-A, §III-C).

A :class:`VertexSubset` is an immutable set of vertex ids tied to an
engine.  It is the "global-perspective data structure supplementing the
perspective of a single vertex": algorithms may hold many subsets at
once, pass them through recursion (e.g. Brandes' BC), and combine them
with the auxiliary set operators (``UNION``, ``MINUS``, ``INTERSECT``,
``ADD``, ``CONTAIN`` — §III-A "the auxiliary operators").

Representation.  As in Ligra (the paper's frontier), a subset is one
sorted, duplicate-free, read-only ``int64`` array of ids (:attr:`array`);
the vectorized kernels read and produce it directly.  Two Python views
are built lazily, on first use: the list of Python ``int`` ids behind
``__iter__``/:meth:`ids` (user F/M functions receive these ids), and the
frozenset behind ``__contains__``/:meth:`contain`.  Construction accepts
any iterable of integer ids (a list, a ``range``, an integer ndarray)
and never sorts or deduplicates input that is already strictly
increasing (kernel outputs, ``range``).  Ids of any non-integer dtype
(floats, bools, strings) raise :class:`TypeError`.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Optional

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


def _as_id_array(ids: Iterable[int]) -> np.ndarray:
    """Ids as a 1-D integer ndarray, without copying an input ndarray.
    Raises :class:`TypeError` for non-integer ids (empty input of any
    dtype is accepted)."""
    if isinstance(ids, range):
        return np.arange(ids.start, ids.stop, ids.step, dtype=np.int64)
    if not isinstance(ids, np.ndarray):
        ids = np.asarray(ids if isinstance(ids, (list, tuple)) else list(ids))
    if ids.size == 0:
        return _EMPTY
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise TypeError(
            f"vertex ids must be integers, got an array of dtype {ids.dtype}"
            + ("" if ids.ndim == 1 else f" and shape {ids.shape}")
        )
    return ids


class VertexSubset:
    """An immutable subset of a graph's vertices."""

    __slots__ = ("_engine", "_arr", "_list", "_set")

    def __init__(self, engine, ids: Iterable[int]):
        self._engine = engine
        arr = _as_id_array(ids)
        if len(arr):
            lo, hi = arr.min(), arr.max()
            n = engine.graph.num_vertices
            if lo < 0 or hi >= n:
                raise ValueError(
                    f"vertex id {lo if lo < 0 else hi} out of range (|V|={n})"
                )
            if arr.dtype != np.int64:
                arr = arr.astype(np.int64)
            increasing = isinstance(ids, range) and ids.step > 0
            if not increasing and len(arr) > 1 and not (arr[1:] > arr[:-1]).all():
                arr = np.unique(arr)
            if arr is ids:
                # the caller still owns the array
                arr = arr.copy()
            arr.flags.writeable = False
        self._arr: np.ndarray = arr
        self._list: Optional[List[int]] = None
        self._set: Optional[FrozenSet[int]] = None

    # ------------------------------------------------------------------
    @property
    def engine(self):
        return self._engine

    @property
    def array(self) -> np.ndarray:
        """The member ids as a sorted, read-only ``int64`` array."""
        return self._arr

    def _ids_list(self) -> List[int]:
        if self._list is None:
            self._list = self._arr.tolist()
        return self._list

    def _members(self) -> FrozenSet[int]:
        if self._set is None:
            self._set = frozenset(self._ids_list())
        return self._set

    def size(self) -> int:
        """The paper's ``SIZE(U)`` — a superstep-free global count."""
        return len(self._arr)

    def __len__(self) -> int:
        return len(self._arr)

    def __bool__(self) -> bool:
        return len(self._arr) > 0

    def __iter__(self) -> Iterator[int]:
        """Iterate ids (Python ``int``) in sorted order (deterministic
        execution)."""
        return iter(self._ids_list())

    def __contains__(self, vid: int) -> bool:
        return vid in self._members()

    def ids(self) -> List[int]:
        """Sorted list of member ids."""
        return list(self._ids_list())

    # ------------------------------------------------------------------
    # Auxiliary set operators
    # ------------------------------------------------------------------
    def _check_peer(self, other: "VertexSubset") -> None:
        if not isinstance(other, VertexSubset):
            raise TypeError(f"expected VertexSubset, got {type(other).__name__}")
        if other._engine is not self._engine:
            raise ValueError("cannot combine subsets from different engines")

    def union(self, other: "VertexSubset") -> "VertexSubset":
        self._check_peer(other)
        return VertexSubset(self._engine, np.union1d(self._arr, other._arr))

    def minus(self, other: "VertexSubset") -> "VertexSubset":
        self._check_peer(other)
        return VertexSubset(
            self._engine, np.setdiff1d(self._arr, other._arr, assume_unique=True)
        )

    def intersect(self, other: "VertexSubset") -> "VertexSubset":
        self._check_peer(other)
        return VertexSubset(
            self._engine, np.intersect1d(self._arr, other._arr, assume_unique=True)
        )

    def add(self, vid: int) -> "VertexSubset":
        """A new subset with ``vid`` added (subsets are immutable)."""
        return VertexSubset(self._engine, np.union1d(self._arr, _as_id_array([vid])))

    def contain(self, vid: int) -> bool:
        """The paper's ``CONTAIN`` operator."""
        return int(vid) in self._members()

    # Operator sugar
    __or__ = union
    __sub__ = minus
    __and__ = intersect

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSubset):
            return NotImplemented
        return self._engine is other._engine and np.array_equal(self._arr, other._arr)

    def __hash__(self) -> int:
        return hash((id(self._engine), self._arr.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        preview = ", ".join(map(str, self._arr[:8].tolist()))
        suffix = ", ..." if len(self._arr) > 8 else ""
        return f"VertexSubset({{{preview}{suffix}}}, size={len(self._arr)})"
