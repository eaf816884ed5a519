"""Tests for the vertexSubset type and its set algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FlashEngine, Graph


@pytest.fixture
def engine():
    return FlashEngine(Graph.from_edges([(i, i + 1) for i in range(9)]), num_workers=2)


class TestBasics:
    def test_size_and_len(self, engine):
        u = engine.subset([1, 3, 5])
        assert u.size() == 3
        assert len(u) == 3
        assert bool(u)
        assert not engine.empty()

    def test_iteration_sorted(self, engine):
        u = engine.subset([5, 1, 3])
        assert list(u) == [1, 3, 5]
        assert u.ids() == [1, 3, 5]

    def test_contains(self, engine):
        u = engine.subset([2, 4])
        assert 2 in u and 3 not in u
        assert u.contain(4) and not u.contain(0)

    def test_duplicates_collapse(self, engine):
        assert engine.subset([1, 1, 1]).size() == 1

    def test_out_of_range_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.subset([100])
        with pytest.raises(ValueError):
            engine.subset([-1])

    def test_v_covers_all(self, engine):
        assert engine.V.size() == engine.graph.num_vertices

    def test_iteration_yields_python_ints(self, engine):
        # user F/M functions receive these ids
        for u in (engine.subset(np.array([4, 2, 2], dtype=np.int32)),
                  engine.subset(range(3)), engine.V.add(np.int64(1))):
            assert all(type(v) is int for v in u)
            assert all(type(v) is int for v in u.ids())

    def test_source_array_mutation_does_not_leak(self, engine):
        src = np.array([1, 3, 5], dtype=np.int64)
        u = engine.subset(src)
        src[0] = 7
        assert list(u) == [1, 3, 5]
        assert u.array.dtype == np.int64
        assert not u.array.flags.writeable
        with pytest.raises(ValueError):
            u.array[0] = 2


class TestIdTypes:
    @pytest.mark.parametrize(
        "ids",
        [
            [1.5],
            [True],
            np.array([2.0, 3.7]),
            ["3"],
            np.array([True, False, True]),  # a bool mask passed by mistake
        ],
        ids=["float", "bool", "float-array", "str", "bool-mask"],
    )
    def test_non_integer_ids_rejected(self, engine, ids):
        with pytest.raises(TypeError):
            engine.subset(ids)

    def test_non_integer_add_rejected(self, engine):
        with pytest.raises(TypeError):
            engine.subset([1]).add(2.5)

    @pytest.mark.parametrize(
        "ids", [[], (), np.array([]), np.array([], dtype=bool), np.empty(0, dtype=object)]
    )
    def test_empty_input_of_any_dtype_accepted(self, engine, ids):
        assert engine.subset(ids).size() == 0

    def test_numpy_integer_ids_accepted(self, engine):
        u = engine.subset([np.int64(3), np.int32(1), np.uint8(2)])
        assert u.ids() == [1, 2, 3]
        assert engine.subset(np.array([5, 4], dtype=np.uint16)).ids() == [4, 5]


class TestAlgebra:
    def test_union(self, engine):
        assert list(engine.subset([1]).union(engine.subset([2]))) == [1, 2]
        assert list(engine.subset([1]) | engine.subset([2])) == [1, 2]

    def test_minus(self, engine):
        assert list(engine.subset([1, 2, 3]).minus(engine.subset([2]))) == [1, 3]
        assert list(engine.subset([1, 2]) - engine.subset([1, 2])) == []

    def test_intersect(self, engine):
        assert list(engine.subset([1, 2, 3]) & engine.subset([2, 3, 4])) == [2, 3]

    def test_add_is_persistent(self, engine):
        u = engine.subset([1])
        w = u.add(5)
        assert list(w) == [1, 5]
        assert list(u) == [1]  # original untouched

    def test_equality_and_hash(self, engine):
        a = engine.subset([1, 2])
        b = engine.subset([2, 1])
        assert a == b
        assert hash(a) == hash(b)
        assert a != engine.subset([1])

    def test_cross_engine_combination_rejected(self, engine):
        other = FlashEngine(Graph.from_edges([(0, 1)]), num_workers=1)
        with pytest.raises(ValueError):
            engine.subset([1]).union(other.subset([0]))

    def test_non_subset_operand_rejected(self, engine):
        with pytest.raises(TypeError):
            engine.subset([1]).union({2})


def _id_lists(ids):
    return st.one_of(
        ids.map(sorted),
        ids.map(lambda s: sorted(s, reverse=True)),
        ids.map(tuple),
    )


def _ranges():
    """Ranges inside ``0..9``, ascending and descending."""
    return st.builds(
        lambda lo, hi, step: range(lo, hi, step) if step > 0 else range(hi - 1, lo - 1, step),
        st.integers(0, 10), st.integers(0, 10), st.sampled_from([1, 2, 3, -1, -2]),
    )


def _unsorted_arrays():
    """Unsorted int ndarrays with duplicates, of several integer dtypes."""
    return st.builds(
        lambda xs, dtype: np.array(xs, dtype=dtype),
        st.lists(st.integers(0, 9), max_size=15),
        st.sampled_from([np.int64, np.int32, np.uint16]),
    )


operands = st.one_of(_id_lists(st.sets(st.integers(0, 9), max_size=10)),
                     _ranges(), _unsorted_arrays())


@settings(max_examples=60, deadline=None)
@given(ra=operands, rb=operands, rc=operands)
def test_set_algebra_laws(ra, rb, rc):
    """Property: subset algebra matches Python-set algebra, whatever the
    operands were built from (lists, ranges, unsorted arrays with
    duplicates)."""
    eng = FlashEngine(Graph.from_edges([(i, i + 1) for i in range(9)]), num_workers=1)
    a, b, c = ({int(v) for v in r} for r in (ra, rb, rc))
    A, B, C = eng.subset(ra), eng.subset(rb), eng.subset(rc)
    for S, s in ((A, a), (B, b), (C, c)):
        assert S.ids() == sorted(s)
        assert all(v in S and S.contain(v) for v in s)
        assert not any(v in S for v in set(range(10)) - s)
    assert set(A | B) == a | b
    assert set(A - B) == a - b
    assert set(A & B) == a & b
    # Distributivity and De-Morgan-ish identities.
    assert (A & (B | C)) == ((A & B) | (A & C))
    assert (A - (B | C)) == ((A - B) & (A - C))
    for v in range(10):
        assert set(A.add(v)) == a | {v}
