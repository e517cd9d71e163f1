"""Tests for ChunkSet, the ownership tracker behind the ring invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CollectiveError
from repro.util import ChunkSet


class TestBasics:
    def test_empty(self):
        cs = ChunkSet(8)
        assert len(cs) == 0
        assert not cs.is_full
        assert cs.missing() == list(range(8))

    def test_add_and_contains(self):
        cs = ChunkSet(8)
        assert cs.add(3)
        assert 3 in cs
        assert 4 not in cs
        assert not cs.add(3)  # second add reports "already owned"

    def test_full_constructor(self):
        cs = ChunkSet.full(5)
        assert cs.is_full
        assert len(cs) == 5
        assert cs.missing() == []

    def test_interval_wraps(self):
        # Relative rank 6 of P=8 owning [6, 6+2) = {6, 7}; rank 7 with
        # length 3 wraps: {7, 0, 1}.
        assert sorted(ChunkSet.interval(8, 6, 2)) == [6, 7]
        assert sorted(ChunkSet.interval(8, 7, 3)) == [0, 1, 7]

    def test_interval_full_universe(self):
        assert ChunkSet.interval(4, 2, 4).is_full

    def test_bad_universe(self):
        with pytest.raises(CollectiveError):
            ChunkSet(0)

    def test_bad_index(self):
        cs = ChunkSet(4)
        with pytest.raises(CollectiveError):
            cs.add(4)
        with pytest.raises(CollectiveError):
            cs.add(-1)
        with pytest.raises(CollectiveError):
            8 in cs

    def test_add_strict_raises_on_duplicate(self):
        cs = ChunkSet(4, [1])
        cs.add_strict(2)
        with pytest.raises(CollectiveError):
            cs.add_strict(1)

    def test_union_update(self):
        a = ChunkSet(6, [0, 1])
        b = ChunkSet(6, [1, 5])
        a.union_update(b)
        assert sorted(a) == [0, 1, 5]

    def test_union_universe_mismatch(self):
        with pytest.raises(CollectiveError):
            ChunkSet(4).union_update(ChunkSet(5))

    def test_copy_is_independent(self):
        a = ChunkSet(4, [2])
        b = a.copy()
        b.add(3)
        assert 3 not in a and 3 in b

    def test_equality_and_hash(self):
        assert ChunkSet(4, [1, 2]) == ChunkSet(4, [2, 1])
        assert ChunkSet(4, [1]) != ChunkSet(5, [1])
        assert hash(ChunkSet(4, [1])) == hash(ChunkSet(4, [1]))

    def test_repr_mentions_members(self):
        assert "ChunkSet(4, [1, 3])" == repr(ChunkSet(4, [3, 1]))


class TestModularInterval:
    @given(
        universe=st.integers(min_value=1, max_value=64),
        data=st.data(),
    )
    def test_interval_constructor_always_interval(self, universe, data):
        start = data.draw(st.integers(min_value=0, max_value=universe - 1))
        length = data.draw(st.integers(min_value=0, max_value=universe))
        cs = ChunkSet.interval(universe, start, length)
        assert len(cs) == length
        assert set(cs) == {(start + k) % universe for k in range(length)}


@given(
    universe=st.integers(min_value=1, max_value=128),
    data=st.data(),
)
def test_set_semantics_match_python_set(universe, data):
    """ChunkSet behaves exactly like a Python set of indices."""
    indices = data.draw(
        st.lists(st.integers(min_value=0, max_value=universe - 1), max_size=40)
    )
    cs = ChunkSet(universe)
    ref = set()
    for idx in indices:
        assert cs.add(idx) == (idx not in ref)
        ref.add(idx)
    assert sorted(cs) == sorted(ref)
    assert len(cs) == len(ref)
    assert cs.is_full == (len(ref) == universe)
    assert cs.missing() == sorted(set(range(universe)) - ref)
