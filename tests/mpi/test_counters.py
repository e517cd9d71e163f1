"""Unit tests for the traffic counters."""

from hypothesis import given, strategies as st

from repro.mpi import TrafficCounters


class TestRecord:
    def test_single_intra(self):
        c = TrafficCounters()
        c.record(0, 1, 100, intra=True)
        assert c.messages == 1 and c.bytes == 100
        assert c.intra_messages == 1 and c.inter_messages == 0
        assert c.sent_by_rank == {0: 1}
        assert c.received_by_rank == {1: 1}
        assert c.bytes_sent_by_rank == {0: 100}

    def test_levels_split(self):
        c = TrafficCounters()
        c.record(0, 1, 10, intra=True)
        c.record(0, 2, 20, intra=False)
        assert (c.intra_messages, c.inter_messages) == (1, 1)
        assert (c.intra_bytes, c.inter_bytes) == (10, 20)

    def test_repr(self):
        c = TrafficCounters()
        c.record(3, 4, 7, intra=True)
        assert "msgs=1" in repr(c)


class TestMerge:
    def test_merge_accumulates(self):
        a, b = TrafficCounters(), TrafficCounters()
        a.record(0, 1, 10, intra=True)
        b.record(1, 0, 20, intra=False)
        b.record(0, 1, 5, intra=True)
        a.merge(b)
        assert a.messages == 3
        assert a.bytes == 35
        assert a.sent_by_rank == {0: 2, 1: 1}
        assert a.received_by_rank == {1: 2, 0: 1}
        assert a.bytes_sent_by_rank == {0: 15, 1: 20}

    def test_merge_empty(self):
        a = TrafficCounters()
        a.record(0, 1, 1, intra=True)
        a.merge(TrafficCounters())
        assert a.messages == 1

    @given(
        events=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=1000),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    def test_property_merge_equals_sequential(self, events):
        """Splitting a stream across two counters and merging equals
        recording everything on one."""
        whole = TrafficCounters()
        left, right = TrafficCounters(), TrafficCounters()
        for i, (src, dst, nbytes, intra) in enumerate(events):
            whole.record(src, dst, nbytes, intra)
            (left if i % 2 == 0 else right).record(src, dst, nbytes, intra)
        left.merge(right)
        assert left == whole  # every counter field, per-rank maps included

    @given(
        events=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=100),
                st.booleans(),
            ),
            max_size=20,
        )
    )
    def test_property_invariants(self, events):
        c = TrafficCounters()
        for src, dst, nbytes, intra in events:
            c.record(src, dst, nbytes, intra)
        assert c.intra_messages + c.inter_messages == c.messages
        assert c.intra_bytes + c.inter_bytes == c.bytes
        assert sum(c.sent_by_rank.values()) == c.messages
        assert sum(c.received_by_rank.values()) == c.messages
        assert sum(c.bytes_sent_by_rank.values()) == c.bytes
