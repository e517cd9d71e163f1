"""Tests for relative-rank math, subtree extents and the tuned-ring role
rule — the number theory the whole paper rests on."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CollectiveError
from repro.collectives import (
    relative_rank,
    subtree_chunks,
    tuned_ring_role,
)

sizes = st.integers(min_value=1, max_value=300)


class TestRelativeRank:
    def test_root_maps_to_zero(self):
        assert relative_rank(3, root=3, size=8) == 0

    def test_wraps(self):
        assert relative_rank(1, root=6, size=8) == 3

    @given(size=sizes, data=st.data())
    def test_roundtrip(self, size, data):
        root = data.draw(st.integers(min_value=0, max_value=size - 1))
        rank = data.draw(st.integers(min_value=0, max_value=size - 1))
        rel = relative_rank(rank, root, size)
        assert 0 <= rel < size and (rel + root) % size == rank

    def test_validation(self):
        with pytest.raises(CollectiveError):
            relative_rank(0, root=5, size=4)
        with pytest.raises(CollectiveError):
            relative_rank(9, root=0, size=4)


class TestSubtreeChunks:
    def test_paper_p8(self):
        # Figure 1: root owns 8; rank 4 gets {4,5,6,7}; 2 and 6 get 2; odd
        # ranks are leaves.
        assert [subtree_chunks(r, 8) for r in range(8)] == [8, 1, 2, 1, 4, 1, 2, 1]

    def test_paper_p10(self):
        # Figure 2: the extra branch rooted at relative rank 8 owns {8,9}.
        assert [subtree_chunks(r, 10) for r in range(10)] == [
            10, 1, 2, 1, 4, 1, 2, 1, 2, 1,
        ]

    @given(size=sizes)
    def test_extents_partition_the_chunks(self, size):
        """Subtree intervals [r, r+extent) tile [0, size) exactly: summing
        over subtree *roots* covers every chunk once."""
        covered = [0] * size
        # Walk the tree: root covers all; every rank's own chunk is the
        # start of its interval.
        for r in range(size):
            ext = subtree_chunks(r, size)
            assert 1 <= ext <= size - r  # never wraps
            if r > 0:
                assert ext <= (r & -r)
        # Leaves own exactly one chunk; total of (extent-1) over all ranks
        # counts each chunk's "descendant transfers" in the scatter.
        total = sum(subtree_chunks(r, size) for r in range(size))
        # Every rank appears once as its own chunk plus once per ancestor:
        # sum of subtree sizes == sum over chunks of (tree depth of chunk + 1).
        assert total >= size
        assert total <= size * (size.bit_length() + 1)

    @given(size=sizes)
    def test_validation(self, size):
        with pytest.raises(CollectiveError):
            subtree_chunks(size, size)
        with pytest.raises(CollectiveError):
            subtree_chunks(-1, size)


class TestTunedRingRole:
    def test_paper_p8_roles(self):
        # Section IV walk-through for Figure 4.
        roles = {r: tuned_ring_role(r, 8) for r in range(8)}
        assert roles[0] == (8, 0)  # root: send-only from step 1
        assert roles[7] == (8, 1)  # root's left neighbour: recv-only
        assert roles[4] == (4, 0)  # owns {4,5,6,7}: stops receiving early
        assert roles[3] == (4, 1)  # feeds rank 4 for exactly 4 steps
        assert roles[2] == (2, 0)
        assert roles[1] == (2, 1)
        assert roles[6] == (2, 0)
        assert roles[5] == (2, 1)

    def test_paper_p10_roles(self):
        # Figure 5: rank 4 stops receiving after step 6 (step=4);
        # rank 8 owns {8,9} (step=2); rank 9 feeds root... never sends.
        roles = {r: tuned_ring_role(r, 10) for r in range(10)}
        assert roles[0] == (10, 0)
        assert roles[9] == (10, 1)
        assert roles[4] == (4, 0)
        assert roles[3] == (4, 1)
        assert roles[8] == (2, 0)
        assert roles[7] == (2, 1)

    def test_saved_transfers_paper_numbers(self):
        """Savings = sum over flag=1 ranks of (step - 1): 12 at P=8, 15 at
        P=10 (Section IV)."""
        def saved(P):
            return sum(
                step - 1
                for r in range(P)
                for step, flag in [tuned_ring_role(r, P)]
                if flag == 1
            )

        assert saved(8) == 12
        assert saved(10) == 15

    @given(size=st.integers(min_value=2, max_value=300))
    def test_pairing_property(self, size):
        """Every *effective* early send-stop (step >= 2) at rank r is
        matched by an equal receive-stop at rank r+1, so no sendrecv is
        ever left unpaired. (step == 1 skips nothing on either side.)"""
        for r in range(size):
            step, flag = tuned_ring_role(r, size)
            if flag == 1 and step >= 2:
                nstep, nflag = tuned_ring_role((r + 1) % size, size)
                assert nflag == 0 and nstep == step

    @given(size=st.integers(min_value=2, max_value=300))
    def test_flag0_step_equals_scatter_ownership(self, size):
        """A send-only rank stops receiving exactly when its scatter
        ownership already covers the remaining deliveries."""
        for r in range(size):
            step, flag = tuned_ring_role(r, size)
            if flag == 0:
                assert step == subtree_chunks(r, size)

    @given(size=st.integers(min_value=2, max_value=300))
    def test_flag1_ranks_are_leaves(self, size):
        for r in range(size):
            step, flag = tuned_ring_role(r, size)
            if flag == 1:
                assert subtree_chunks(r, size) == 1

    @given(size=st.integers(min_value=2, max_value=300))
    def test_savings_closed_form(self, size):
        """Total saved transfers == S - P where S = sum of subtree sizes."""
        saved = sum(
            step - 1
            for r in range(size)
            for step, flag in [tuned_ring_role(r, size)]
            if flag == 1
        )
        S = sum(subtree_chunks(r, size) for r in range(size))
        assert saved == S - size

    def test_size_one(self):
        assert tuned_ring_role(0, 1) == (1, 0)

    def test_validation(self):
        with pytest.raises(CollectiveError):
            tuned_ring_role(5, 5)
