"""Tests for the recursive-doubling allgather and its bcast composition."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CollectiveError
from repro.collectives import (
    allgather_recursive_doubling,
    bcast_scatter_rdbl,
)
from repro.collectives.schedule import extract_schedule
from repro.mpi import RealBuffer


def run_rdbl(P, nbytes, root=0):
    bufs = [RealBuffer(nbytes, fill=(5 if r == root else 0)) for r in range(P)]

    def factory(ctx):
        def program():
            return (yield from bcast_scatter_rdbl(ctx, nbytes, root))

        return program()

    return extract_schedule(P, factory, buffers=bufs), bufs


class TestRecursiveDoubling:
    @pytest.mark.parametrize("P", [2, 4, 8, 16, 32])
    def test_data_complete_pof2(self, P):
        schedule, bufs = run_rdbl(P, 64 * P)
        for buf in bufs:
            assert (buf.array == 5).all()
        for res in schedule.rank_results:
            res.assert_complete()

    def test_rejects_non_pof2(self):
        def factory(ctx):
            def program():
                return (yield from allgather_recursive_doubling(ctx, 100, 0))

            return program()

        with pytest.raises(CollectiveError):
            extract_schedule(6, factory)

    def test_step_count_is_log2(self):
        schedule, _ = run_rdbl(16, 1600)
        for res in schedule.rank_results:
            # scatter recvs (<=1) + rd sendrecvs (log2 P).
            assert res.sends >= 4
        rd_sends = [s for s in schedule.sends if s.tag == 3]
        # Every rank sends once per round: P * log2(P).
        assert len(rd_sends) == 16 * 4

    def test_transfer_count_smaller_than_ring(self):
        """Recursive doubling needs P*log2(P) transfers vs the ring's
        P*(P-1) — why MPICH prefers it for medium pof2 messages."""
        schedule, _ = run_rdbl(16, 16 * 1024)
        rd = sum(1 for s in schedule.sends if s.tag == 3)
        assert rd == 64 < 16 * 15

    def test_exchange_partners_are_xor_pairs(self):
        schedule, _ = run_rdbl(8, 800)
        for s in schedule.sends:
            if s.tag == 3:
                assert (s.src ^ s.dst) in (1, 2, 4)

    @pytest.mark.parametrize("root", [0, 3, 7])
    def test_nonzero_root(self, root):
        schedule, bufs = run_rdbl(8, 799, root=root)
        for buf in bufs:
            assert (buf.array == 5).all()

    def test_uneven_division(self):
        schedule, bufs = run_rdbl(8, 801)
        for buf in bufs:
            assert (buf.array == 5).all()

    def test_tiny_message(self):
        schedule, bufs = run_rdbl(8, 3)
        for buf in bufs:
            assert (buf.array == 5).all()


@settings(deadline=None, max_examples=20)
@given(
    logp=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_property_rdbl_correct_for_random_inputs(logp, data):
    P = 1 << logp
    root = data.draw(st.integers(min_value=0, max_value=P - 1))
    nbytes = data.draw(st.integers(min_value=1, max_value=2000))
    schedule, bufs = run_rdbl(P, nbytes, root=root)
    for buf in bufs:
        assert (buf.array == 5).all()
    rd_sends = [s for s in schedule.sends if s.tag == 3]
    assert len(rd_sends) == P * logp
