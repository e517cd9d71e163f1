"""Tests for the enclosed (native) and tuned ring allgather phases —
the heart of the paper."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import (
    bcast_scatter_ring_native,
    bcast_scatter_ring_opt,
    subtree_chunks,
)
from repro.collectives.schedule import extract_schedule
from repro.mpi import RealBuffer


def run_bcast(algo, P, nbytes, root=0, real=True):
    bufs = None
    if real:
        bufs = [RealBuffer(nbytes, fill=(9 if r == root else 0)) for r in range(P)]

    def factory(ctx):
        def program():
            return (yield from algo(ctx, nbytes, root))

        return program()

    return extract_schedule(P, factory, buffers=bufs), bufs


def ring_transfers(schedule, P):
    """Ring-phase transfers = all sends minus the P-1 scatter sends."""
    scatter = sum(1 for s in schedule.sends if s.tag == 1)
    ring = sum(1 for s in schedule.sends if s.tag == 2)
    assert scatter + ring == schedule.transfers
    return ring


def expected_saved(P):
    return sum(subtree_chunks(r, P) for r in range(P)) - P


class TestPaperTransferCounts:
    def test_p8_native_56(self):
        schedule, _ = run_bcast(bcast_scatter_ring_native, 8, 800)
        assert ring_transfers(schedule, 8) == 56  # 8 x 7, Section III

    def test_p8_tuned_44(self):
        schedule, _ = run_bcast(bcast_scatter_ring_opt, 8, 800)
        assert ring_transfers(schedule, 8) == 44  # "reduces it by 12"

    def test_p10_native_90(self):
        schedule, _ = run_bcast(bcast_scatter_ring_native, 10, 1000)
        assert ring_transfers(schedule, 10) == 90

    def test_p10_tuned_75(self):
        schedule, _ = run_bcast(bcast_scatter_ring_opt, 10, 1000)
        assert ring_transfers(schedule, 10) == 75  # "reduced by 15"

    @pytest.mark.parametrize("P", [2, 3, 4, 5, 8, 10, 16, 17, 33])
    def test_closed_form(self, P):
        nbytes = 128 * P
        native, _ = run_bcast(bcast_scatter_ring_native, P, nbytes)
        tuned, _ = run_bcast(bcast_scatter_ring_opt, P, nbytes)
        assert ring_transfers(native, P) == P * (P - 1)
        assert ring_transfers(tuned, P) == P * (P - 1) - expected_saved(P)


class TestDataCorrectness:
    @pytest.mark.parametrize("algo", [bcast_scatter_ring_native, bcast_scatter_ring_opt])
    @pytest.mark.parametrize("P,nbytes,root", [(8, 800, 0), (10, 999, 3), (7, 123, 6)])
    def test_every_rank_gets_all_bytes(self, algo, P, nbytes, root):
        schedule, bufs = run_bcast(algo, P, nbytes, root=root)
        for rank, buf in enumerate(bufs):
            assert (buf.array == 9).all(), f"rank {rank} incomplete"
        for res in schedule.rank_results:
            res.assert_complete()

    @pytest.mark.parametrize("P, nbytes, redundant", [(8, 800, 12), (10, 1000, 15)])
    def test_native_reports_redundancy(self, P, nbytes, redundant):
        schedule, _ = run_bcast(bcast_scatter_ring_native, P, nbytes)
        total_redundant = sum(r.redundant_recvs for r in schedule.rank_results)
        # The enclosed ring redelivers exactly the chunks the tuned ring
        # skips: 12 at P=8, 15 at P=10.
        assert total_redundant == redundant

    def test_tuned_never_redundant(self):
        schedule, _ = run_bcast(bcast_scatter_ring_opt, 10, 1000)
        assert all(r.redundant_recvs == 0 for r in schedule.rank_results)

    def test_tuned_root_never_receives_ring_traffic(self):
        schedule, _ = run_bcast(bcast_scatter_ring_opt, 8, 800)
        ring_to_root = [s for s in schedule.sends if s.tag == 2 and s.dst == 0]
        assert ring_to_root == []

    def test_native_root_does_receive_ring_traffic(self):
        schedule, _ = run_bcast(bcast_scatter_ring_native, 8, 800)
        ring_to_root = [s for s in schedule.sends if s.tag == 2 and s.dst == 0]
        assert len(ring_to_root) == 7  # the enclosed ring's waste


class TestRingStructure:
    def test_ring_sends_go_right_only(self):
        schedule, _ = run_bcast(bcast_scatter_ring_opt, 8, 800, root=2)
        for s in schedule.sends:
            if s.tag == 2:
                assert s.dst == (s.src + 1) % 8

    def test_each_ring_send_carries_one_chunk(self):
        schedule, _ = run_bcast(bcast_scatter_ring_opt, 8, 800)
        for s in schedule.sends:
            if s.tag == 2:
                assert len(s.chunks) == 1

    def test_uneven_division_zero_byte_steps_still_counted(self):
        # 9 bytes over 8 ranks: trailing chunks are empty but the ring
        # still issues the sendrecv (as MPICH does).
        schedule, bufs = run_bcast(bcast_scatter_ring_native, 8, 9)
        assert ring_transfers(schedule, 8) == 56
        for buf in bufs:
            assert (buf.array == 9).all()

    def test_nbytes_smaller_than_ranks(self):
        schedule, bufs = run_bcast(bcast_scatter_ring_opt, 8, 3)
        for buf in bufs:
            assert (buf.array == 9).all()


@settings(deadline=None, max_examples=25)
@given(
    P=st.integers(min_value=2, max_value=24),
    data=st.data(),
)
def test_property_both_rings_complete_and_counts_hold(P, data):
    root = data.draw(st.integers(min_value=0, max_value=P - 1))
    nbytes = data.draw(st.integers(min_value=1, max_value=3000))
    native, nbufs = run_bcast(bcast_scatter_ring_native, P, nbytes, root=root)
    tuned, tbufs = run_bcast(bcast_scatter_ring_opt, P, nbytes, root=root)
    for buf in nbufs + tbufs:
        assert (buf.array == 9).all()
    n_ring = ring_transfers(native, P)
    t_ring = ring_transfers(tuned, P)
    assert n_ring == P * (P - 1)
    assert t_ring == P * (P - 1) - expected_saved(P)
    assert t_ring < n_ring
    # Byte traffic: tuned moves no more bytes than native.
    t_bytes = sum(s.nbytes for s in tuned.sends)
    n_bytes = sum(s.nbytes for s in native.sends)
    assert t_bytes <= n_bytes
