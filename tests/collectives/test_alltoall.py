"""Tests for the all-to-all exchange algorithms."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import (
    alltoall_bruck,
    alltoall_pairwise,
)
from repro.collectives.schedule import extract_schedule
from repro.errors import CollectiveError
from repro.machine import Machine, ideal
from repro.mpi import Job


def run_a2a(algo, P, block, timed=False):
    def factory(ctx):
        def program():
            return (yield from algo(ctx, block))

        return program()

    if timed:
        machine = Machine(ideal(nodes=4, cores_per_node=16), nranks=P)
        return Job(machine, factory).run()
    return extract_schedule(P, factory)


class TestPairwise:
    @pytest.mark.parametrize("P", [1, 2, 4, 8, 16])
    def test_pof2_xor_partners(self, P):
        res = run_a2a(alltoall_pairwise, P, 64)
        assert res.transfers == P * (P - 1)
        for s in res.sends:
            assert s.src != s.dst

    @pytest.mark.parametrize("P", [3, 5, 10])
    def test_npof2_shifted_partners(self, P):
        res = run_a2a(alltoall_pairwise, P, 64)
        assert res.transfers == P * (P - 1)

    def test_every_pair_communicates_exactly_once(self):
        P = 8
        res = run_a2a(alltoall_pairwise, P, 64)
        pairs = [(s.src, s.dst) for s in res.sends]
        assert len(set(pairs)) == P * (P - 1)

    def test_total_bytes(self):
        P, block = 8, 100
        res = run_a2a(alltoall_pairwise, P, block)
        assert res.total_bytes == P * (P - 1) * block

    def test_result_record(self):
        res = run_a2a(alltoall_pairwise, 8, 64)
        for r in res.rank_results:
            assert r.rounds == 7
            assert r.bytes_sent == 7 * 64


class TestBruck:
    @pytest.mark.parametrize("P,rounds", [(2, 1), (8, 3), (10, 4), (17, 5)])
    def test_log_rounds(self, P, rounds):
        res = run_a2a(alltoall_bruck, P, 64)
        for r in res.rank_results:
            assert r.rounds == rounds
        assert res.transfers == P * rounds

    def test_bytes_exceed_pairwise(self):
        """Bruck's store-and-forward re-sends blocks: popcount hops."""
        P, block = 16, 100
        bruck = run_a2a(alltoall_bruck, P, block)
        pairwise = run_a2a(alltoall_pairwise, P, block)
        assert bruck.total_bytes > pairwise.total_bytes
        # Exact: sum over distances of popcount(distance) blocks per rank.
        expected = P * block * sum(bin(d).count("1") for d in range(1, P))
        assert bruck.total_bytes == expected

    def test_single_rank(self):
        res = run_a2a(alltoall_bruck, 1, 64)
        assert res.transfers == 0


class TestTradeoffOnDes:
    def test_bruck_wins_latency_for_tiny_blocks(self):
        t_b = run_a2a(alltoall_bruck, 32, 8, timed=True).time
        t_p = run_a2a(alltoall_pairwise, 32, 8, timed=True).time
        assert t_b < t_p

    def test_pairwise_wins_bandwidth_for_big_blocks(self):
        t_b = run_a2a(alltoall_bruck, 16, 1 << 18, timed=True).time
        t_p = run_a2a(alltoall_pairwise, 16, 1 << 18, timed=True).time
        assert t_p < t_b

    def test_negative_block_rejected(self):
        with pytest.raises(CollectiveError):
            run_a2a(alltoall_pairwise, 4, -1)


@settings(deadline=None, max_examples=15)
@given(P=st.integers(min_value=1, max_value=20), block=st.integers(min_value=0, max_value=256))
def test_property_pairwise_complete_exchange(P, block):
    res = run_a2a(alltoall_pairwise, P, block)
    # Every rank sends to and receives from every other rank once.
    for r in range(P):
        assert len(res.sends_from(r)) == P - 1
        assert len(res.sends_to(r)) == P - 1
