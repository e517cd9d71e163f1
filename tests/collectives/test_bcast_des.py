"""Integration tests: broadcast algorithms on the timed DES runtime."""

import pytest

from repro.collectives import (
    ALGORITHMS,
    bcast_binomial,
    bcast_scatter_ring_native,
    bcast_scatter_ring_opt,
    get_algorithm,
)
from repro.errors import CollectiveError
from repro.machine import Machine, hornet, ideal
from repro.mpi import Job, RealBuffer


def run_des(algo, P, nbytes, root=0, spec=None, real=True, working_set=0):
    machine = Machine(spec if spec is not None else ideal(), nranks=P)
    bufs = (
        [RealBuffer(nbytes, fill=(11 if r == root else 0)) for r in range(P)]
        if real
        else None
    )

    def factory(ctx):
        def program():
            return (yield from algo(ctx, nbytes, root))

        return program()

    res = Job(machine, factory, buffers=bufs, working_set=working_set).run()
    return res, bufs


class TestAllAlgorithmsOnDes:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_data_complete(self, name):
        algo = get_algorithm(name)
        P = 8  # pof2 so rdbl is applicable
        res, bufs = run_des(algo, P, 797, root=3)
        for rank, buf in enumerate(bufs):
            assert (buf.array == 11).all(), f"{name}: rank {rank} incomplete"
        assert res.time > 0

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_deterministic_time(self, name):
        algo = get_algorithm(name)
        t1, _ = run_des(algo, 8, 4096)
        t2, _ = run_des(algo, 8, 4096)
        assert t1.time == t2.time

    def test_unknown_algorithm(self):
        with pytest.raises(CollectiveError):
            get_algorithm("quantum_bcast")


class TestTimedBehaviour:
    def test_opt_never_slower_than_native_lmsg(self):
        """The headline claim, in simulation: for long messages the tuned
        ring is at least as fast as the native one."""
        for P in (8, 16):
            for nbytes in (2**19, 2**20):
                tn, _ = run_des(
                    bcast_scatter_ring_native,
                    P,
                    nbytes,
                    spec=hornet(nodes=4),
                    real=False,
                    working_set=nbytes,
                )
                to, _ = run_des(
                    bcast_scatter_ring_opt,
                    P,
                    nbytes,
                    spec=hornet(nodes=4),
                    real=False,
                    working_set=nbytes,
                )
                assert to.time <= tn.time * (1 + 1e-9), (P, nbytes)

    def test_opt_strictly_faster_under_contention(self):
        nbytes = 2**20
        tn, _ = run_des(
            bcast_scatter_ring_native, 16, nbytes, spec=hornet(nodes=2), real=False
        )
        to, _ = run_des(
            bcast_scatter_ring_opt, 16, nbytes, spec=hornet(nodes=2), real=False
        )
        assert to.time < tn.time

    def test_opt_moves_fewer_messages_and_bytes(self):
        rn, _ = run_des(bcast_scatter_ring_native, 10, 10_000, real=False)
        ro, _ = run_des(bcast_scatter_ring_opt, 10, 10_000, real=False)
        assert ro.counters.messages < rn.counters.messages
        assert ro.counters.bytes < rn.counters.bytes
        # Exactly the paper's counts: (9 scatter + 90) vs (9 scatter + 75).
        assert rn.counters.messages == 99
        assert ro.counters.messages == 84

    def test_binomial_beats_ring_for_small_messages(self):
        """Sanity of the MPICH selection policy inside our model."""
        spec = hornet(nodes=2)
        tb, _ = run_des(bcast_binomial, 16, 1024, spec=spec, real=False)
        tr, _ = run_des(
            bcast_scatter_ring_native, 16, 1024, spec=spec, real=False
        )
        assert tb.time < tr.time

    def test_ring_beats_binomial_for_long_messages(self):
        spec = hornet(nodes=2)
        nbytes = 2**21
        tb, _ = run_des(bcast_binomial, 16, nbytes, spec=spec, real=False)
        tr, _ = run_des(
            bcast_scatter_ring_opt, 16, nbytes, spec=spec, real=False
        )
        assert tr.time < tb.time

    def test_phantom_and_real_buffers_time_identically(self):
        t_real, _ = run_des(bcast_scatter_ring_opt, 8, 4096, real=True)
        t_phantom, _ = run_des(bcast_scatter_ring_opt, 8, 4096, real=False)
        assert t_real.time == t_phantom.time


class TestSingleRankAndEdges:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_single_rank_is_noop(self, name):
        res, bufs = run_des(get_algorithm(name), 1, 128)
        assert res.counters.messages == 0
        assert (bufs[0].array == 11).all()

    def test_two_ranks(self):
        res, bufs = run_des(bcast_scatter_ring_opt, 2, 100)
        assert (bufs[1].array == 11).all()
        # Scatter send + one ring transfer.
        assert res.counters.messages == 2

    def test_result_records_match_counters(self):
        res, _ = run_des(bcast_scatter_ring_opt, 8, 800)
        total_sends = sum(r.sends for r in res.rank_results)
        assert total_sends == res.counters.messages
