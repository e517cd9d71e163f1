"""Tests for the vectorized schedule-replay engine (repro.sim.replay)."""

import gc
import weakref

import pytest

from repro.analysis.verify import REGISTRY
from repro.collectives.emit import emit_schedule
from repro.collectives.schedule import extract_schedule
from repro.errors import ReplayUnsupportedError, SimulationError
from repro.machine import Machine, hornet, ideal
from repro.mpi import ANY_SOURCE, Job
from repro.sim import engine as engine_mod
from repro.sim.replay import ReplayEngine, compile_schedule


def registry_compiled(name, nranks, nbytes, root=0):
    sched = extract_schedule(nranks, REGISTRY[name].build(nranks, nbytes, root))
    return compile_schedule(sched)


def counters_dict(c):
    return {
        "messages": c.messages,
        "bytes": c.bytes,
        "intra_messages": c.intra_messages,
        "inter_messages": c.inter_messages,
        "intra_bytes": c.intra_bytes,
        "inter_bytes": c.inter_bytes,
        "sent_by_rank": dict(c.sent_by_rank),
        "received_by_rank": dict(c.received_by_rank),
        "bytes_sent_by_rank": dict(c.bytes_sent_by_rank),
        "bytes_received_by_rank": dict(c.bytes_received_by_rank),
    }


class TestCompile:
    def test_flat_arrays_cover_every_send(self):
        compiled = registry_compiled("bcast_opt", 8, 65536)
        sched = extract_schedule(8, REGISTRY["bcast_opt"].build(8, 65536, 0))
        assert compiled.n_sends == sched.transfers
        assert sum(compiled.send_nbytes) == sched.total_bytes
        assert len(compiled.send_src) == compiled.n_sends

    def test_wildcard_recv_is_unsupported(self):
        def factory(ctx):
            def program():
                if ctx.rank == 0:
                    yield from ctx.send(1, 64)
                elif ctx.rank == 1:
                    yield from ctx.recv(ANY_SOURCE, 64)

            return program()

        sched = extract_schedule(2, factory)
        with pytest.raises(ReplayUnsupportedError, match="ANY_SOURCE"):
            compile_schedule(sched)


class TestReplayEngine:
    # One eager and one rendezvous size per shape: both transport
    # protocols, non-power-of-two and power-of-two rank counts.
    CELLS = [
        ("bcast_opt", 5, 512),
        ("bcast_opt", 8, 262144),
        ("bcast_native", 13, 12288),
        ("bcast_binomial", 16, 4096),
        ("allgather_ring", 6, 65536),
        ("barrier", 7, 0),
    ]

    @pytest.mark.parametrize("name,nranks,nbytes", CELLS)
    def test_bitwise_equal_to_des(self, name, nranks, nbytes):
        compiled = registry_compiled(name, nranks, nbytes)
        des = Job(
            Machine(hornet(), nranks=nranks),
            REGISTRY[name].build(nranks, nbytes, 0),
            working_set=nbytes,
        ).run()
        rep = ReplayEngine(
            Machine(hornet(), nranks=nranks), compiled, working_set=nbytes
        ).run()
        assert rep.time == des.time  # bitwise, no tolerance
        assert list(rep.rank_finish_times) == list(des.rank_finish_times)
        assert counters_dict(rep.counters) == counters_dict(des.counters)
        assert rep.flows_completed == des.flows_completed

    def test_compiled_schedule_is_machine_independent(self):
        # One compiled schedule replays on different specs, matching the
        # DES on each (the protocol split binds at replay time).
        compiled = registry_compiled("bcast_opt", 9, 12288)
        for spec_factory in (hornet, ideal):
            des = Job(
                Machine(spec_factory(), nranks=9),
                REGISTRY["bcast_opt"].build(9, 12288, 0),
                working_set=12288,
            ).run()
            rep = ReplayEngine(
                Machine(spec_factory(), nranks=9), compiled, working_set=12288
            ).run()
            assert rep.time == des.time

    # The paper's two rings on hornet(nodes=16): one eager point and the
    # two ends of the rendezvous sweep. (nranks, nbytes, algorithm) ->
    # (time.hex(), messages, solver_solves, solver_rounds,
    # solver_components, solver_max_component, solver_flows_advanced).
    # The solver counts are record fields, so a frontier change that
    # re-batches re-solves or regroups components fails here even when
    # every timestamp holds.
    PINNED_RECORDS = {
        (65, 12288, "scatter_ring_native"): (
            "0x1.5f885d66e362ap-14", 4224, 5619, 6012, 5625, 4, 12250
        ),
        (65, 12288, "scatter_ring_opt"): (
            "0x1.3f5aec0e52013p-14", 4031, 6078, 6417, 6088, 8, 17696
        ),
        (32, 1 << 19, "scatter_ring_native"): (
            "0x1.2a29f7a2f022fp-12", 1023, 1925, 3336, 1938, 23, 13985
        ),
        (32, 1 << 19, "scatter_ring_opt"): (
            "0x1.157edb916fd6ap-12", 943, 1758, 3208, 1773, 24, 17796
        ),
        (32, 1 << 25, "scatter_ring_native"): (
            "0x1.ccf388fb1de94p-7", 1023, 1880, 3697, 1887, 32, 45610
        ),
        (32, 1 << 25, "scatter_ring_opt"): (
            "0x1.afb69d308c016p-7", 943, 1716, 3485, 1722, 31, 41122
        ),
    }

    @pytest.mark.parametrize(
        "point", list(PINNED_RECORDS), ids=lambda p: f"P{p[0]}-{p[1]}B-{p[2]}"
    )
    def test_record_and_solver_telemetry_pinned(self, point):
        from repro.core.api import simulate_bcast

        nranks, nbytes, algorithm = point
        rec = simulate_bcast(hornet(nodes=16), nranks, nbytes, algorithm=algorithm)
        assert rec.solver_mode == "replay"
        got = (
            rec.time.hex(),
            rec.messages,
            rec.solver_solves,
            rec.solver_rounds,
            rec.solver_components,
            rec.solver_max_component,
            rec.solver_flows_advanced,
        )
        assert got == self.PINNED_RECORDS[point]

    def test_solver_stats_reported(self):
        compiled = registry_compiled("bcast_opt", 8, 65536)
        rep = ReplayEngine(Machine(hornet(), nranks=8), compiled).run()
        stats = rep.solver_stats
        assert stats.mode == "replay"
        assert stats.solves > 0 and stats.flows_solved > 0

    def test_finished_engine_is_freed_without_the_cycle_collector(self):
        # A sweep's next point must not run while the previous point's
        # replay state waits for a full garbage collection.
        compiled = registry_compiled("bcast_opt", 8, 65536)
        gc.disable()
        try:
            engine = ReplayEngine(Machine(hornet(), nranks=8), compiled)
            engine.run()
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
        finally:
            gc.enable()

    def test_finished_des_run_is_freed_without_the_cycle_collector(self):
        # The same for the DES: the ARQ transport's pending sends and
        # their retransmission timers, and the flow network, must not
        # wait in reference cycles for a full garbage collection.
        from repro.core.api import simulate_bcast
        from repro.sim import FaultPlan

        gc.collect()
        gc.disable()
        try:
            simulate_bcast(
                hornet(nodes=16), 65, 12288, "scatter_ring_opt",
                faults=FaultPlan.uniform(seed=0, drop_p=0.01),
            )
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = {type(obj).__name__ for obj in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert not leaked & {"Request", "_PendingSend", "EventHandle", "FlowNetwork"}

    def test_machine_too_small_rejected(self):
        compiled = registry_compiled("bcast_opt", 8, 4096)
        with pytest.raises(SimulationError, match="hosts 4"):
            ReplayEngine(Machine(hornet(), nranks=4), compiled)

    def test_event_economy(self, monkeypatch):
        """Only cancellable events carry an EventHandle.

        bcast_opt at P=65 and 12288 B on hornet (4031 eager sends)
        queues 22,934 events. The count is part of the bitwise promise:
        events fire in (time, seq) order, so a change to it moves seq
        numbers. Only the flow network's completion and deferred
        re-solve events may be cancelled; launches, envelopes, resumes
        and receive completions are posted without a handle.
        """
        created = 0
        init = engine_mod.EventHandle.__init__

        def counting_init(self, *args, **kwargs):
            nonlocal created
            created += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(engine_mod.EventHandle, "__init__", counting_init)
        compiled = emit_schedule("bcast_opt", 65, 12288, 0)
        rep = ReplayEngine(Machine(hornet(), nranks=65), compiled, working_set=12288)
        rep.run()
        assert rep.engine._seq == 22934  # events ever queued
        assert created <= 22934 // 2

    def test_rerun_is_rejected(self):
        # Engine state is single-shot; a second run() must fail loudly
        # rather than return garbage.
        compiled = registry_compiled("bcast_opt", 4, 4096)
        engine = ReplayEngine(Machine(hornet(), nranks=4), compiled)
        engine.run()
        with pytest.raises(SimulationError):
            engine.run()
