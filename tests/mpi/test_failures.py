"""Failure-injection tests: crashing ranks, poisoned programs, corrupt
machine state. The simulator must fail loudly and informatively, never
hang or silently mis-report."""

import contextlib
import signal

import pytest

from repro.errors import DeadlockError, MpiError, SimulationError
from repro.machine import Machine, ideal
from repro.mpi import Job, RealBuffer
from repro.sim.process import throw_into


class TestCrashingPrograms:
    def test_exception_in_program_propagates(self):
        machine = Machine(ideal(), nranks=2)

        def factory(ctx):
            def program():
                if ctx.rank == 1:
                    raise RuntimeError("rank 1 died")
                yield from ctx.compute(1.0)

            return program()

        with pytest.raises(RuntimeError, match="rank 1 died"):
            Job(machine, factory).run()

    def test_exception_mid_collective_propagates(self):
        from repro.collectives import bcast_scatter_ring_opt

        machine = Machine(ideal(), nranks=8)

        def factory(ctx):
            def program():
                if ctx.rank == 3:
                    yield from ctx.compute(0.0)
                    raise ValueError("injected fault")
                return (yield from bcast_scatter_ring_opt(ctx, 800, 0))

            return program()

        with pytest.raises(ValueError, match="injected fault"):
            Job(machine, factory).run()

    def test_dead_rank_means_deadlock_for_peers(self):
        """A rank that returns early leaves its partners blocked; the
        runtime reports *who* is stuck."""
        machine = Machine(ideal(), nranks=2)

        def factory(ctx):
            def program():
                if ctx.rank == 0:
                    return  # never sends
                yield from ctx.recv(0, 1 << 20)

            return program()

        with pytest.raises(DeadlockError) as exc:
            Job(machine, factory).run()
        assert "rank1" in str(exc.value)

    def test_throw_into_collective_generator(self):
        """The coroutine layer supports injecting exceptions (used to
        model rank aborts); uncaught ones surface at the injection
        point."""
        from repro.collectives import bcast_scatter_ring_opt
        from repro.mpi import Communicator, RankContext
        from repro.sim import step_coroutine

        ctx = RankContext(0, Communicator.world(4), buffer=None)
        gen = bcast_scatter_ring_opt(ctx, 400, 0)
        step_coroutine(gen)  # enter: first yielded op
        with pytest.raises(KeyboardInterrupt):
            throw_into(gen, KeyboardInterrupt())


@contextlib.contextmanager
def hang_guard(seconds: float):
    """Fail the test instead of hanging when the body outlives *seconds*."""

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestProgrammingErrors:
    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_non_finite_compute_is_a_typed_error(self, seconds):
        """NaN passes a `< 0` check and an event at inf parks the clock
        there; either used to spin the engine forever while the flow
        network re-armed its completion event."""
        machine = Machine(ideal(), nranks=2)

        def factory(ctx):
            def program():
                if ctx.rank == 0:
                    yield from ctx.send(1, 1 << 20)
                else:
                    yield from ctx.compute(seconds)
                    yield from ctx.recv(0, 1 << 20)

            return program()

        with hang_guard(10.0), pytest.raises(MpiError, match="finite"):
            Job(machine, factory).run()

    def test_non_generator_program(self):
        machine = Machine(ideal(), nranks=1)
        with pytest.raises(SimulationError, match="yield from"):
            Job(machine, lambda ctx: 42)

    def test_recv_buffer_overrun_rejected_at_write(self):
        machine = Machine(ideal(), nranks=2)

        def factory(ctx):
            def program():
                # Receiver's buffer (4B) is smaller than the recv it
                # posts (8B); an 8-byte payload cannot be deposited.
                ctx.attach_buffer(RealBuffer(8 if ctx.rank == 0 else 4))
                if ctx.rank == 0:
                    yield from ctx.send(1, 8)
                else:
                    yield from ctx.recv(0, 8, disp=0)

            return program()

        with pytest.raises(MpiError):
            Job(machine, factory).run()

    def test_mismatched_tags_deadlock_with_context(self):
        machine = Machine(ideal(), nranks=2)

        def factory(ctx):
            def program():
                if ctx.rank == 0:
                    yield from ctx.send(1, 1 << 20, tag=1)
                else:
                    yield from ctx.recv(0, 1 << 20, tag=2)

            return program()

        with pytest.raises(DeadlockError) as exc:
            Job(machine, factory).run()
        # The report includes the matching-engine state.
        assert "tag=2" in str(exc.value) or "unexpected" in str(exc.value)

    def test_des_deadlock_report_lines_and_count(self):
        """The report names each blocked rank's op, then every matching
        engine's pending state; the headline counts the ranks only."""
        machine = Machine(ideal(), nranks=3)

        def factory(ctx):
            def program():
                if ctx.rank == 0:
                    yield from ctx.recv(1, 8, tag=2)
                elif ctx.rank == 1:
                    r = yield from ctx.irecv(0, 8, tag=3)
                    s = yield from ctx.isend(2, 1 << 30, tag=3)
                    yield from ctx.waitall([r, s])
                else:
                    yield from ctx.send(0, 1 << 30, tag=4)

            return program()

        with pytest.raises(DeadlockError) as exc:
            Job(machine, factory).run()
        err = exc.value
        assert err.blocked == [
            "<Proc rank0: blocked on recv from 1 tag=2>",
            "<Proc rank1: blocked on waitall(2 reqs, 2 pending)>",
            "<Proc rank2: blocked on send to 0 tag=4>",
        ]
        assert err.notes == [
            "rank 0: recv(src=1, tag=2), unexpected(src=2, tag=4)",
            "rank 1: recv(src=0, tag=3)",
            "rank 2: unexpected(src=1, tag=3)",
        ]
        assert str(err) == (
            "simulation deadlocked with 3 blocked process(es): "
            + "; ".join(err.blocked + err.notes)
        )

    def test_self_message_rejected_by_machine(self):
        machine = Machine(ideal(), nranks=2)

        def factory(ctx):
            def program():
                yield from ctx.send(ctx.rank, 4)

            return program()

        from repro.errors import MachineError

        with pytest.raises(MachineError):
            Job(machine, factory).run()
