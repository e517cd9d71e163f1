"""Tests for the ARQ reliable transport under injected faults."""

import numpy as np
import pytest

from repro.errors import DeadlockError, TransportExhaustedError
from repro.machine import Machine, ideal
from repro.mpi import ANY_TAG, Job, RealBuffer
from repro.mpi.reliable import BACKOFF, MAX_RETRIES, ReliableTransport
from repro.mpi.transport import Transport
from repro.sim import FaultPlan, LinkRule

#: A non-zero plan that never perturbs a message: it runs a job on the
#: ARQ transport with nothing to recover from.
ARQ_ONLY = FaultPlan.none(name="arq_only").with_rule(LinkRule())


def make_machine(nranks, eager_threshold=8192):
    return Machine(ideal(eager_threshold=eager_threshold), nranks=nranks)


def ping_factory(nbytes=1024, tag=7):
    """Rank 0 sends one message to rank 1."""

    def factory(ctx):
        def program():
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes, tag=tag)
            elif ctx.rank == 1:
                status = yield from ctx.recv(0, nbytes, tag=tag)
                return status.nbytes
            return None

        return program()

    return factory


def drop_first(src=0, dst=1, n=1):
    """Plan that deterministically eats the first *n* transmissions."""
    return FaultPlan.none(name=f"drop_first_{n}").with_rule(
        LinkRule(src=src, dst=dst, op_lo=0, op_hi=n, drop_p=1.0, label="eaten")
    )


class TestTransportChoice:
    def test_transport_follows_plan(self):
        machine = make_machine(2)
        f = ping_factory()
        assert type(Job(machine, f).transport) is Transport
        assert type(Job(machine, f, faults=FaultPlan.none()).transport) is Transport
        assert type(Job(machine, f, faults=drop_first()).transport) is ReliableTransport


class TestCleanPath:
    def test_zero_faults_delivers_with_one_ack(self):
        bufs = [RealBuffer.from_array(np.full(1024, r + 1, dtype=np.uint8))
                for r in range(2)]
        job = Job(make_machine(2), ping_factory(), buffers=bufs, faults=ARQ_ONLY)
        result = job.run()
        c = result.counters
        assert result.rank_results[1] == 1024
        assert np.array_equal(bufs[1].array, bufs[0].array)
        assert (c.messages, c.ack_messages) == (1, 1)
        assert c.retrans_messages == c.timeouts == c.drops_injected == 0

    def test_wire_counters_match_plain_transport(self):
        plain = Job(make_machine(2), ping_factory()).run().counters
        arq = Job(make_machine(2), ping_factory(), faults=ARQ_ONLY).run().counters
        assert (arq.messages, arq.bytes) == (plain.messages, plain.bytes)
        assert all(getattr(plain, name) == 0 for name in plain.CHAOS_FIELDS)


class TestRecovery:
    def test_drop_recovered_by_retransmit(self):
        bufs = [RealBuffer.from_array(np.full(1024, r + 5, dtype=np.uint8))
                for r in range(2)]
        job = Job(
            make_machine(2),
            ping_factory(),
            buffers=bufs,
            faults=drop_first(),
        )
        c = job.run().counters
        assert np.array_equal(bufs[1].array, bufs[0].array)
        assert c.drops_injected == 1
        assert c.retrans_messages >= 1 and c.timeouts >= 1
        # First transmission only in the wire counters, recovery separate.
        assert c.messages == 1 and c.retrans_bytes >= 1024

    def test_corruption_is_discarded_then_recovered(self):
        plan = FaultPlan.none(name="corrupt_first").with_rule(
            LinkRule(src=0, dst=1, op_lo=0, op_hi=1, corrupt_p=1.0)
        )
        bufs = [RealBuffer.from_array(np.full(512, r + 9, dtype=np.uint8))
                for r in range(2)]
        job = Job(make_machine(2), ping_factory(512), buffers=bufs, faults=plan)
        c = job.run().counters
        assert np.array_equal(bufs[1].array, bufs[0].array)
        assert c.corrupt_injected == 1 and c.corrupt_dropped == 1
        assert c.retrans_messages >= 1

    def test_duplicate_suppressed_single_delivery(self):
        plan = FaultPlan.none(name="dup_first").with_rule(
            LinkRule(src=0, dst=1, op_lo=0, op_hi=1, dup_p=1.0)
        )
        job = Job(make_machine(2), ping_factory(), faults=plan)
        result = job.run()
        c = result.counters
        assert result.rank_results[1] == 1024  # exactly one recv completed
        assert c.dup_injected == 1 and c.dup_suppressed >= 1
        assert c.messages == 1

    def test_inorder_reassembly_preserves_non_overtaking(self):
        """Dropping message #0 must not let message #1 overtake it."""

        def factory(ctx):
            def program():
                if ctx.rank == 0:
                    yield from ctx.send(1, 256, tag=11)
                    yield from ctx.send(1, 256, tag=22)
                elif ctx.rank == 1:
                    tags = []
                    for _ in range(2):
                        status = yield from ctx.recv(0, 256, tag=ANY_TAG)
                        tags.append(status.tag)
                    return tags
                return None

            return program()

        job = Job(make_machine(2), factory, faults=drop_first())
        assert job.run().rank_results[1] == [11, 22]

    def test_deadlock_report_lists_injected_faults(self):
        """A recovered drop still shows in the report of a later hang,
        so a chaos-run deadlock does not read like a schedule bug."""

        def factory(ctx):
            def program():
                if ctx.rank == 0:
                    yield from ctx.send(1, 256, tag=1)
                elif ctx.rank == 1:
                    for _ in range(2):  # one more than rank 0 sends
                        yield from ctx.recv(0, 256, tag=1)
                return None

            return program()

        job = Job(make_machine(2), factory, faults=drop_first())
        with pytest.raises(DeadlockError) as exc_info:
            job.run()
        text = str(exc_info.value)
        assert "injected" in text and "drop 0->1" in text


class TestHalfDuplex:
    def test_ack_completion_breaks_rendezvous_deadlock(self):
        """Blocking send-then-recv ring: rendezvous deadlocks on the
        plain transport, the ARQ layer's transport-level ACK does not."""
        nranks, nbytes = 4, 4096  # above the 1KiB eager threshold below

        def factory(ctx):
            def program():
                right = (ctx.rank + 1) % ctx.size
                left = (ctx.rank - 1) % ctx.size
                yield from ctx.send(right, nbytes, tag=1)
                yield from ctx.recv(left, nbytes, tag=1)
                return None

            return program()

        with pytest.raises(DeadlockError):
            Job(make_machine(nranks, eager_threshold=1024), factory).run()
        result = Job(
            make_machine(nranks, eager_threshold=1024), factory, faults=ARQ_ONLY
        ).run()
        assert result.counters.messages == nranks


class TestExhaustion:
    def test_crash_raises_typed_error_naming_link(self):
        plan = FaultPlan.none(name="crash").with_crash(1)
        job = Job(make_machine(2), ping_factory(), faults=plan)
        with pytest.raises(TransportExhaustedError) as exc_info:
            job.run()
        exc = exc_info.value
        assert (exc.src, exc.dst, exc.tag) == (0, 1, 7)
        assert exc.attempts == MAX_RETRIES + 1
        assert "crash(rank 1)" in str(exc)

    def test_exhaustion_is_deterministic(self):
        plan = FaultPlan.none(name="crash").with_crash(1)

        def attempts():
            job = Job(make_machine(2), ping_factory(), faults=plan)
            with pytest.raises(TransportExhaustedError) as exc_info:
                job.run()
            return exc_info.value.attempts

        assert attempts() == attempts()


class TestDeterminism:
    def test_chaos_point_is_pinned(self):
        """One point of the P=65 chaos sweep, pinned bit for bit: the
        simulated time, the ARQ counters and the engine's event count
        (every packet, ACK and resume is posted; each transmission arms
        one retransmission timer)."""
        from repro.collectives import get_algorithm
        from repro.machine import hornet

        algo = get_algorithm("scatter_ring_opt")
        job = Job(
            Machine(hornet(16), nranks=65),
            lambda ctx: algo(ctx, 12288, 0),
            working_set=12288,
            faults=FaultPlan.uniform(seed=0, drop_p=0.01),
        )
        engine = job.engine
        calls = {"post": 0, "schedule_at": 0}

        def counted(name):
            method = getattr(engine, name)

            def wrapper(*args):
                calls[name] += 1
                return method(*args)

            return wrapper

        engine.post = counted("post")
        engine.schedule_at = counted("schedule_at")
        res = job.run()
        c = res.counters
        assert res.time.hex() == "0x1.827d76824f41dp-12"
        assert (c.messages, c.retrans_messages, c.ack_messages, c.timeouts) == (
            4031,
            77,
            4069,
            77,
        )
        assert engine._seq == 20335
        assert calls == {"post": 16227, "schedule_at": 4108}


class TestConfig:
    def test_backoff_grows_timeout(self):
        job = Job(make_machine(2), ping_factory(), faults=ARQ_ONLY)
        transport = job.transport
        assert isinstance(transport, ReliableTransport)
        plan = transport.machine.transfer_plan(0, 1)
        xfer_s = transport._xfer_seconds(plan, 1024)
        t1 = transport._timeout_seconds(plan, xfer_s, attempts=1)
        t3 = transport._timeout_seconds(plan, xfer_s, attempts=3)
        assert t3 == pytest.approx(t1 * BACKOFF ** 2)
