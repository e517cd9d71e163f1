"""End-to-end tests of the simulated MPI runtime (Job + Transport)."""

import math

import pytest

from repro.errors import DeadlockError, SimulationError, TruncationError
from repro.machine import Machine, ideal
from repro.mpi import Job, RealBuffer
from repro.sim import Trace

from .conftest import GIB, make_ideal_machine, run_job


class TestPingTiming:
    def test_rendezvous_ping_time_is_alpha_plus_beta(self, two_rank_machine):
        """On the ideal machine, one N-byte message takes alpha + N/bw."""
        n = GIB // 4

        def factory(ctx):
            def program():
                ctx.attach_buffer(RealBuffer(n, fill=ctx.rank + 1))
                if ctx.rank == 0:
                    yield from ctx.send(1, n)
                else:
                    yield from ctx.recv(0, n)

            return program()

        res = run_job(two_rank_machine, factory)
        expected = 1e-6 + n / GIB
        assert math.isclose(res.time, expected, rel_tol=1e-9)

    def test_zero_byte_message(self, two_rank_machine):
        def factory(ctx):
            def program():
                if ctx.rank == 0:
                    yield from ctx.send(1, 0)
                else:
                    status = yield from ctx.recv(0, 0)
                    return status.nbytes

            return program()

        res = run_job(two_rank_machine, factory)
        assert res.rank_results[1] == 0
        # Pure latency.
        assert math.isclose(res.time, 1e-6, rel_tol=1e-9)

    def test_back_to_back_messages_serialize(self, two_rank_machine):
        n = GIB // 8

        def factory(ctx):
            def program():
                ctx.attach_buffer(RealBuffer(n))
                for _ in range(3):
                    if ctx.rank == 0:
                        yield from ctx.send(1, n)
                    else:
                        yield from ctx.recv(0, n)

            return program()

        res = run_job(two_rank_machine, factory)
        # Three sequential rendezvous transfers.
        assert res.time >= 3 * (n / GIB)


class TestDataMovement:
    def test_payload_delivered(self, two_rank_machine):
        n = 1024
        received = {}

        def factory(ctx):
            def program():
                buf = RealBuffer(n, fill=7 if ctx.rank == 0 else 0)
                ctx.attach_buffer(buf)
                if ctx.rank == 0:
                    yield from ctx.send(1, n)
                else:
                    yield from ctx.recv(0, n)
                    received["sum"] = int(buf.array.sum())

            return program()

        run_job(two_rank_machine, factory)
        assert received["sum"] == 7 * n

    def test_displacement_respected(self, two_rank_machine):
        def factory(ctx):
            def program():
                buf = RealBuffer(8, fill=3 if ctx.rank == 0 else 0)
                ctx.attach_buffer(buf)
                if ctx.rank == 0:
                    yield from ctx.send(1, 4, disp=0)
                else:
                    yield from ctx.recv(0, 4, disp=4)
                    return list(buf.array)

            return program()

        res = run_job(two_rank_machine, factory)
        assert res.rank_results[1] == [0, 0, 0, 0, 3, 3, 3, 3]

    def test_shorter_message_than_recv_ok(self, two_rank_machine):
        def factory(ctx):
            def program():
                ctx.attach_buffer(RealBuffer(16))
                if ctx.rank == 0:
                    yield from ctx.send(1, 4)
                else:
                    status = yield from ctx.recv(0, 16)
                    return status.nbytes

            return program()

        assert run_job(two_rank_machine, factory).rank_results[1] == 4

    def test_truncation_raises(self, two_rank_machine):
        def factory(ctx):
            def program():
                ctx.attach_buffer(RealBuffer(16))
                if ctx.rank == 0:
                    yield from ctx.send(1, 16)
                else:
                    yield from ctx.recv(0, 4)

            return program()

        with pytest.raises(TruncationError):
            run_job(two_rank_machine, factory)


class TestProtocols:
    def _delayed_recv_job(self, eager_threshold):
        machine = make_ideal_machine(2, eager_threshold=eager_threshold)
        finish = {}

        def factory(ctx):
            def program():
                ctx.attach_buffer(RealBuffer(1024, fill=ctx.rank))
                if ctx.rank == 0:
                    yield from ctx.send(1, 1024)
                    finish["send_done"] = True
                else:
                    yield from ctx.compute(1.0)  # receiver is late
                    yield from ctx.recv(0, 1024)

            return program()

        res = run_job(machine, factory)
        return res

    def test_eager_send_completes_before_recv_posted(self):
        res = self._delayed_recv_job(eager_threshold=4096)
        # Sender finished long before the receiver's 1s compute ended.
        assert res.rank_finish_times[0] < 0.01

    def test_rendezvous_send_blocks_until_recv_posted(self):
        res = self._delayed_recv_job(eager_threshold=0)
        assert res.rank_finish_times[0] >= 1.0

    def test_eager_unexpected_message_delivered_correctly(self):
        machine = make_ideal_machine(2, eager_threshold=1 << 20)

        def factory(ctx):
            def program():
                buf = RealBuffer(64, fill=9 if ctx.rank == 0 else 0)
                ctx.attach_buffer(buf)
                if ctx.rank == 0:
                    yield from ctx.send(1, 64)
                else:
                    yield from ctx.compute(0.5)
                    yield from ctx.recv(0, 64)
                    return int(buf.array.sum())

            return program()

        assert run_job(machine, factory).rank_results[1] == 9 * 64

    def test_protocol_recorded_in_trace(self):
        machine = make_ideal_machine(2, eager_threshold=100)
        trace = Trace()

        def factory(ctx):
            def program():
                ctx.attach_buffer(RealBuffer(4096))
                if ctx.rank == 0:
                    yield from ctx.send(1, 50)  # eager
                    yield from ctx.send(1, 4096)  # rendezvous
                else:
                    yield from ctx.recv(0, 50)
                    yield from ctx.recv(0, 4096)

            return program()

        run_job(machine, factory, trace=trace)
        protos = [r.protocol for r in trace.by_kind("send_launch")]
        assert protos == ["eager", "rendezvous"]


class TestSendrecvAndNonblocking:
    def test_sendrecv_ring_rotates_data(self, four_rank_machine):
        n = 256

        def factory(ctx):
            def program():
                buf = RealBuffer(n, fill=ctx.rank)
                ctx.attach_buffer(buf)
                right = (ctx.rank + 1) % ctx.size
                left = (ctx.rank - 1) % ctx.size
                status = yield from ctx.sendrecv(
                    dst=right, send_nbytes=n, src=left, recv_nbytes=n
                )
                return (status.source, int(buf.array[0]))

            return program()

        res = run_job(four_rank_machine, factory)
        # Every rank now holds its left neighbour's value.
        assert res.rank_results == [(3, 3), (0, 0), (1, 1), (2, 2)]

    def test_isend_irecv_waitall(self, four_rank_machine):
        def factory(ctx):
            def program():
                buf = RealBuffer(4 * ctx.size, fill=ctx.rank)
                ctx.attach_buffer(buf)
                reqs = []
                if ctx.rank == 0:
                    for peer in range(1, ctx.size):
                        reqs.append((yield from ctx.irecv(peer, 4, disp=4 * peer)))
                    statuses = yield from ctx.waitall(reqs)
                    return sorted(s.source for s in statuses)
                req = yield from ctx.isend(0, 4)
                status = yield from ctx.wait(req)
                assert status is None  # sends carry no status
                return None

            return program()

        res = run_job(four_rank_machine, factory)
        assert res.rank_results[0] == [1, 2, 3]

    def test_any_source_recv(self, four_rank_machine):
        from repro.mpi import ANY_SOURCE

        def factory(ctx):
            def program():
                ctx.attach_buffer(RealBuffer(16))
                if ctx.rank == 0:
                    seen = []
                    for _ in range(ctx.size - 1):
                        status = yield from ctx.recv(ANY_SOURCE, 16)
                        seen.append(status.source)
                    return sorted(seen)
                yield from ctx.compute(ctx.rank * 0.001)
                yield from ctx.send(0, 8)

            return program()

        res = run_job(four_rank_machine, factory)
        assert res.rank_results[0] == [1, 2, 3]

    def test_wait_on_non_request_rejected(self, two_rank_machine):
        from repro.mpi import WaitOp

        def factory(ctx):
            def program():
                yield WaitOp(requests=("bogus",))

            return program()

        with pytest.raises(SimulationError):
            run_job(two_rank_machine, factory)


class TestFailureModes:
    def test_deadlock_detected(self, two_rank_machine):
        def factory(ctx):
            def program():
                ctx.attach_buffer(RealBuffer(8))
                # Both ranks receive first: classic deadlock.
                yield from ctx.recv((ctx.rank + 1) % 2, 8)
                yield from ctx.send((ctx.rank + 1) % 2, 8)

            return program()

        with pytest.raises(DeadlockError) as exc:
            run_job(two_rank_machine, factory)
        assert "blocked" in str(exc.value)

    def test_one_sided_send_without_recv_deadlocks(self, two_rank_machine):
        def factory(ctx):
            def program():
                ctx.attach_buffer(RealBuffer(1 << 20))
                if ctx.rank == 0:
                    yield from ctx.send(1, 1 << 20)  # rendezvous, never matched

            return program()

        with pytest.raises(DeadlockError):
            run_job(two_rank_machine, factory)

    def test_blocked_rank_resumes_only_once(self, two_rank_machine):
        """A blocked rank's completion hook resumes it once; a second
        completion of the same blocking point is a typed error."""

        def factory(ctx):
            def program():
                if ctx.rank == 0:
                    yield from ctx.recv(1, 8, tag=1)
                else:
                    yield from ctx.send(0, 1 << 30, tag=5)  # rendezvous

            return program()

        job = Job(two_rank_machine, factory)
        with pytest.raises(DeadlockError, match=r"with 2 blocked process\(es\)"):
            job.run()
        engine = job.transport.matching[0]
        recv_req = engine.posted[0]
        send_req = engine.unexpected[0].send_req.send_req
        for rank, req in ((0, recv_req), (1, send_req)):
            resume = req._callbacks[0]
            resume(req)
            assert job.procs[rank].finished
            with pytest.raises(
                SimulationError,
                match=f"rank {rank} resumed twice from the same blocking point",
            ):
                resume(req)

    def test_unknown_op_rejected(self, two_rank_machine):
        def factory(ctx):
            def program():
                yield "not an op"

            return program()

        with pytest.raises(SimulationError):
            run_job(two_rank_machine, factory)

    def test_job_runs_once(self, two_rank_machine):
        def factory(ctx):
            def program():
                return
                yield

            return program()

        job = Job(two_rank_machine, factory)
        job.run()
        with pytest.raises(SimulationError):
            job.run()


class TestAccounting:
    def test_counters_and_levels(self):
        # 2 nodes x 2 cores; ranks 0,1 on node 0; rank 2 on node 1.
        machine = Machine(ideal(nodes=2, cores_per_node=2), nranks=3)

        def factory(ctx):
            def program():
                ctx.attach_buffer(RealBuffer(100))
                if ctx.rank == 0:
                    yield from ctx.send(1, 100)  # intra
                    yield from ctx.send(2, 100)  # inter
                elif ctx.rank == 1:
                    yield from ctx.recv(0, 100)
                else:
                    yield from ctx.recv(0, 100)

            return program()

        res = run_job(machine, factory)
        c = res.counters
        assert c.messages == 2
        assert c.intra_messages == 1 and c.inter_messages == 1
        assert c.bytes == 200
        assert c.sent_by_rank[0] == 2
        assert res.flows_completed == 2

    def test_compute_op_advances_clock(self, two_rank_machine):
        def factory(ctx):
            def program():
                yield from ctx.compute(2.5)

            return program()

        res = run_job(two_rank_machine, factory)
        assert res.time == 2.5

    def test_bandwidth_metric(self, two_rank_machine):
        def factory(ctx):
            def program():
                yield from ctx.compute(2.0)

            return program()

        res = run_job(two_rank_machine, factory)
        assert res.bandwidth(GIB) == pytest.approx(GIB / 2.0)

    def test_determinism(self):
        def factory(ctx):
            def program():
                ctx.attach_buffer(RealBuffer(10000))
                right = (ctx.rank + 1) % ctx.size
                left = (ctx.rank - 1) % ctx.size
                for _ in range(5):
                    yield from ctx.sendrecv(right, 10000, left, 10000)

            return program()

        t1 = run_job(make_ideal_machine(8), factory).time
        t2 = run_job(make_ideal_machine(8), factory).time
        assert t1 == t2


class TestContention:
    def test_two_senders_share_receiver_cpu(self):
        """Two concurrent inbound flows bottleneck on the receiver's copy
        engine, taking twice as long as one."""
        n = GIB // 4

        def one(ctx):
            def program():
                ctx.attach_buffer(RealBuffer(n))
                if ctx.rank == 0:
                    yield from ctx.recv(1, n)
                elif ctx.rank == 1:
                    yield from ctx.send(0, n)
                else:
                    return
                    yield

            return program()

        def two(ctx):
            def program():
                ctx.attach_buffer(RealBuffer(n))
                if ctx.rank == 0:
                    r1 = yield from ctx.irecv(1, n)
                    r2 = yield from ctx.irecv(2, n)
                    yield from ctx.waitall([r1, r2])
                else:
                    yield from ctx.send(0, n)

            return program()

        t_one = run_job(make_ideal_machine(3), one).time
        t_two = run_job(make_ideal_machine(3), two).time
        assert t_two == pytest.approx(2 * t_one, rel=0.01)
