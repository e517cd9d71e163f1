"""Tests for the zero-time schedule executor itself."""

import pytest

from repro.collectives.schedule import ScheduleExecutor, extract_schedule
from repro.errors import DeadlockError, SimulationError, TruncationError
from repro.machine import blocked
from repro.mpi import Communicator, RealBuffer


def prog_factory(body):
    def factory(ctx):
        return body(ctx)

    return factory


class TestExecution:
    def test_send_recv_moves_data(self):
        bufs = [RealBuffer(8, fill=3), RealBuffer(8)]

        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 8)
            else:
                status = yield from ctx.recv(0, 8)
                return status.nbytes

        res = extract_schedule(2, prog_factory(body), buffers=bufs)
        assert res.rank_results[1] == 8
        assert (bufs[1].array == 3).all()

    def test_sends_are_buffered_never_block(self):
        """Both ranks send first, then receive — fine under buffering."""

        def body(ctx):
            peer = 1 - ctx.rank
            yield from ctx.send(peer, 4)
            yield from ctx.recv(peer, 4)

        bufs = [RealBuffer(4), RealBuffer(4)]
        res = extract_schedule(2, prog_factory(body), buffers=bufs)
        assert res.transfers == 2

    def test_recv_cycle_deadlocks(self):
        def body(ctx):
            peer = 1 - ctx.rank
            yield from ctx.recv(peer, 4)
            yield from ctx.send(peer, 4)

        with pytest.raises(DeadlockError):
            extract_schedule(2, prog_factory(body))

    def test_truncation_detected(self):
        bufs = [RealBuffer(16, fill=1), RealBuffer(16)]

        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 16)
            else:
                yield from ctx.recv(0, 8)

        with pytest.raises(TruncationError):
            extract_schedule(2, prog_factory(body), buffers=bufs)

    def test_compute_is_free(self):
        def body(ctx):
            yield from ctx.compute(1e9)  # would be 30 years on the DES
            return "done"

        res = extract_schedule(1, prog_factory(body))
        assert res.rank_results == ["done"]

    def test_unknown_op_rejected(self):
        def body(ctx):
            yield 42

        with pytest.raises(SimulationError):
            extract_schedule(1, prog_factory(body))

    def test_nonblocking_and_waitall(self):
        def body(ctx):
            if ctx.rank == 0:
                r1 = yield from ctx.isend(1, 4, tag=1)
                r2 = yield from ctx.isend(1, 4, tag=2)
                yield from ctx.waitall([r1, r2])
            else:
                r1 = yield from ctx.irecv(0, 4, tag=2)
                r2 = yield from ctx.irecv(0, 4, tag=1)
                statuses = yield from ctx.waitall([r1, r2])
                return [s.tag for s in statuses]

        bufs = [RealBuffer(8), RealBuffer(8)]
        res = extract_schedule(2, prog_factory(body), buffers=bufs)
        assert res.rank_results[1] == [2, 1]


class TestRecording:
    def test_send_order_and_fields(self):
        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 10, tag=7, chunks=(3,))
            elif ctx.rank == 1:
                yield from ctx.recv(0, 10, tag=7)

        res = extract_schedule(2, prog_factory(body))
        (s,) = res.sends
        assert (s.src, s.dst, s.nbytes, s.tag, s.chunks) == (0, 1, 10, 7, (3,))
        assert s.order == 0
        assert res.total_bytes == 10

    def test_sends_from_to(self):
        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 4)
                yield from ctx.send(2, 4)
            else:
                yield from ctx.recv(0, 4)

        res = extract_schedule(3, prog_factory(body))
        assert len(res.sends_from(0)) == 2
        assert len(res.sends_to(2)) == 1

    def test_transfers_by_level_needs_placement(self):
        def body(ctx):
            return
            yield

        res = extract_schedule(2, prog_factory(body))
        with pytest.raises(SimulationError):
            res.transfers_by_level()

    def test_transfers_by_level(self):
        placement = blocked(4, nodes=2, cores_per_node=2)

        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 4)  # intra (node 0)
                yield from ctx.send(2, 4)  # inter (node 0 -> 1)
            elif ctx.rank in (1, 2):
                yield from ctx.recv(0, 4)

        res = extract_schedule(4, prog_factory(body), placement=placement)
        assert res.transfers_by_level() == (1, 1)

    def test_custom_communicator(self):
        comm = Communicator([2, 0])  # local 0 -> global 2, local 1 -> global 0

        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 4)
            else:
                status = yield from ctx.recv(0, 4)
                return status.source

        res = ScheduleExecutor(3, prog_factory(body), comm=comm).run()
        (s,) = res.sends
        assert (s.src, s.dst) == (2, 0)  # recorded in global ranks
        assert res.rank_results[1] == 0  # status localised to comm


class TestDeadlockReporting:
    """DeadlockError must name the blocked ranks and their parked ops."""

    def test_recv_cycle_names_ranks_and_ops(self):
        def body(ctx):
            peer = 1 - ctx.rank
            yield from ctx.recv(peer, 4, tag=9)
            yield from ctx.send(peer, 4, tag=9)

        with pytest.raises(DeadlockError) as exc:
            extract_schedule(2, prog_factory(body))
        msg = str(exc.value)
        assert "rank 0 blocked in recv(src=1, tag=9, nbytes=4)" in msg
        assert "rank 1 blocked in recv(src=0, tag=9, nbytes=4)" in msg
        assert len(exc.value.blocked) == 2

    def test_waitall_deadlock_lists_pending_requests(self):
        def body(ctx):
            if ctx.rank == 0:
                r1 = yield from ctx.irecv(1, 4, tag=1)
                r2 = yield from ctx.irecv(1, 4, tag=2)
                yield from ctx.waitall([r1, r2])
            else:
                yield from ctx.send(0, 4, tag=1)  # tag=2 never sent

        with pytest.raises(DeadlockError) as exc:
            extract_schedule(2, prog_factory(body))
        msg = str(exc.value)
        assert "rank 0 blocked in waitall on 1 of 2 request(s)" in msg
        assert "recv(src=1, tag=2, nbytes=4)" in msg

    def test_mismatched_tag_reports_unexpected_message(self):
        """A send with the wrong tag parks the receiver AND shows up as an
        unexpected envelope in the deadlock report."""

        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 4, tag=7)
            else:
                yield from ctx.recv(0, 4, tag=5)

        with pytest.raises(DeadlockError) as exc:
            extract_schedule(2, prog_factory(body))
        msg = str(exc.value)
        assert "rank 1 blocked in recv(src=0, tag=5, nbytes=4)" in msg
        assert "unexpected(src=0, tag=7)" in msg
        # The matching-engine line is a note, not a blocked process.
        assert "deadlocked with 1 blocked process(es)" in msg

    def test_any_source_recv_described(self):
        from repro.mpi.ops import ANY_SOURCE

        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.recv(ANY_SOURCE, 4, tag=3)
            else:
                return
                yield

        with pytest.raises(DeadlockError) as exc:
            extract_schedule(2, prog_factory(body))
        assert "rank 0 blocked in recv(src=ANY_SOURCE, tag=3, nbytes=4)" in str(
            exc.value
        )


class TestTruncationAndTags:
    def test_truncation_via_irecv_waitall(self):
        """The nonblocking path raises TruncationError at match time too."""
        bufs = [RealBuffer(16, fill=2), RealBuffer(16)]

        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 16)
            else:
                r = yield from ctx.irecv(0, 8)
                yield from ctx.waitall([r])

        with pytest.raises(TruncationError):
            extract_schedule(2, prog_factory(body), buffers=bufs)

    def test_truncation_message_names_sizes_and_rank(self):
        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 32)
            else:
                yield from ctx.recv(0, 8)

        with pytest.raises(TruncationError, match="32 bytes.*8 bytes.*rank 1"):
            extract_schedule(2, prog_factory(body))

    def test_truncation_when_recv_posted_first(self):
        """Posted-recv-then-send hits the other matching branch."""

        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.recv(1, 8)
            else:
                yield from ctx.send(0, 32)

        with pytest.raises(TruncationError):
            extract_schedule(2, prog_factory(body))

    def test_matching_tags_select_among_pending_sends(self):
        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 4, tag=11, chunks=(0,))
                yield from ctx.send(1, 4, tag=12, chunks=(1,))
            else:
                s12 = yield from ctx.recv(0, 4, tag=12)
                s11 = yield from ctx.recv(0, 4, tag=11)
                return (s12.chunks, s11.chunks)

        res = extract_schedule(2, prog_factory(body))
        assert res.rank_results[1] == ((1,), (0,))

    def test_any_source_ranks_recorded_once_in_post_order(self):
        from repro.mpi.ops import ANY_SOURCE

        def body(ctx):
            if ctx.rank == 0:
                for dst in (2, 2, 1, 1):
                    yield from ctx.send(dst, 4)
            elif ctx.rank == 1:
                yield from ctx.recv(2, 4)  # rank 2 sends after its wildcards
                yield from ctx.recv(ANY_SOURCE, 4)
                yield from ctx.recv(ANY_SOURCE, 4)
            else:
                yield from ctx.recv(ANY_SOURCE, 4)
                yield from ctx.recv(ANY_SOURCE, 4)
                yield from ctx.send(1, 4)

        res = extract_schedule(3, prog_factory(body))
        assert res.any_source_ranks == (2, 1)
        assert res.replay_blockers == ()
