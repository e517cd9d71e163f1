"""Tests for RankContext: rank translation and verb-to-op lowering.

These drive the context generators directly with the coroutine stepper —
no runtime — to pin down exactly which ops each verb yields and how
communicator-local ranks translate to global ones.
"""

import pytest

from repro.errors import MpiError
from repro.mpi import (
    ANY_SOURCE,
    Communicator,
    IrecvOp,
    IsendOp,
    RankContext,
    RecvOp,
    Request,
    SendOp,
    Status,
    WaitOp,
)
from repro.mpi.buffers import RealBuffer
from repro.sim import step_coroutine


def make_ctx(global_rank=2, members=(2, 5, 7), buffer=None):
    return RankContext(global_rank, Communicator(members), buffer=buffer)


class TestIdentity:
    def test_rank_and_size(self):
        ctx = make_ctx(5)
        assert ctx.rank == 1 and ctx.size == 3

    def test_foreign_rank_rejected(self):
        with pytest.raises(MpiError):
            make_ctx(global_rank=4)

    def test_sub_keeps_buffer(self):
        buf = RealBuffer(4)
        ctx = make_ctx(buffer=buf)
        sub = ctx.sub(Communicator([2, 7]))
        assert sub.buffer is buf
        assert sub.rank == 0 and sub.size == 2

    def test_sub_override_buffer(self):
        ctx = make_ctx(buffer=RealBuffer(4))
        other = RealBuffer(8)
        assert ctx.sub(ctx.comm, buffer=other).buffer is other

    def test_repr(self):
        assert "local=0/3" in repr(make_ctx(2))


class TestVerbLowering:
    def test_send_translates_dst(self):
        ctx = make_ctx(2)
        gen = ctx.send(2, 16, disp=4, tag=9, chunks=(1,))
        op = step_coroutine(gen).value
        assert isinstance(op, SendOp) and not isinstance(op, IsendOp)
        assert op.dst == 7  # local 2 -> global 7
        assert (op.nbytes, op.disp, op.tag, op.chunks) == (16, 4, 9, (1,))

    def test_recv_translates_src_and_localises_status(self):
        ctx = make_ctx(2)
        gen = ctx.recv(1, 16)
        op = step_coroutine(gen).value
        assert isinstance(op, RecvOp) and not isinstance(op, IrecvOp)
        assert op.src == 5
        done = step_coroutine(gen, Status(5, 0, 16, chunks=(3,)))
        assert done.done
        assert done.value.source == 1  # localised back
        assert done.value.chunks == (3,)

    def test_recv_any_source_passthrough(self):
        gen = make_ctx().recv(ANY_SOURCE, 4)
        op = step_coroutine(gen).value
        assert op.src == ANY_SOURCE

    def test_sendrecv_is_isend_irecv_waitall(self):
        ctx = make_ctx(2)
        gen = ctx.sendrecv(1, 8, 2, 8, send_tag=3, recv_tag=4)
        op1 = step_coroutine(gen).value
        assert isinstance(op1, IsendOp) and op1.dst == 5 and op1.tag == 3
        req_s = Request("send", owner=2, peer=5, tag=3, nbytes=8)
        op2 = step_coroutine(gen, req_s).value
        assert isinstance(op2, IrecvOp) and op2.src == 7 and op2.tag == 4
        req_r = Request("recv", owner=2, peer=7, tag=4, nbytes=8)
        op3 = step_coroutine(gen, req_r).value
        assert isinstance(op3, WaitOp)
        assert op3.requests == (req_s, req_r)
        done = step_coroutine(gen, [None, Status(7, 4, 8)])
        assert done.done and done.value.source == 2

    def test_wait_localises(self):
        ctx = make_ctx(2)
        req = Request("recv", owner=2, peer=5, tag=0, nbytes=4)
        gen = ctx.wait(req)
        op = step_coroutine(gen).value
        assert isinstance(op, WaitOp) and op.requests == (req,)
        done = step_coroutine(gen, [Status(5, 0, 4)])
        assert done.value.source == 1

    def test_waitall_handles_send_statuses(self):
        ctx = make_ctx(2)
        gen = ctx.waitall([])
        op = step_coroutine(gen).value
        assert isinstance(op, WaitOp)
        done = step_coroutine(gen, [None, Status(7, 1, 2)])
        assert done.value[0] is None
        assert done.value[1].source == 2

    def test_compute(self):
        gen = make_ctx().compute(1.5)
        op = step_coroutine(gen).value
        assert op.seconds == 1.5

    def test_buffer_attached_to_ops(self):
        buf = RealBuffer(32)
        ctx = make_ctx(buffer=buf)
        op = step_coroutine(ctx.send(1, 8)).value
        assert op.buffer is buf

    def test_out_of_range_local_rank(self):
        with pytest.raises(MpiError):
            step_coroutine(make_ctx().send(3, 1))

    @pytest.mark.parametrize("peer", [3, -5])
    @pytest.mark.parametrize("verb", ["send", "isend", "recv", "irecv"])
    def test_peer_outside_communicator_rejected(self, verb, peer):
        # Local ranks index the member list; a negative one must raise,
        # not wrap around to the last members.
        ctx = make_ctx()
        with pytest.raises(MpiError, match=rf"local rank {peer} outside \[0, 3\)"):
            step_coroutine(getattr(ctx, verb)(peer, 1))
