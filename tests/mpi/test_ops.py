"""Validation tests for the op descriptors."""

import pytest

from repro.errors import MpiError
from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    ComputeOp,
    IrecvOp,
    IsendOp,
    RecvOp,
    SendOp,
    WaitOp,
)


class TestSendOp:
    def test_defaults(self):
        op = SendOp(dst=1, nbytes=10)
        assert op.tag == 0 and op.disp == 0 and op.chunks == ()

    def test_rejects_negative_size(self):
        with pytest.raises(MpiError):
            SendOp(dst=1, nbytes=-1)

    def test_rejects_negative_dst(self):
        with pytest.raises(MpiError):
            SendOp(dst=-1, nbytes=1)

    def test_rejects_negative_tag(self):
        with pytest.raises(MpiError):
            SendOp(dst=1, nbytes=1, tag=-2)

    def test_isend_is_a_send(self):
        assert isinstance(IsendOp(dst=1, nbytes=1), SendOp)

    def test_frozen(self):
        op = SendOp(dst=1, nbytes=1)
        with pytest.raises(Exception):
            op.dst = 2


class TestRecvOp:
    def test_wildcards_allowed(self):
        op = RecvOp(src=ANY_SOURCE, nbytes=4, tag=ANY_TAG)
        assert op.src == -1 and op.tag == -1

    def test_rejects_below_wildcard(self):
        with pytest.raises(MpiError):
            RecvOp(src=-2, nbytes=4)
        with pytest.raises(MpiError):
            RecvOp(src=0, nbytes=4, tag=-2)

    def test_rejects_negative_size(self):
        with pytest.raises(MpiError):
            RecvOp(src=0, nbytes=-4)

    def test_irecv_is_a_recv(self):
        assert isinstance(IrecvOp(src=0, nbytes=1), RecvOp)


class TestOtherOps:
    def test_waitop_normalises_to_tuple(self):
        op = WaitOp(requests=["a", "b"])
        assert op.requests == ("a", "b")

    def test_waitop_empty(self):
        assert WaitOp().requests == ()

    def test_compute_rejects_negative(self):
        with pytest.raises(MpiError):
            ComputeOp(seconds=-0.1)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -float("inf")])
    def test_compute_rejects_non_finite(self, seconds):
        with pytest.raises(MpiError, match="finite"):
            ComputeOp(seconds=seconds)

    def test_compute_zero_ok(self):
        assert ComputeOp(seconds=0.0).seconds == 0.0
