"""Tests for the message-matching engine."""

import pytest

from repro.errors import MatchingError
from repro.mpi import ANY_SOURCE, ANY_TAG, Envelope, MatchingEngine, Request


def recv(owner=0, src=1, tag=0, nbytes=8):
    return Request("recv", owner=owner, peer=src, tag=tag, nbytes=nbytes)


def env(src=1, tag=0, nbytes=8, seq=0):
    return Envelope(src=src, tag=tag, nbytes=nbytes, send_req=None, seq=seq)


class TestBasicMatching:
    def test_recv_then_arrival(self):
        eng = MatchingEngine(0)
        r = recv()
        assert eng.post_recv(r) is None
        assert eng.arrive(env()) is r
        assert eng.pending_recvs == 0

    def test_arrival_then_recv(self):
        eng = MatchingEngine(0)
        e = env()
        assert eng.arrive(e) is None
        assert eng.pending_unexpected == 1
        assert eng.post_recv(recv()) is e
        assert eng.pending_unexpected == 0

    def test_mismatched_source_does_not_match(self):
        eng = MatchingEngine(0)
        eng.post_recv(recv(src=2))
        assert eng.arrive(env(src=1)) is None
        assert eng.pending_recvs == 1

    def test_mismatched_tag_does_not_match(self):
        eng = MatchingEngine(0)
        eng.post_recv(recv(tag=5))
        assert eng.arrive(env(tag=6)) is None


class TestWildcards:
    def test_any_source(self):
        eng = MatchingEngine(0)
        r = recv(src=ANY_SOURCE, tag=3)
        eng.post_recv(r)
        assert eng.arrive(env(src=42, tag=3)) is r

    def test_any_tag(self):
        eng = MatchingEngine(0)
        r = recv(src=1, tag=ANY_TAG)
        eng.post_recv(r)
        assert eng.arrive(env(src=1, tag=99)) is r

    def test_fully_wild(self):
        eng = MatchingEngine(0)
        r = recv(src=ANY_SOURCE, tag=ANY_TAG)
        eng.post_recv(r)
        assert eng.arrive(env(src=7, tag=7)) is r


class TestOrdering:
    def test_earliest_posted_recv_wins(self):
        eng = MatchingEngine(0)
        r1, r2 = recv(tag=0), recv(tag=0)
        eng.post_recv(r1)
        eng.post_recv(r2)
        assert eng.arrive(env(tag=0)) is r1
        assert eng.arrive(env(tag=0)) is r2

    def test_earliest_arrival_wins(self):
        eng = MatchingEngine(0)
        e1, e2 = env(seq=0), env(seq=1)
        eng.arrive(e1)
        eng.arrive(e2)
        assert eng.post_recv(recv()) is e1
        assert eng.post_recv(recv()) is e2

    def test_specific_recv_skips_nonmatching_earlier_envelope(self):
        eng = MatchingEngine(0)
        eng.arrive(env(src=5, tag=0))
        e2 = env(src=1, tag=0)
        eng.arrive(e2)
        assert eng.post_recv(recv(src=1)) is e2
        assert eng.pending_unexpected == 1

    def test_wildcard_recv_takes_earliest_of_any(self):
        eng = MatchingEngine(0)
        e1 = env(src=5, tag=2)
        eng.arrive(e1)
        eng.arrive(env(src=1, tag=1))
        assert eng.post_recv(recv(src=ANY_SOURCE, tag=ANY_TAG)) is e1


class TestCancelAndErrors:
    def test_rejects_send_request(self):
        eng = MatchingEngine(0)
        send = Request("send", owner=0, peer=1, tag=0, nbytes=4)
        with pytest.raises(MatchingError):
            eng.post_recv(send)

    def test_rejects_foreign_owner(self):
        eng = MatchingEngine(0)
        with pytest.raises(MatchingError):
            eng.post_recv(recv(owner=3))

    def test_describe_blockage(self):
        eng = MatchingEngine(7)
        eng.post_recv(recv(owner=7, src=1, tag=2))
        text = eng.describe_blockage()
        assert "rank 7" in text and "src=1" in text
        assert "idle" in MatchingEngine(0).describe_blockage()


class TestRequestLifecycle:
    def test_finish_fires_callbacks(self):
        r = recv()
        seen = []
        r.on_complete(seen.append)
        r.finish()
        assert seen == [r]

    def test_late_callback_fires_immediately(self):
        r = recv()
        r.finish()
        seen = []
        r.on_complete(seen.append)
        assert seen == [r]

    def test_double_finish_rejected(self):
        from repro.errors import MpiError

        r = recv()
        r.finish()
        with pytest.raises(MpiError):
            r.finish()

    def test_bad_kind_rejected(self):
        from repro.errors import MpiError

        with pytest.raises(MpiError):
            Request("bcast", owner=0, peer=1, tag=0, nbytes=1)
