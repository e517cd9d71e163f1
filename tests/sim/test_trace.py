"""Tests for trace recording and the RNG streams."""

import math

import pytest

from repro.sim import Trace, NullTrace, RngStreams
from repro.errors import ConfigurationError


class TestTrace:
    def test_emit_and_len(self):
        tr = Trace()
        tr.emit(0.0, "send", src=0, dst=1)
        tr.emit(1.0, "recv", src=0, dst=1)
        assert len(tr) == 2

    def test_field_access(self):
        tr = Trace()
        tr.emit(0.5, "send", src=3, nbytes=100)
        rec = tr.records[0]
        assert rec.src == 3 and rec.nbytes == 100 and rec.time == 0.5
        with pytest.raises(AttributeError):
            rec.missing_field

    def test_by_kind_and_where(self):
        tr = Trace()
        tr.emit(0.0, "send", src=0)
        tr.emit(0.0, "send", src=1)
        tr.emit(1.0, "recv", src=0)
        assert len(tr.by_kind("send")) == 2
        assert len(tr.where("send", src=1)) == 1
        assert len(tr.where(src=0)) == 2

    def test_kinds_histogram(self):
        tr = Trace()
        for _ in range(3):
            tr.emit(0.0, "a")
        tr.emit(0.0, "b")
        assert tr.kinds() == {"a": 3, "b": 1}

    def test_iteration(self):
        tr = Trace()
        tr.emit(0.0, "a")
        assert [r.kind for r in tr] == ["a"]

    def test_repr_is_informative(self):
        tr = Trace()
        tr.emit(1.0, "send", dst=2)
        assert "send" in repr(tr.records[0])
        assert "dst=2" in repr(tr.records[0])

    def test_null_trace_drops(self):
        tr = NullTrace()
        tr.emit(0.0, "send")
        assert len(tr) == 0
        assert not tr.enabled


class TestRngStreams:
    def test_same_seed_same_draws(self):
        a = RngStreams(7).stream("latency").random(5)
        b = RngStreams(7).stream("latency").random(5)
        assert (a == b).all()

    def test_streams_independent_of_creation_order(self):
        r1 = RngStreams(7)
        x_first = r1.stream("x").random()
        r2 = RngStreams(7)
        r2.stream("y")  # create another stream first
        x_second = r2.stream("x").random()
        assert x_first == x_second

    def test_different_names_differ(self):
        r = RngStreams(0)
        assert r.stream("a").random() != r.stream("b").random()

    def test_stream_cached(self):
        r = RngStreams(0)
        assert r.stream("a") is r.stream("a")

    def test_zero_sigma_jitter_is_exactly_one(self):
        assert RngStreams(1).jitter_factor("j", 0.0) == 1.0

    def test_jitter_positive(self):
        r = RngStreams(3)
        for _ in range(100):
            assert r.jitter_factor("j", 0.3) > 0.0

    def test_jitter_mean_near_one(self):
        r = RngStreams(5)
        draws = [r.jitter_factor("j", 0.2) for _ in range(4000)]
        assert math.isclose(sum(draws) / len(draws), 1.0, rel_tol=0.05)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            RngStreams(-1)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            RngStreams(0).jitter_factor("j", -0.1)
