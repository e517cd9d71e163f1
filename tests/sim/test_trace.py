"""Tests for trace recording."""

import pytest

from repro.sim import Trace, NullTrace


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

