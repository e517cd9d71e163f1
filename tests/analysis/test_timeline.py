"""Tests for trace timeline analysis."""

import pytest

from repro.analysis import (
    MessageSpan,
    ascii_timeline,
    message_spans,
    phase_summary,
)
from repro.core import simulate_bcast
from repro.errors import ConfigurationError
from repro.machine import ideal
from repro.sim import Trace


def traced_bcast(algorithm="scatter_ring_opt", P=8, nbytes=65536, spec=None):
    trace = Trace()
    simulate_bcast(
        spec if spec is not None else ideal(nodes=2, cores_per_node=8),
        P,
        nbytes,
        algorithm=algorithm,
        trace=trace,
    )
    return trace


class TestMessageSpans:
    def test_spans_match_transfer_count(self):
        trace = traced_bcast(P=8)
        spans = message_spans(trace)
        # scatter (7) + tuned ring (44).
        assert len(spans) == 51

    def test_spans_are_causal_and_ordered(self):
        spans = message_spans(traced_bcast())
        for s in spans:
            assert s.end > s.start
            assert s.duration > 0
        starts = [s.start for s in spans]
        assert starts == sorted(starts)

    def test_phase_labels(self):
        spans = message_spans(traced_bcast())
        phases = {s.phase for s in spans}
        assert phases == {"scatter", "ring"}

    def test_manual_trace_roundtrip(self):
        trace = Trace()
        trace.emit(1.0, "send_launch", src=0, dst=1, tag=2, nbytes=10)
        trace.emit(3.0, "recv_complete", src=0, dst=1, tag=2, nbytes=10)
        (span,) = message_spans(trace)
        assert span == MessageSpan(0, 1, 2, 10, 1.0, 3.0)

    def test_delivery_without_launch_rejected(self):
        trace = Trace()
        trace.emit(3.0, "recv_complete", src=0, dst=1, tag=2, nbytes=10)
        with pytest.raises(ConfigurationError):
            message_spans(trace)

    def test_fifo_pairing_per_channel(self):
        trace = Trace()
        trace.emit(0.0, "send_launch", src=0, dst=1, tag=0, nbytes=1)
        trace.emit(1.0, "send_launch", src=0, dst=1, tag=0, nbytes=2)
        trace.emit(2.0, "recv_complete", src=0, dst=1, tag=0, nbytes=1)
        trace.emit(4.0, "recv_complete", src=0, dst=1, tag=0, nbytes=2)
        spans = message_spans(trace)
        assert [(s.nbytes, s.start) for s in spans] == [(1, 0.0), (2, 1.0)]


class TestPhaseSummary:
    def test_scatter_precedes_ring(self):
        summary = phase_summary(traced_bcast())
        assert summary["scatter"]["start"] < summary["ring"]["start"]
        assert summary["scatter"]["messages"] == 7
        assert summary["ring"]["messages"] == 44

    def test_bytes_accounted(self):
        summary = phase_summary(traced_bcast(P=8, nbytes=800))
        # Tuned ring moves native bytes minus the skipped deliveries.
        assert summary["ring"]["bytes"] == 7 * 800 - 12 * 100

    def test_durations_nonnegative(self):
        for entry in phase_summary(traced_bcast()).values():
            assert entry["duration"] >= 0


class TestAsciiTimeline:
    def test_rows_per_rank(self):
        trace = traced_bcast(P=8)
        text = ascii_timeline(trace, 8, width=40)
        lines = text.splitlines()
        assert len(lines) == 9  # header + 8 ranks
        assert all("#" in l for l in lines[1:])

    def test_tag_filter(self):
        trace = traced_bcast(P=8)
        ring_only = ascii_timeline(trace, 8, width=40, tag=2)
        assert "#" in ring_only

    def test_empty_filter(self):
        trace = traced_bcast(P=8)
        assert ascii_timeline(trace, 8, tag=99) == "(no transfers)"

    def test_width_validated(self):
        with pytest.raises(ConfigurationError):
            ascii_timeline(Trace(), 4, width=2)
