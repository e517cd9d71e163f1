"""Timeline analysis of simulation traces.

Turns the runtime's event trace into message spans (launch -> delivery),
per-phase summaries (scatter vs ring vs ...) and an ASCII timeline — the
tooling used to *see* why the tuned ring wins: its final steps carry
visibly fewer concurrent transfers.

A trace must have been recorded with :class:`repro.sim.Trace` (pass
``trace=Trace()`` to the Job or to ``simulate_bcast``); the default
``NullTrace`` records nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ConfigurationError
from ..sim.trace import Trace

__all__ = [
    "TAG_NAMES",
    "MessageSpan",
    "message_spans",
    "phase_summary",
    "ascii_timeline",
]

# Collective phase tags (kept in sync with the collectives modules).
TAG_NAMES = {
    0: "pt2pt",
    1: "scatter",
    2: "ring",
    3: "rdbl",
    4: "binomial",
    5: "allgather",
    6: "barrier",
    7: "gather",
    8: "reduce",
    9: "alltoall",
    10: "knomial",
    11: "chain",
}


@dataclass(frozen=True)
class MessageSpan:
    """One transfer's life: launch at the sender to delivery at the
    receiver (both in simulated seconds)."""

    src: int
    dst: int
    tag: int
    nbytes: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def phase(self) -> str:
        return TAG_NAMES.get(self.tag, f"tag{self.tag}")


def message_spans(trace: Trace) -> List[MessageSpan]:
    """Pair ``send_launch`` with ``recv_complete`` records in FIFO order
    per (src, dst, tag) channel."""
    launches: Dict[tuple, list] = {}
    for rec in trace.by_kind("send_launch"):
        launches.setdefault((rec.src, rec.dst, rec.tag), []).append(rec)
    spans: List[MessageSpan] = []
    for rec in trace.by_kind("recv_complete"):
        key = (rec.src, rec.dst, rec.tag)
        queue = launches.get(key)
        if not queue:
            raise ConfigurationError(
                f"trace has a delivery without a launch: {rec!r}"
            )
        launch = queue.pop(0)
        spans.append(
            MessageSpan(
                src=rec.src,
                dst=rec.dst,
                tag=rec.tag,
                nbytes=rec.nbytes,
                start=launch.time,
                end=rec.time,
            )
        )
    spans.sort(key=lambda s: (s.start, s.src, s.dst))
    return spans


def phase_summary(trace: Trace) -> Dict[str, dict]:
    """Per-phase message count, bytes, time window and span."""
    out: Dict[str, dict] = {}
    for span in message_spans(trace):
        entry = out.setdefault(
            span.phase,
            {"messages": 0, "bytes": 0, "start": span.start, "end": span.end},
        )
        entry["messages"] += 1
        entry["bytes"] += span.nbytes
        entry["start"] = min(entry["start"], span.start)
        entry["end"] = max(entry["end"], span.end)
    for entry in out.values():
        entry["duration"] = entry["end"] - entry["start"]
    return out


def ascii_timeline(
    trace: Trace,
    nranks: int,
    width: int = 72,
    tag: Optional[int] = None,
) -> str:
    """Character timeline: one row per rank, ``#`` where the rank has at
    least one in-flight transfer (optionally filtered to one phase tag)."""
    if width < 8:
        raise ConfigurationError("timeline width too small")
    spans = message_spans(trace)
    if tag is not None:
        spans = [s for s in spans if s.tag == tag]
    if not spans:
        return "(no transfers)"
    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    horizon = max(t1 - t0, 1e-12)
    rows = []
    for rank in range(nranks):
        cells = [" "] * width
        for s in spans:
            if rank not in (s.src, s.dst):
                continue
            a = int((s.start - t0) / horizon * (width - 1))
            b = int((s.end - t0) / horizon * (width - 1))
            for c in range(a, b + 1):
                cells[c] = "#"
        rows.append(f"r{rank:<4d}|{''.join(cells)}|")
    header = f"t0={t0 * 1e6:.2f}us                span={horizon * 1e6:.2f}us"
    return "\n".join([header] + rows)
