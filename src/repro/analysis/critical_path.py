"""Critical-path extraction from a simulation trace.

The makespan of a collective equals the longest chain of *dependent*
message spans: span B depends on span A when they share a rank and B
starts at-or-after A ends (program order at that rank), or when B is the
onward hop of the payload A delivered. This module builds that DAG and
returns the heaviest chain — the answer to "which sequence of transfers
actually set the finish time?", which for the ring broadcasts is the
chunk that travels farthest.

The dependency rule is conservative (rank-serialisation only), so the
reported chain is a *lower bound* certificate: its duration can never
exceed the makespan, and for serialised schedules like the ring it is
tight (tests pin this on the ideal machine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim.trace import Trace
from .timeline import message_spans

__all__ = ["CriticalPath", "critical_path"]

_EPS = 1e-15


@dataclass(frozen=True)
class CriticalPath:
    """The heaviest dependency chain found in a trace."""

    spans: tuple  # MessageSpan chain, time-ordered
    duration: float  # end of last minus start of first
    transfer_time: float  # sum of span durations along the chain

    @property
    def hops(self) -> int:
        return len(self.spans)

    def describe(self) -> str:
        if not self.spans:
            return "(empty trace)"
        hops = " -> ".join(f"{s.src}" for s in self.spans) + f" -> {self.spans[-1].dst}"
        return (
            f"{self.hops} hops over {self.duration * 1e6:.1f}us "
            f"({self.transfer_time * 1e6:.1f}us in transfers): {hops}"
        )


def critical_path(trace: Trace, tag: Optional[int] = None) -> CriticalPath:
    """Longest (by finishing time, then transfer time) dependency chain."""
    spans = message_spans(trace)
    if tag is not None:
        spans = [s for s in spans if s.tag == tag]
    if not spans:
        return CriticalPath(spans=(), duration=0.0, transfer_time=0.0)

    # DAG over spans; edge A -> B when B could only start after A at a
    # shared endpoint. Spans sorted by start; longest-path DP over that
    # topological-compatible order. The (src, dst, tag) tail makes the
    # order — and therefore parent choice among equal-time spans — a
    # pure function of the trace contents.
    spans.sort(key=lambda s: (s.start, s.end, s.src, s.dst, s.tag))
    n = len(spans)
    best_time = [s.duration for s in spans]  # accumulated transfer time
    parent: List[Optional[int]] = [None] * n

    for j in range(n):
        sj = spans[j]
        for i in range(j):
            si = spans[i]
            if si.end > sj.start + _EPS:
                continue  # not causally ordered
            if not ({si.src, si.dst} & {sj.src, sj.dst}):
                continue  # no shared endpoint: independent
            cand = best_time[i] + sj.duration
            if cand > best_time[j] + _EPS:
                best_time[j] = cand
                parent[j] = i

    # Chain with the latest end; ties broken by transfer time, then by
    # the deterministic span order (max keeps the first of exact ties,
    # so prefer the lowest (src, dst, tag) explicitly).
    end_idx = max(
        range(n),
        key=lambda k: (
            spans[k].end,
            best_time[k],
            (-spans[k].src, -spans[k].dst, -spans[k].tag),
        ),
    )
    chain = []
    k: Optional[int] = end_idx
    while k is not None:
        chain.append(spans[k])
        k = parent[k]
    chain.reverse()
    return CriticalPath(
        spans=tuple(chain),
        duration=chain[-1].end - chain[0].start,
        transfer_time=sum(s.duration for s in chain),
    )
