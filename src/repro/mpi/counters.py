"""Traffic accounting: the numbers the paper's argument is made of.

The tuned broadcast's whole point is *fewer message transfers and fewer
bytes on the wire for the same number of ring steps*. Counters record
every transfer the transport launches, split by communication level
(intra-node memory copies vs inter-node fabric messages), so experiments
can report exactly the quantities Section IV of the paper discusses
(e.g. 56 -> 44 transfers at P=8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["TrafficCounters"]


@dataclass
class TrafficCounters:
    """Mutable tally of transfers launched by a job."""

    messages: int = 0
    bytes: int = 0
    intra_messages: int = 0
    intra_bytes: int = 0
    inter_messages: int = 0
    inter_bytes: int = 0
    sent_by_rank: Dict[int, int] = field(default_factory=dict)
    received_by_rank: Dict[int, int] = field(default_factory=dict)
    bytes_sent_by_rank: Dict[int, int] = field(default_factory=dict)
    bytes_received_by_rank: Dict[int, int] = field(default_factory=dict)
    # -- chaos / reliability accounting (docs/robustness.md) -------------
    # Injected by a FaultPlan:
    drops_injected: int = 0
    dup_injected: int = 0
    corrupt_injected: int = 0
    # Spent by the reliability layer recovering from the above. None of
    # these feed ``messages``/``bytes``: with zero retransmissions the
    # wire counters stay bitwise-identical to a fault-free run.
    retrans_messages: int = 0
    retrans_bytes: int = 0
    ack_messages: int = 0
    ack_bytes: int = 0
    timeouts: int = 0
    dup_suppressed: int = 0
    corrupt_dropped: int = 0

    CHAOS_FIELDS = (
        "drops_injected",
        "dup_injected",
        "corrupt_injected",
        "retrans_messages",
        "retrans_bytes",
        "ack_messages",
        "ack_bytes",
        "timeouts",
        "dup_suppressed",
        "corrupt_dropped",
    )

    def record(self, src: int, dst: int, nbytes: int, intra: bool) -> None:
        """Count one launched transfer."""
        self.messages += 1
        self.bytes += nbytes
        if intra:
            self.intra_messages += 1
            self.intra_bytes += nbytes
        else:
            self.inter_messages += 1
            self.inter_bytes += nbytes
        self.sent_by_rank[src] = self.sent_by_rank.get(src, 0) + 1
        self.received_by_rank[dst] = self.received_by_rank.get(dst, 0) + 1
        self.bytes_sent_by_rank[src] = self.bytes_sent_by_rank.get(src, 0) + nbytes
        self.bytes_received_by_rank[dst] = (
            self.bytes_received_by_rank.get(dst, 0) + nbytes
        )

    def record_retransmission(self, nbytes: int) -> None:
        """Count one retransmitted payload (reliability layer only)."""
        self.retrans_messages += 1
        self.retrans_bytes += nbytes

    def record_ack(self, nbytes: int) -> None:
        """Count one ACK control packet (kept out of ``messages``)."""
        self.ack_messages += 1
        self.ack_bytes += nbytes

    def merge(self, other: "TrafficCounters") -> None:
        """Accumulate another tally (used when composing phases)."""
        self.messages += other.messages
        self.bytes += other.bytes
        self.intra_messages += other.intra_messages
        self.intra_bytes += other.intra_bytes
        self.inter_messages += other.inter_messages
        self.inter_bytes += other.inter_bytes
        for src, n in other.sent_by_rank.items():
            self.sent_by_rank[src] = self.sent_by_rank.get(src, 0) + n
        for dst, n in other.received_by_rank.items():
            self.received_by_rank[dst] = self.received_by_rank.get(dst, 0) + n
        for src, n in other.bytes_sent_by_rank.items():
            self.bytes_sent_by_rank[src] = self.bytes_sent_by_rank.get(src, 0) + n
        for dst, n in other.bytes_received_by_rank.items():
            self.bytes_received_by_rank[dst] = (
                self.bytes_received_by_rank.get(dst, 0) + n
            )
        for name in self.CHAOS_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def __repr__(self) -> str:
        return (
            f"<TrafficCounters msgs={self.messages} bytes={self.bytes} "
            f"(intra {self.intra_messages}/{self.intra_bytes}B, "
            f"inter {self.inter_messages}/{self.inter_bytes}B)>"
        )
