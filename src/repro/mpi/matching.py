"""Receiver-side message matching: posted receives and unexpected messages.

Implements MPI's matching semantics per receiving rank:

* a receive matches the earliest-*arrived* unexpected message whose
  (source, tag) satisfies its (possibly wildcard) pattern;
* an arriving message matches the earliest-*posted* pending receive it
  satisfies;
* messages between one (sender, receiver) pair with equal tags are
  matched in send order (non-overtaking) — guaranteed here because
  envelopes arrive in send order (constant per-pair latency) and both
  queues are FIFO.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import MatchingError
from .ops import ANY_SOURCE, ANY_TAG
from .request import Request

__all__ = ["Envelope", "MatchingEngine"]


class Envelope:
    """An arrived-but-unmatched message announcement."""

    __slots__ = ("src", "tag", "nbytes", "send_req", "payload_ready", "seq")

    def __init__(self, src: int, tag: int, nbytes: int, send_req, seq: int):
        self.src = src
        self.tag = tag
        self.nbytes = nbytes
        self.send_req = send_req
        self.seq = seq

    def __repr__(self) -> str:
        return f"<Envelope src={self.src} tag={self.tag} nbytes={self.nbytes}>"


def _matches(want_src: int, want_tag: int, src: int, tag: int) -> bool:
    return (want_src == ANY_SOURCE or want_src == src) and (
        want_tag == ANY_TAG or want_tag == tag
    )


class MatchingEngine:
    """Matching state for one receiving rank."""

    def __init__(self, rank: int):
        self.rank = rank
        self.posted: List[Request] = []  # pending receives, post order
        self.unexpected: List[Envelope] = []  # arrived envelopes, arrival order

    # -- events --------------------------------------------------------
    def post_recv(self, req: Request) -> Optional[Envelope]:
        """Register a receive; returns the envelope it matches, if any."""
        if req.kind != "recv":
            raise MatchingError(f"post_recv got a {req.kind} request")
        if req.owner != self.rank:
            raise MatchingError(
                f"recv owned by rank {req.owner} posted on engine of rank {self.rank}"
            )
        for i, env in enumerate(self.unexpected):
            if _matches(req.peer, req.tag, env.src, env.tag):
                del self.unexpected[i]
                return env
        self.posted.append(req)
        return None

    def arrive(self, env: Envelope) -> Optional[Request]:
        """Process an arriving envelope; returns the receive it matches."""
        for i, req in enumerate(self.posted):
            if _matches(req.peer, req.tag, env.src, env.tag):
                del self.posted[i]
                return req
        self.unexpected.append(env)
        return None

    # -- introspection ---------------------------------------------------
    @property
    def pending_recvs(self) -> int:
        return len(self.posted)

    @property
    def pending_unexpected(self) -> int:
        return len(self.unexpected)

    def describe_blockage(self) -> str:
        """Human-readable dump used in deadlock reports."""
        parts = []
        for req in self.posted[:4]:
            parts.append(f"recv(src={req.peer}, tag={req.tag})")
        for env in self.unexpected[:4]:
            parts.append(f"unexpected(src={env.src}, tag={env.tag})")
        inner = ", ".join(parts) if parts else "idle"
        return f"rank {self.rank}: {inner}"
