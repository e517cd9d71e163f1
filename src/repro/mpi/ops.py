"""Operation descriptors yielded by rank programs.

Rank programs are generators; each ``yield`` hands one of these
descriptors to whichever executor is driving the program (DES runtime,
schedule counter or threads backend) and receives the operation's result
back at the yield expression:

===============  ==========================================
descriptor       yield result
===============  ==========================================
``SendOp``       ``None`` (returns when the send completes)
``RecvOp``       :class:`~repro.mpi.request.Status`
``IsendOp``      :class:`~repro.mpi.request.Request`
``IrecvOp``      :class:`~repro.mpi.request.Request`
``WaitOp``       list of ``Status`` (``None`` for sends)
``ComputeOp``    ``None`` (after the simulated delay)
===============  ==========================================

All ranks in descriptors are *global transport ranks*; the
:class:`~repro.mpi.context.RankContext` translates communicator-local
ranks before yielding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..errors import MpiError

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "SendOp",
    "RecvOp",
    "IsendOp",
    "IrecvOp",
    "WaitOp",
    "ComputeOp",
]

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass(frozen=True)
class SendOp:
    """Blocking send of ``nbytes`` from ``buffer[disp:]`` to global ``dst``."""

    dst: int
    nbytes: int
    tag: int = 0
    buffer: object = None  # RealBuffer/PhantomBuffer or None (metadata-only)
    disp: int = 0
    chunks: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.nbytes < 0:
            raise MpiError(f"send of negative size {self.nbytes}")
        if self.dst < 0:
            raise MpiError(f"send to invalid rank {self.dst}")
        if self.tag < 0:
            raise MpiError(f"send with invalid tag {self.tag} (tags must be >= 0)")


@dataclass(frozen=True)
class RecvOp:
    """Blocking receive of at most ``nbytes`` into ``buffer[disp:]``.

    ``src`` may be :data:`ANY_SOURCE` and ``tag`` :data:`ANY_TAG`.
    """

    src: int
    nbytes: int
    tag: int = 0
    buffer: object = None
    disp: int = 0

    def __post_init__(self):
        if self.nbytes < 0:
            raise MpiError(f"recv of negative size {self.nbytes}")
        if self.src < ANY_SOURCE:
            raise MpiError(f"recv from invalid rank {self.src}")
        if self.tag < ANY_TAG:
            raise MpiError(f"recv with invalid tag {self.tag}")


@dataclass(frozen=True)
class IsendOp(SendOp):
    """Nonblocking send; yields a Request immediately."""


@dataclass(frozen=True)
class IrecvOp(RecvOp):
    """Nonblocking receive; yields a Request immediately."""


@dataclass(frozen=True)
class WaitOp:
    """Block until every request in ``requests`` completes."""

    requests: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "requests", tuple(self.requests))


@dataclass(frozen=True)
class ComputeOp:
    """Occupy the rank for ``seconds`` of simulated computation."""

    seconds: float

    def __post_init__(self):
        if not 0.0 <= self.seconds < float("inf"):  # NaN included
            raise MpiError(
                f"compute duration must be finite and >= 0, got {self.seconds}"
            )
