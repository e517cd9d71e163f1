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

from typing import NamedTuple, Tuple

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

# Descriptors are immutable tuples: a program yields one per operation,
# so building one must cost no more than a tuple. Each class validates
# in ``__new__`` over a NamedTuple base that only names the fields
# (NamedTuple bodies may not define ``__new__``).
_new = tuple.__new__


class _SendFields(NamedTuple):
    dst: int
    nbytes: int
    tag: int = 0
    buffer: object = None  # RealBuffer/PhantomBuffer or None (metadata-only)
    disp: int = 0
    chunks: Tuple[int, ...] = ()


class SendOp(_SendFields):
    """Blocking send of ``nbytes`` from ``buffer[disp:]`` to global ``dst``."""

    __slots__ = ()

    def __new__(cls, dst, nbytes, tag=0, buffer=None, disp=0, chunks=()):
        if nbytes < 0:
            raise MpiError(f"send of negative size {nbytes}")
        if dst < 0:
            raise MpiError(f"send to invalid rank {dst}")
        if tag < 0:
            raise MpiError(f"send with invalid tag {tag} (tags must be >= 0)")
        return _new(cls, (dst, nbytes, tag, buffer, disp, chunks))


class _RecvFields(NamedTuple):
    src: int
    nbytes: int
    tag: int = 0
    buffer: object = None
    disp: int = 0


class RecvOp(_RecvFields):
    """Blocking receive of at most ``nbytes`` into ``buffer[disp:]``.

    ``src`` may be :data:`ANY_SOURCE` and ``tag`` :data:`ANY_TAG`.
    """

    __slots__ = ()

    def __new__(cls, src, nbytes, tag=0, buffer=None, disp=0):
        if nbytes < 0:
            raise MpiError(f"recv of negative size {nbytes}")
        if src < ANY_SOURCE:
            raise MpiError(f"recv from invalid rank {src}")
        if tag < ANY_TAG:
            raise MpiError(f"recv with invalid tag {tag}")
        return _new(cls, (src, nbytes, tag, buffer, disp))


class IsendOp(SendOp):
    """Nonblocking send; yields a Request immediately."""

    __slots__ = ()


class IrecvOp(RecvOp):
    """Nonblocking receive; yields a Request immediately."""

    __slots__ = ()


class _WaitFields(NamedTuple):
    requests: tuple = ()


class WaitOp(_WaitFields):
    """Block until every request in ``requests`` completes."""

    __slots__ = ()

    def __new__(cls, requests=()):
        return _new(cls, (tuple(requests),))


class _ComputeFields(NamedTuple):
    seconds: float


class ComputeOp(_ComputeFields):
    """Occupy the rank for ``seconds`` of simulated computation."""

    __slots__ = ()

    def __new__(cls, seconds):
        if not 0.0 <= seconds < float("inf"):  # NaN included
            raise MpiError(
                f"compute duration must be finite and >= 0, got {seconds}"
            )
        return _new(cls, (seconds,))
