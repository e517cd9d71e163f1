"""RankContext: the API collective algorithms are written against.

Mirrors the calls in the paper's Listing 1 — ``MPI_Send``, ``MPI_Recv``,
``MPI_Sendrecv`` plus the nonblocking variants MPICH builds them from.
Every method is a *generator*: algorithms compose with ``yield from``
and the same code runs unchanged on the DES runtime, the schedule
counter and the threads backend.

All ranks taken and returned by context methods are **communicator
local**; translation to global transport ranks happens here.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..errors import MpiError
from .comm import Communicator
from .ops import (
    ANY_SOURCE,
    ANY_TAG,
    ComputeOp,
    IrecvOp,
    IsendOp,
    RecvOp,
    SendOp,
    WaitOp,
)
from .request import Request, Status

__all__ = ["RankContext"]


class RankContext:
    """One rank's view of a communicator plus its communication verbs."""

    def __init__(self, global_rank: int, comm: Communicator, buffer=None):
        if global_rank not in comm:
            raise MpiError(
                f"global rank {global_rank} is not in communicator {comm.name}"
            )
        self.global_rank = global_rank
        self.comm = comm
        self.buffer = buffer
        # Peers are translated on every yielded op: index the member
        # list directly instead of going through ``comm.to_global``.
        self._members = comm.members
        self._size = comm.size

    # -- identity --------------------------------------------------------
    @property
    def rank(self) -> int:
        """Local rank within the bound communicator."""
        return self.comm.to_local(self.global_rank)

    @property
    def size(self) -> int:
        return self.comm.size

    def sub(self, comm: Communicator, buffer=None) -> "RankContext":
        """This rank's context on a sub-communicator (same buffer unless
        overridden)."""
        return RankContext(
            self.global_rank, comm, self.buffer if buffer is None else buffer
        )

    def attach_buffer(self, buffer) -> None:
        self.buffer = buffer

    # -- rank translation ----------------------------------------------------
    def _global_dst(self, local: int) -> int:
        if 0 <= local < self._size:
            return self._members[local]
        return self.comm.to_global(local)  # raises MpiError

    def _global_src(self, local: int) -> int:
        if 0 <= local < self._size:
            return self._members[local]
        if local == ANY_SOURCE:
            return ANY_SOURCE
        return self.comm.to_global(local)  # raises MpiError

    def _localize(self, status: Optional[Status]) -> Optional[Status]:
        if status is None:
            return None
        return Status(
            self.comm.to_local(status.source), status.tag, status.nbytes, status.chunks
        )

    # -- blocking verbs --------------------------------------------------------
    def send(self, dst: int, nbytes: int, disp: int = 0, tag: int = 0, chunks: Tuple[int, ...] = ()):
        """Blocking send from ``buffer[disp:disp+nbytes]`` to local *dst*."""
        yield SendOp(
            dst=self._global_dst(dst),
            nbytes=nbytes,
            tag=tag,
            buffer=self.buffer,
            disp=disp,
            chunks=chunks,
        )

    def recv(self, src: int, nbytes: int, disp: int = 0, tag: int = ANY_TAG):
        """Blocking receive into ``buffer[disp:]``; returns a local Status."""
        status = yield RecvOp(
            src=self._global_src(src),
            nbytes=nbytes,
            tag=tag,
            buffer=self.buffer,
            disp=disp,
        )
        return self._localize(status)

    def sendrecv(
        self,
        dst: int,
        send_nbytes: int,
        src: int,
        recv_nbytes: int,
        send_disp: int = 0,
        recv_disp: int = 0,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
        chunks: Tuple[int, ...] = (),
    ):
        """``MPI_Sendrecv``: concurrent send and receive, as MPICH builds
        it — isend + irecv + waitall. Returns the receive's Status."""
        buffer = self.buffer
        send_req = yield IsendOp(
            self._global_dst(dst), send_nbytes, send_tag, buffer, send_disp, chunks
        )
        recv_req = yield IrecvOp(
            self._global_src(src), recv_nbytes, recv_tag, buffer, recv_disp
        )
        statuses = yield WaitOp((send_req, recv_req))
        return self._localize(statuses[1])

    # -- nonblocking verbs -------------------------------------------------------
    def isend(self, dst: int, nbytes: int, disp: int = 0, tag: int = 0, chunks: Tuple[int, ...] = ()):
        """Nonblocking send; returns a Request."""
        req = yield IsendOp(
            dst=self._global_dst(dst),
            nbytes=nbytes,
            tag=tag,
            buffer=self.buffer,
            disp=disp,
            chunks=chunks,
        )
        return req

    def irecv(self, src: int, nbytes: int, disp: int = 0, tag: int = ANY_TAG):
        """Nonblocking receive; returns a Request."""
        req = yield IrecvOp(
            src=self._global_src(src),
            nbytes=nbytes,
            tag=tag,
            buffer=self.buffer,
            disp=disp,
        )
        return req

    def wait(self, request: Request):
        """Wait for one request; returns its (localised) Status."""
        statuses = yield WaitOp(requests=(request,))
        return self._localize(statuses[0])

    def waitall(self, requests):
        """Wait for all requests; returns localised statuses in order."""
        statuses = yield WaitOp(requests=tuple(requests))
        return [self._localize(s) for s in statuses]

    # -- other -----------------------------------------------------------------
    def compute(self, seconds: float):
        """Occupy this rank with ``seconds`` of simulated computation."""
        yield ComputeOp(seconds=seconds)

    def __repr__(self) -> str:
        return (
            f"<RankContext local={self.rank}/{self.size} "
            f"global={self.global_rank} comm={self.comm.name}>"
        )
