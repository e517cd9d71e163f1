"""Ring allgather phases: the native (enclosed) and tuned (non-enclosed)
variants that Sections III and IV of the paper contrast.

Both run the same (P-1)-step virtual ring: at step ``i`` a rank forwards
chunk ``(rel - i + 1) mod P`` to its right neighbour and receives chunk
``(rel - i) mod P`` from its left neighbour (chunks are relative; byte
displacements absolute, clamped for uneven division, zero-byte transfers
still issued — exactly as in MPICH and Listing 1).

*Native* (Figure 3): every rank issues ``MPI_Sendrecv`` at every step —
"each process pretends to only own the i-th data chunk" — P x (P-1)
transfers, many of them redelivering chunks the receiver already holds
from the binomial scatter.

*Tuned* (Figures 4/5): each rank derives ``(step, flag)`` from the
scatter structure (:func:`~repro.collectives.relative.tuned_ring_role`)
and degrades to half-duplex for the last ``step - 1`` iterations —
receive-only (``flag=1``) when its right neighbour already holds the
remaining chunks, send-only (``flag=0``) when it does. Same step count,
strictly fewer transfers; the receive path asserts (via
``ChunkSet.add_strict``) that no delivered chunk was already owned.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CollectiveError
from ..util import ChunkSet
from .relative import relative_rank, subtree_chunks, tuned_ring_role
from .scatter import chunk_table

__all__ = ["RingResult", "ring_allgather_native", "ring_allgather_tuned"]

RING_TAG = 2


@dataclass
class RingResult:
    """Outcome of one allgather phase on one rank."""

    owned: ChunkSet  # relative chunk ids after the phase
    steps: int
    sends: int
    recvs: int
    redundant_recvs: int  # chunks delivered that were already owned


def _ring_step_chunks(rel: int, size: int, i: int):
    """(sent_chunk, received_chunk) at ring step ``i`` (1-based)."""
    sent = (rel - i + 1) % size
    received = (rel - i) % size
    return sent, received


def ring_allgather_native(ctx, nbytes: int, root: int = 0, owned: ChunkSet = None):
    """The enclosed ring: full-duplex sendrecv at every step.

    *owned* is the rank's post-scatter ownership (used to count the
    redundant deliveries the tuned variant eliminates); defaults to
    "own chunk only", the enclosed ring's pretence.
    """
    size = ctx.size
    rel = relative_rank(ctx.rank, root, size)
    if owned is None:
        owned = ChunkSet(size, [rel])
    else:
        owned = owned.copy()
    left = (ctx.rank - 1 + size) % size
    right = (ctx.rank + 1) % size

    disps, counts = chunk_table(nbytes, size)
    sends = recvs = redundant = 0
    for i in range(1, size):
        send_chunk, recv_chunk = _ring_step_chunks(rel, size, i)
        yield from ctx.sendrecv(
            dst=right,
            send_nbytes=counts[send_chunk],
            src=left,
            recv_nbytes=counts[recv_chunk],
            send_disp=disps[send_chunk],
            recv_disp=disps[recv_chunk],
            send_tag=RING_TAG,
            recv_tag=RING_TAG,
            chunks=(send_chunk,),
        )
        sends += 1
        recvs += 1
        if not owned.add(recv_chunk):
            redundant += 1

    if not owned.is_full:
        raise CollectiveError(
            f"rank {ctx.rank}: enclosed ring finished missing chunks "
            f"{owned.missing()}"
        )  # pragma: no cover - structural impossibility
    return RingResult(
        owned=owned, steps=size - 1, sends=sends, recvs=recvs, redundant_recvs=redundant
    )


def ring_allgather_tuned(ctx, nbytes: int, root: int = 0, owned: ChunkSet = None):
    """The paper's non-enclosed ring (Listing 1's tuned allgather).

    *owned* must be the rank's true post-scatter ownership; with the
    default it is reconstructed from the scatter structure. Receiving a
    chunk that is already owned raises — that would mean the mask rule
    and the scatter disagree, i.e. a correctness bug.
    """
    size = ctx.size
    rel = relative_rank(ctx.rank, root, size)
    if owned is None:
        owned = ChunkSet.interval(size, rel, subtree_chunks(rel, size))
    else:
        owned = owned.copy()
    left = (ctx.rank - 1 + size) % size
    right = (ctx.rank + 1) % size
    step, flag = tuned_ring_role(rel, size)

    disps, counts = chunk_table(nbytes, size)
    sends = recvs = 0
    for i in range(1, size):
        send_chunk, recv_chunk = _ring_step_chunks(rel, size, i)
        send_bytes = counts[send_chunk]
        recv_bytes = counts[recv_chunk]
        send_disp = disps[send_chunk]
        recv_disp = disps[recv_chunk]

        if step <= size - i:
            # Full-duplex phase: behave exactly like the enclosed ring.
            yield from ctx.sendrecv(
                dst=right,
                send_nbytes=send_bytes,
                src=left,
                recv_nbytes=recv_bytes,
                send_disp=send_disp,
                recv_disp=recv_disp,
                send_tag=RING_TAG,
                recv_tag=RING_TAG,
                chunks=(send_chunk,),
            )
            sends += 1
            recvs += 1
            owned.add_strict(recv_chunk)
        elif flag:
            # Receive-only endpoint: the right neighbour is complete.
            yield from ctx.recv(left, recv_bytes, disp=recv_disp, tag=RING_TAG)
            recvs += 1
            owned.add_strict(recv_chunk)
        else:
            # Send-only endpoint: everything still inbound is already owned.
            yield from ctx.send(
                right, send_bytes, disp=send_disp, tag=RING_TAG, chunks=(send_chunk,)
            )
            sends += 1

    if not owned.is_full:
        raise CollectiveError(
            f"rank {ctx.rank}: tuned ring finished missing chunks {owned.missing()}"
        )
    return RingResult(
        owned=owned, steps=size - 1, sends=sends, recvs=recvs, redundant_recvs=0
    )
