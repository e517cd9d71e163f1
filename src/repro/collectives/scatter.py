"""Binomial-tree scatter — phase one of the scatter-allgather broadcasts.

Faithful port of MPICH's ``MPIR_Scatter_for_bcast`` (Figures 1 and 2 of
the paper): the root owns all ``P`` chunks and walks a binomial tree;
at branch mask ``m`` a subtree root hands the upper half of its chunk
interval (``[rel+m, rel+extent)``) to relative rank ``rel+m``. After
``ceil(log2 P)`` levels every relative rank ``r`` owns exactly the chunk
interval ``[r, r + subtree_chunks(r))``.

The generator returns a :class:`ScatterResult` with the rank's final
chunk interval so callers (and tests) can verify ownership.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from ..errors import CollectiveError
from ..util import ChunkSet, next_power_of_two
from ..util.chunking import chunk_disp
from .relative import relative_rank, subtree_chunks

__all__ = [
    "ScatterResult",
    "binomial_scatter",
    "chunk_table",
    "span_bytes",
    "span_disp",
]

# Tag reserved for scatter-phase traffic (mirrors MPICH's distinct tags
# per collective phase so ring traffic can never match scatter receives).
SCATTER_TAG = 1


def span_disp(nbytes: int, size: int, first_chunk: int) -> int:
    """Byte displacement of a chunk span starting at *first_chunk*."""
    return chunk_disp(nbytes, size, first_chunk) if first_chunk < size else nbytes


def span_bytes(nbytes: int, size: int, first_chunk: int, n_chunks: int) -> int:
    """Total bytes of chunks ``[first_chunk, first_chunk + n_chunks)``."""
    if n_chunks < 0:
        raise CollectiveError(f"negative chunk span {n_chunks}")
    end = first_chunk + n_chunks
    if end > size:
        raise CollectiveError(
            f"chunk span [{first_chunk}, {end}) exceeds {size} chunks"
        )
    if n_chunks == 0:
        return 0
    start_disp = span_disp(nbytes, size, first_chunk)
    end_disp = nbytes if end == size else span_disp(nbytes, size, end)
    return end_disp - start_disp


@lru_cache(maxsize=32)
def chunk_table(nbytes: int, size: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``(disps, counts)``: ``span_disp`` and the one-chunk ``span_bytes``
    of every chunk ``0 .. size-1``.

    The ring phases read both at every step. The memo is shared by every
    rank of a run (and by both ring variants), so one table exists per
    ``(nbytes, size)`` instead of one per rank.
    """
    disps = tuple(span_disp(nbytes, size, c) for c in range(size))
    ends = disps[1:] + (nbytes,)
    return disps, tuple(end - disp for disp, end in zip(disps, ends))


@dataclass
class ScatterResult:
    """Ownership after the scatter, in relative-chunk terms."""

    first_chunk: int  # == the rank's relative rank
    n_chunks: int  # == subtree_chunks(relative rank)
    nbytes_owned: int
    owned: ChunkSet  # relative chunk ids
    sends: int = 0  # messages this rank forwarded to children
    recvs: int = 0  # 1 for every non-root rank that received bytes


def binomial_scatter(ctx, nbytes: int, root: int = 0):
    """Scatter the root's ``nbytes`` buffer along the binomial tree.

    ``ctx.buffer`` holds the full source data on the root; on other
    ranks it is (conceptually) empty and gets the rank's interval
    written at the correct displacement. Chunk indices are *relative*;
    byte displacements are absolute within the buffer (MPICH keeps the
    data at its final position throughout, so no reshuffling is needed
    after the allgather).
    """
    size = ctx.size
    if nbytes < 0:
        raise CollectiveError(f"negative broadcast size {nbytes}")
    rel = relative_rank(ctx.rank, root, size)

    if size == 1:
        return ScatterResult(0, 1, nbytes, ChunkSet.full(1))

    extent = subtree_chunks(rel, size)
    sends = recvs = 0

    # --- receive from parent (non-root only) ---------------------------
    mask = 1
    if rel != 0:
        while mask < size:
            if rel & mask:
                parent_rel = rel - mask
                parent = (parent_rel + root) % size
                recv_bytes = span_bytes(nbytes, size, rel, extent)
                disp = span_disp(nbytes, size, rel)
                if recv_bytes > 0:
                    yield from ctx.recv(
                        parent, recv_bytes, disp=disp, tag=SCATTER_TAG
                    )
                    recvs += 1
                break
            mask <<= 1
    else:
        mask = next_power_of_two(size)

    # --- forward to children -----------------------------------------------
    # Children are rel + m for each m below the branch mask, largest first.
    child_mask = mask >> 1
    while child_mask > 0:
        child_rel = rel + child_mask
        if child_rel < size:
            child_extent = min(child_mask, size - child_rel)
            send_bytes = span_bytes(nbytes, size, child_rel, child_extent)
            disp = span_disp(nbytes, size, child_rel)
            chunks = tuple(range(child_rel, child_rel + child_extent))
            if send_bytes > 0:
                child = (child_rel + root) % size
                yield from ctx.send(
                    child, send_bytes, disp=disp, tag=SCATTER_TAG, chunks=chunks
                )
                sends += 1
        child_mask >>= 1

    owned = ChunkSet.interval(size, rel, extent)
    return ScatterResult(
        first_chunk=rel,
        n_chunks=extent,
        nbytes_owned=span_bytes(nbytes, size, rel, extent),
        owned=owned,
        sends=sends,
        recvs=recvs,
    )
