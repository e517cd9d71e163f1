"""MPICH-compatible buffer chunking math for scatter-allgather broadcasts.

MPICH's ``MPIR_Bcast_scatter_ring_allgather`` divides the ``nbytes``-byte
source buffer into ``P`` chunks of ``scatter_size = ceil(nbytes / P)``
bytes each; trailing chunks may be short or empty. The paper's pseudo-code
(Listing 1) uses exactly this scheme:

    scatter_size = (nbytes + comm_size - 1) / comm_size
    count_i      = clamp(min(scatter_size, nbytes - i * scatter_size), >= 0)
    disp_i       = i * scatter_size

All chunk indices used here are *relative* chunk numbers, i.e. chunk ``i``
is the block destined for the rank whose relative rank (w.r.t. the root)
is ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CollectiveError

__all__ = [
    "Chunk",
    "scatter_size",
    "chunk_count",
    "chunk_disp",
    "chunk",
    "chunks",
    "total_bytes",
]


@dataclass(frozen=True)
class Chunk:
    """One scatter chunk: relative index, byte displacement and byte count."""

    index: int
    disp: int
    count: int

    @property
    def end(self) -> int:
        """One past the last byte of the chunk inside the source buffer."""
        return self.disp + self.count

    @property
    def empty(self) -> bool:
        return self.count == 0


def _check(nbytes: int, nprocs: int) -> None:
    if nprocs < 1:
        raise CollectiveError(f"chunking needs nprocs >= 1, got {nprocs}")
    if nbytes < 0:
        raise CollectiveError(f"chunking needs nbytes >= 0, got {nbytes}")


def scatter_size(nbytes: int, nprocs: int) -> int:
    """ceil(nbytes / nprocs), the nominal per-chunk byte count."""
    _check(nbytes, nprocs)
    return (nbytes + nprocs - 1) // nprocs


def chunk_disp(nbytes: int, nprocs: int, index: int) -> int:
    """Byte displacement of chunk *index* (clamped to the buffer end)."""
    _check(nbytes, nprocs)
    if not 0 <= index < nprocs:
        raise CollectiveError(f"chunk index {index} out of range for P={nprocs}")
    return min(index * scatter_size(nbytes, nprocs), nbytes)


def chunk_count(nbytes: int, nprocs: int, index: int) -> int:
    """Byte count of chunk *index*; zero for chunks past the buffer end."""
    _check(nbytes, nprocs)
    if not 0 <= index < nprocs:
        raise CollectiveError(f"chunk index {index} out of range for P={nprocs}")
    ssize = scatter_size(nbytes, nprocs)
    count = min(ssize, nbytes - index * ssize)
    return max(count, 0)


def chunk(nbytes: int, nprocs: int, index: int) -> Chunk:
    """The :class:`Chunk` record for chunk *index*."""
    return Chunk(index, chunk_disp(nbytes, nprocs, index), chunk_count(nbytes, nprocs, index))


def chunks(nbytes: int, nprocs: int) -> list:
    """All ``nprocs`` chunks, in relative-index order."""
    return [chunk(nbytes, nprocs, i) for i in range(nprocs)]


def total_bytes(nbytes: int, nprocs: int) -> int:
    """Sum of all chunk counts — always exactly *nbytes* (tested invariant)."""
    return sum(c.count for c in chunks(nbytes, nprocs))
