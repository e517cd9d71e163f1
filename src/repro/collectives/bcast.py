"""Composed broadcast algorithms: the paper's two protagonists and the
other MPICH paths they are selected against.

``bcast_scatter_ring_native``  — MPI_Bcast_native: binomial scatter +
                                 enclosed ring allgather (Section III).
``bcast_scatter_ring_opt``     — MPI_Bcast_opt: binomial scatter + tuned
                                 non-enclosed ring allgather (Section IV,
                                 Listing 1). The paper's contribution.
``bcast_scatter_rdbl``         — binomial scatter + recursive-doubling
                                 allgather (MPICH's mmsg/pof2 path).
``bcast_binomial``             — short-message binomial tree (re-exported
                                 from :mod:`.binomial`).

Every algorithm is a generator taking ``(ctx, nbytes, root)`` and
returning a :class:`BcastResult`; the registry at the bottom is what the
high-level API and the benchmarks iterate over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import CollectiveError
from ..util import ChunkSet
from .allgather_rd import allgather_recursive_doubling
from .allgather_ring import ring_allgather_native, ring_allgather_tuned
from .binomial import bcast_binomial as _binomial
from .scatter import binomial_scatter

__all__ = [
    "BcastResult",
    "bcast_binomial",
    "bcast_scatter_ring_native",
    "bcast_scatter_ring_opt",
    "bcast_scatter_rdbl",
    "ALGORITHMS",
    "get_algorithm",
]


@dataclass
class BcastResult:
    """Per-rank outcome of a complete broadcast."""

    algorithm: str
    owned: Optional[ChunkSet]  # None for algorithms without chunking
    sends: int
    recvs: int
    redundant_recvs: int

    def assert_complete(self) -> None:
        """Raise unless this rank ended holding the full message."""
        if self.owned is not None and not self.owned.is_full:
            raise CollectiveError(
                f"incomplete broadcast: missing chunks {self.owned.missing()}"
            )


def bcast_binomial(ctx, nbytes: int, root: int = 0):
    """Short-message binomial broadcast (full buffer down the tree)."""
    res = yield from _binomial(ctx, nbytes, root)
    return BcastResult(
        algorithm="binomial",
        owned=ChunkSet.full(ctx.size),
        sends=res.sends,
        recvs=res.recvs,
        redundant_recvs=0,
    )


def bcast_scatter_ring_native(ctx, nbytes: int, root: int = 0):
    """MPI_Bcast_native: scatter + enclosed ring (P x (P-1) transfers)."""
    scatter = yield from binomial_scatter(ctx, nbytes, root)
    if ctx.size == 1:
        return BcastResult("scatter_ring_native", scatter.owned, 0, 0, 0)
    ring = yield from ring_allgather_native(ctx, nbytes, root, owned=scatter.owned)
    return BcastResult(
        algorithm="scatter_ring_native",
        owned=ring.owned,
        sends=ring.sends + scatter.sends,
        recvs=ring.recvs + scatter.recvs,
        redundant_recvs=ring.redundant_recvs,
    )


def bcast_scatter_ring_opt(ctx, nbytes: int, root: int = 0):
    """MPI_Bcast_opt: scatter + tuned ring (the paper's contribution)."""
    scatter = yield from binomial_scatter(ctx, nbytes, root)
    if ctx.size == 1:
        return BcastResult("scatter_ring_opt", scatter.owned, 0, 0, 0)
    ring = yield from ring_allgather_tuned(ctx, nbytes, root, owned=scatter.owned)
    return BcastResult(
        algorithm="scatter_ring_opt",
        owned=ring.owned,
        sends=ring.sends + scatter.sends,
        recvs=ring.recvs + scatter.recvs,
        redundant_recvs=0,
    )


def bcast_scatter_rdbl(ctx, nbytes: int, root: int = 0):
    """Scatter + recursive-doubling allgather (mmsg, power-of-two only)."""
    scatter = yield from binomial_scatter(ctx, nbytes, root)
    if ctx.size == 1:
        return BcastResult("scatter_rdbl", scatter.owned, 0, 0, 0)
    rd = yield from allgather_recursive_doubling(ctx, nbytes, root)
    owned = rd.owned.copy()
    owned.union_update(scatter.owned)
    return BcastResult(
        algorithm="scatter_rdbl",
        owned=owned,
        sends=rd.sends + scatter.sends,
        recvs=rd.recvs + scatter.recvs,
        redundant_recvs=0,
    )


def bcast_knomial4(ctx, nbytes: int, root: int = 0):
    """Radix-4 k-nomial tree (extension; see :mod:`.knomial`)."""
    from .knomial import bcast_knomial

    res = yield from bcast_knomial(ctx, nbytes, root, radix=4)
    return BcastResult(
        algorithm="knomial4",
        owned=ChunkSet.full(ctx.size),
        sends=res.sends,
        recvs=res.recvs,
        redundant_recvs=0,
    )


def bcast_chain_pipelined(ctx, nbytes: int, root: int = 0):
    """Pipelined chain with 64 KiB segments (extension; see :mod:`.chain`)."""
    from .chain import bcast_chain

    res = yield from bcast_chain(ctx, nbytes, root, segment_bytes=65536)
    return BcastResult(
        algorithm="chain",
        owned=ChunkSet.full(ctx.size),
        sends=res.sends,
        recvs=res.recvs,
        redundant_recvs=0,
    )


ALGORITHMS = {
    "binomial": bcast_binomial,
    "scatter_ring_native": bcast_scatter_ring_native,
    "scatter_ring_opt": bcast_scatter_ring_opt,
    "scatter_rdbl": bcast_scatter_rdbl,
    "knomial4": bcast_knomial4,
    "chain": bcast_chain_pipelined,
}


def get_algorithm(name: str):
    """Look up a broadcast algorithm by registry name."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise CollectiveError(
            f"unknown broadcast algorithm {name!r}; known: {sorted(ALGORITHMS)}"
        ) from None
