"""Closed-form and measured traffic accounting.

Section IV of the paper argues entirely in transfer counts; this module
provides those numbers three ways, which the tests cross-validate:

1. closed form (this file's formulas),
2. schedule extraction (running the real algorithm generators through
   the zero-time executor),
3. DES counters (the timed run's :class:`TrafficCounters`).

Key formulas (ring phase only, P >= 2):

* native:  ``P * (P - 1)`` transfers;
* tuned:   ``P * (P - 1) - (S - P)`` where ``S = sum of binomial-subtree
  sizes`` — every non-leaf subtree root of size ``e`` lets its left
  neighbour skip ``e - 1`` sends;
* both phases also pay the binomial scatter's ``P - 1`` transfers
  (fewer when trailing chunks are empty).

These are the package's only closed forms of the counts: the broadcast
certificates of :mod:`repro.analysis.certify` prove them for every P
and cross-validate executed rings against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..collectives import (
    extract_schedule,
    get_algorithm,
    subtree_chunks,
)
from ..collectives.scatter import span_bytes
from ..errors import CollectiveError

__all__ = [
    "subtree_sum",
    "ring_transfers_native",
    "ring_transfers_tuned",
    "transfers_saved",
    "scatter_transfers",
    "total_transfers",
    "ring_bytes_native",
    "ring_bytes_tuned",
    "TrafficReport",
    "measure_traffic",
]


def _check_p(nprocs: int) -> None:
    if nprocs < 1:
        raise CollectiveError(f"need nprocs >= 1, got {nprocs}")


def subtree_sum(nprocs: int) -> int:
    """S = sum over ranks of binomial-subtree chunk counts."""
    _check_p(nprocs)
    return sum(subtree_chunks(r, nprocs) for r in range(nprocs))


def ring_transfers_native(nprocs: int) -> int:
    """Enclosed-ring transfer count: P x (P - 1)."""
    _check_p(nprocs)
    return nprocs * (nprocs - 1)


def transfers_saved(nprocs: int) -> int:
    """Transfers the tuned ring eliminates: S - P (= 12 at P=8, 15 at P=10)."""
    _check_p(nprocs)
    return subtree_sum(nprocs) - nprocs


def ring_transfers_tuned(nprocs: int) -> int:
    """Non-enclosed-ring transfer count."""
    return ring_transfers_native(nprocs) - transfers_saved(nprocs)


def scatter_transfers(nprocs: int, nbytes: Optional[int] = None) -> int:
    """Binomial-scatter transfer count.

    Structurally P - 1; with a concrete *nbytes*, zero-byte subtrees are
    skipped (MPICH behaviour), so the count can be lower for tiny
    buffers.
    """
    _check_p(nprocs)
    if nprocs == 1:
        return 0
    if nbytes is None:
        return nprocs - 1
    count = 0
    # A subtree rooted at relative rank r receives iff its span holds bytes.
    for r in range(1, nprocs):
        if span_bytes(nbytes, nprocs, r, subtree_chunks(r, nprocs)) > 0:
            count += 1
    return count


def total_transfers(nprocs: int, tuned: bool, nbytes: Optional[int] = None) -> int:
    """Scatter + ring transfers for the full broadcast."""
    _check_p(nprocs)
    if nprocs == 1:
        return 0
    ring = ring_transfers_tuned(nprocs) if tuned else ring_transfers_native(nprocs)
    return scatter_transfers(nprocs, nbytes) + ring


def ring_bytes_native(nprocs: int, nbytes: int) -> int:
    """Wire bytes of the enclosed ring: every chunk travels P-1 hops."""
    _check_p(nprocs)
    return (nprocs - 1) * nbytes


def ring_bytes_tuned(nprocs: int, nbytes: int) -> int:
    """Wire bytes of the tuned ring.

    A receive-only endpoint with role step ``s`` skips its last ``s - 1``
    sends; the skipped send at ring iteration ``i`` would have carried
    chunk ``(rel - i + 1) mod P``.
    """
    from ..collectives import tuned_ring_role

    _check_p(nprocs)
    total = ring_bytes_native(nprocs, nbytes)
    for rel in range(nprocs):
        step, flag = tuned_ring_role(rel, nprocs)
        if flag != 1:
            continue
        for i in range(nprocs - step + 1, nprocs):
            chunk = (rel - i + 1) % nprocs
            total -= span_bytes(nbytes, nprocs, chunk, 1)
    return total


@dataclass(frozen=True)
class TrafficReport:
    """Measured traffic of one algorithm at one point."""

    algorithm: str
    nprocs: int
    nbytes: int
    transfers: int
    ring_transfers: int
    scatter_transfers: int
    wire_bytes: int
    intra: Optional[int] = None
    inter: Optional[int] = None


def measure_traffic(
    algorithm: str, nprocs: int, nbytes: int, root: int = 0, placement=None
) -> TrafficReport:
    """Extract the real schedule and tally its traffic."""
    algo = get_algorithm(algorithm)

    def factory(ctx):
        def program():
            return (yield from algo(ctx, nbytes, root))

        return program()

    schedule = extract_schedule(nprocs, factory, placement=placement)
    ring = sum(1 for s in schedule.sends if s.tag == 2)
    rd = sum(1 for s in schedule.sends if s.tag == 3)
    scatter = sum(1 for s in schedule.sends if s.tag == 1)
    intra = inter = None
    if placement is not None:
        intra, inter = schedule.transfers_by_level()
    return TrafficReport(
        algorithm=algorithm,
        nprocs=nprocs,
        nbytes=nbytes,
        transfers=schedule.transfers,
        ring_transfers=ring + rd,
        scatter_transfers=scatter,
        wire_bytes=schedule.total_bytes,
        intra=intra,
        inter=inter,
    )
