"""Extent-recursion savings arithmetic: the oracle for ``core.traffic``.

:mod:`repro.core.traffic` holds the one closed form of the paper's
Section IV counts, and the broadcast certificates of
:mod:`repro.analysis.certify` prove them for every P. This module
derives the same numbers another way, from the shape of the binomial
scatter tree alone, without enumerating ranks or ring roles. Relative
rank 0 owns all ``P`` chunks and each child split recurses, so the sum
of subtree extents ``S(P)`` obeys

    S(1) = 1
    S(P) = P + sum over child offsets m in {h, h/2, ..., 1}, m < P,
               of S(min(m, P - m)),        h = largest power of two < P
               (h = P/2 when P is itself a power of two)

because the child subtree at offset ``m`` spans ``min(m, P - m)``
consecutive relative ranks and is itself a binomial scatter tree of
that size. A subtree root of extent ``e`` receives ``e - 1`` chunks it
already holds, so the tuned ring saves ``sum(e - 1) = S - P``
transfers: 12 at P=8 (56 -> 44) and 15 at P=10 (90 -> 75).

Byte totals follow the extents too: every chunk travels ``P - 1`` ring
hops, and the tuned ring drops, for each subtree root ``r`` of extent
``e > 1``, the bytes of chunks ``[r + 1, r + e)``, short and empty
trailing chunks included. ``tests/analysis/test_symbolic.py`` holds
``core.traffic`` and the extracted schedules to these.
"""

from functools import lru_cache

from repro.collectives.scatter import span_bytes
from repro.core.traffic import transfers_saved
from repro.util import next_power_of_two


def _child_offsets(nprocs):
    """Binomial child offsets ``h, h/2, ..., 1`` below *nprocs*."""
    offsets = []
    m = next_power_of_two(nprocs) // 2
    while m >= 1:
        if m < nprocs:
            offsets.append(m)
        m //= 2
    return offsets


@lru_cache(maxsize=None)
def subtree_sum(nprocs):
    """``S(P)``, the sum of binomial-subtree extents, via the recurrence."""
    if nprocs == 1:
        return 1
    return nprocs + sum(
        subtree_sum(min(m, nprocs - m)) for m in _child_offsets(nprocs)
    )


def subtree_extents(nprocs):
    """Per-relative-rank extents from the tree recursion alone."""
    extents = [0] * nprocs

    def fill(base, size):
        extents[base] = size
        for m in _child_offsets(size):
            fill(base + m, min(m, size - m))

    fill(0, nprocs)
    return extents


def savings(nprocs):
    """Transfers the tuned ring eliminates: ``S(P) - P``."""
    return subtree_sum(nprocs) - nprocs


def ring_bytes_saved(nprocs, nbytes):
    """Wire bytes the tuned ring never ships: the spans ``[r + 1, r + e)``
    the ring would redeliver to each subtree root ``r`` of extent ``e``."""
    total = 0
    for rel, extent in enumerate(subtree_extents(nprocs)):
        if extent > 1:
            total += span_bytes(nbytes, nprocs, rel + 1, extent - 1)
    return total


def ring_bytes(nprocs, nbytes, tuned):
    """Ring wire bytes: ``P - 1`` hops per chunk, less the saved spans."""
    native = (nprocs - 1) * nbytes
    return native - ring_bytes_saved(nprocs, nbytes) if tuned else native


def scatter_bytes(nprocs, nbytes):
    """Binomial-scatter wire bytes: each non-root subtree root receives
    its whole span exactly once."""
    extents = subtree_extents(nprocs)
    return sum(
        span_bytes(nbytes, nprocs, rel, extents[rel]) for rel in range(1, nprocs)
    )


def bcast_bytes(nprocs, nbytes, tuned):
    """Total wire bytes of the scatter-ring broadcast (both phases)."""
    if nprocs == 1:
        return 0
    return scatter_bytes(nprocs, nbytes) + ring_bytes(nprocs, nbytes, tuned)


def savings_failures(lo, hi, pins):
    """Each P in ``[lo, hi]`` where the recurrence, the summed extents and
    ``core.traffic.transfers_saved`` disagree, or where the savings miss
    the value *pins* maps P to. Empty means every derivation held."""
    failures = []
    for nprocs in range(lo, hi + 1):
        derived = {
            "S - P by recurrence": savings(nprocs),
            "sum of extent - 1": sum(e - 1 for e in subtree_extents(nprocs)),
            "core.traffic": transfers_saved(nprocs),
        }
        if len(set(derived.values())) != 1:
            failures.append(f"P={nprocs}: derivations disagree: {derived}")
        pinned = pins.get(nprocs)
        if pinned is not None and transfers_saved(nprocs) != pinned:
            failures.append(
                f"P={nprocs}: savings {transfers_saved(nprocs)} != pinned {pinned}"
            )
    return failures
