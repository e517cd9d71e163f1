"""Relative-rank and binomial-subtree math shared by every algorithm.

All broadcast algorithms in MPICH operate on *relative ranks*:
``relative_rank = (rank - root + P) % P``, so the root is always
relative rank 0. The binomial scatter tree over relative ranks assigns
each rank a contiguous chunk interval; its extent (``subtree_chunks``)
is also exactly the ``step`` value the tuned ring's mask rule computes,
which is why both live here.
"""

from __future__ import annotations

from typing import Tuple

from ..errors import CollectiveError
from ..util import next_power_of_two

__all__ = [
    "relative_rank",
    "subtree_chunks",
    "scatter_ownership_extent",
    "tuned_ring_role",
]


def _check(size: int, root: int) -> None:
    if size < 1:
        raise CollectiveError(f"communicator size must be >= 1, got {size}")
    if not 0 <= root < size:
        raise CollectiveError(f"root {root} outside [0, {size})")


def relative_rank(rank: int, root: int, size: int) -> int:
    """``(rank - root) mod size``; the root maps to 0."""
    _check(size, root)
    if not 0 <= rank < size:
        raise CollectiveError(f"rank {rank} outside [0, {size})")
    return (rank - root + size) % size


def subtree_chunks(rel: int, size: int) -> int:
    """Chunks owned by relative rank *rel* after the binomial scatter.

    The scatter tree hands relative rank ``rel`` the contiguous chunk
    interval ``[rel, rel + subtree_chunks(rel, size))``. The root owns
    everything; a non-root rank's extent is its branch mask (the bit on
    which it received), clamped to the communicator size:

    * P=8:  extents are [8, 1, 2, 1, 4, 1, 2, 1]
    * P=10: extents are [10, 1, 2, 1, 4, 1, 2, 1, 2, 1]
    """
    if size < 1:
        raise CollectiveError(f"size must be >= 1, got {size}")
    if not 0 <= rel < size:
        raise CollectiveError(f"relative rank {rel} outside [0, {size})")
    if rel == 0:
        return size
    # The bit at which `rel` branches off the tree: its lowest set bit.
    mask = rel & -rel
    return min(mask, size - rel)


# A rank's scatter ownership is exactly its subtree extent.
scatter_ownership_extent = subtree_chunks


def tuned_ring_role(rel: int, size: int) -> Tuple[int, int]:
    """The ``(step, flag)`` pair from Listing 1 of the paper.

    Scanning masks downward from ``2**ceil(log2 P)``, the first rank
    condition that fires decides the role:

    * ``flag = 1`` (receive-only endpoint): the rank's *right neighbour*
      is a subtree root — once the neighbour's missing chunks are
      delivered, this rank stops sending. It stops for the final
      ``step - 1`` ring iterations.
    * ``flag = 0`` (send-only endpoint): the rank itself is a subtree
      root owning ``step`` chunks from the scatter — it already holds
      what the last ``step - 1`` iterations would deliver, so it stops
      receiving.

    ``step`` equals ``subtree_chunks`` of the relevant subtree root.
    """
    if size < 1:
        raise CollectiveError(f"size must be >= 1, got {size}")
    if not 0 <= rel < size:
        raise CollectiveError(f"relative rank {rel} outside [0, {size})")
    if size == 1:
        return (1, 0)
    mask = next_power_of_two(size)
    while mask > 1:
        right_rel = rel + 1 if rel + 1 < size else rel + 1 - size
        if right_rel % mask == 0:
            step = mask
            if right_rel + mask > size:
                step = size - right_rel
            return (step, 1)
        if rel % mask == 0:
            step = mask
            if rel + mask > size:
                step = size - rel
            return (step, 0)
        mask >>= 1
    raise CollectiveError(
        f"mask scan failed for rel={rel}, size={size}"
    )  # pragma: no cover - unreachable: mask=2 always fires for some rank
