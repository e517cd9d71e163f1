"""Chunk-ownership tracking for scatter/allgather schedules.

A :class:`ChunkSet` records which of the ``P`` scatter chunks a rank
currently owns. It is the data structure behind the library's central
correctness invariants:

* after the binomial scatter, relative rank ``r`` owns exactly the
  contiguous-modulo-P interval ``[r, r + subtree(r))``;
* the tuned ring allgather never delivers a chunk the receiver already
  owns;
* at the end of any broadcast, every rank's set is full.

The implementation keeps a plain frozen bitmask (Python int) which is
compact and fast for the process counts the paper studies (P <= 1024).
"""

from __future__ import annotations

from ..errors import CollectiveError

__all__ = ["ChunkSet"]


class ChunkSet:
    """A mutable subset of ``{0, .., universe-1}`` chunk indices."""

    __slots__ = ("_universe", "_bits")

    def __init__(self, universe: int, initial=()):
        if universe < 1:
            raise CollectiveError(f"ChunkSet universe must be >= 1, got {universe}")
        self._universe = universe
        self._bits = 0
        for idx in initial:
            self.add(idx)

    # -- constructors -------------------------------------------------
    @classmethod
    def full(cls, universe: int) -> "ChunkSet":
        """The set owning every chunk (the root's state)."""
        cs = cls(universe)
        cs._bits = (1 << universe) - 1
        return cs

    @classmethod
    def interval(cls, universe: int, start: int, length: int) -> "ChunkSet":
        """Contiguous-modulo-universe interval ``[start, start+length)``."""
        if not 0 <= length <= universe:
            raise CollectiveError(f"interval length {length} outside [0, {universe}]")
        cs = cls(universe)
        for k in range(length):
            cs.add((start + k) % universe)
        return cs

    # -- accessors ----------------------------------------------------
    @property
    def universe(self) -> int:
        return self._universe

    def __len__(self) -> int:
        return bin(self._bits).count("1")

    def __contains__(self, idx: int) -> bool:
        self._check(idx)
        return bool(self._bits >> idx & 1)

    def __iter__(self):
        bits, idx = self._bits, 0
        while bits:
            if bits & 1:
                yield idx
            bits >>= 1
            idx += 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChunkSet):
            return NotImplemented
        return self._universe == other._universe and self._bits == other._bits

    def __hash__(self):
        return hash((self._universe, self._bits))

    def __repr__(self) -> str:
        return f"ChunkSet({self._universe}, {sorted(self)})"

    @property
    def is_full(self) -> bool:
        """True when every chunk in the universe is owned."""
        return self._bits == (1 << self._universe) - 1

    def missing(self) -> list:
        """Sorted list of chunk indices not yet owned."""
        return [i for i in range(self._universe) if not self._bits >> i & 1]

    # -- mutation -----------------------------------------------------
    def add(self, idx: int) -> bool:
        """Add chunk *idx*; returns True when it was newly added."""
        self._check(idx)
        before = self._bits
        self._bits |= 1 << idx
        return self._bits != before

    def add_strict(self, idx: int) -> None:
        """Add chunk *idx*, raising if it is already owned.

        Used by the tuned-ring invariant check: in ``MPI_Bcast_opt`` a
        rank must never be sent a chunk it already holds.
        """
        if not self.add(idx):
            raise CollectiveError(
                f"chunk {idx} delivered twice (already owned: {sorted(self)})"
            )

    def union_update(self, other: "ChunkSet") -> None:
        if other._universe != self._universe:
            raise CollectiveError("ChunkSet universes differ")
        self._bits |= other._bits

    def copy(self) -> "ChunkSet":
        cs = ChunkSet(self._universe)
        cs._bits = self._bits
        return cs

    # -- helpers ------------------------------------------------------
    def _check(self, idx: int) -> None:
        if not 0 <= idx < self._universe:
            raise CollectiveError(
                f"chunk index {idx} outside universe [0, {self._universe})"
            )
