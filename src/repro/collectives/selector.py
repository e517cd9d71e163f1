"""MPICH3 broadcast algorithm selection.

The thresholds come straight from the paper (Section V): 12288 bytes
switches short -> medium, 524288 bytes switches medium -> long; MPICH
additionally keeps the binomial tree whenever fewer than 8 processes
participate. The decision table is:

=========================  ==========================================
message / communicator      algorithm
=========================  ==========================================
short, or < 8 processes     binomial tree
medium and power-of-two     scatter + recursive-doubling allgather
medium and non-pof2         scatter + **ring** allgather  (mmsg-npof2)
long (any process count)    scatter + **ring** allgather  (lmsg)
=========================  ==========================================

The two bold rows are exactly the regime the paper tunes: with
``tuned=True`` the selector returns the non-enclosed (opt) ring variant
there and is otherwise identical.
"""

from __future__ import annotations

from ..errors import CollectiveError
from ..util import is_power_of_two

__all__ = [
    "SHORT_MSG_SIZE",
    "LONG_MSG_SIZE",
    "MIN_PROCS",
    "classify_message",
    "choose_bcast_name",
    "is_ring_regime",
]

SHORT_MSG_SIZE = 12288  # bytes: short/medium boundary (MPICH3 default)
LONG_MSG_SIZE = 524288  # bytes: medium/long boundary (MPICH3 default)
MIN_PROCS = 8  # below this MPICH always uses the binomial tree


def classify_message(nbytes: int) -> str:
    """The paper's size classes: ``"short" | "medium" | "long"``."""
    if nbytes < 0:
        raise CollectiveError(f"negative message size {nbytes}")
    if nbytes < SHORT_MSG_SIZE:
        return "short"
    if nbytes < LONG_MSG_SIZE:
        return "medium"
    return "long"


def choose_bcast_name(nbytes: int, size: int, tuned: bool = False, faults=None) -> str:
    """Registry name of the algorithm MPICH3 would pick.

    ``tuned=True`` swaps the ring rows for the paper's optimised ring.
    ``faults`` (a :class:`~repro.sim.faults.FaultPlan`) enables graceful
    degradation: both ring allgathers thread a dependency through every
    rank, so one crashed rank wedges the whole ring — whenever the plan
    marks any rank crashed, the ring rows fall back to the binomial
    tree, which only loses the subtree below the dead rank.
    """
    if size < 1:
        raise CollectiveError(f"communicator size must be >= 1, got {size}")
    cls = classify_message(nbytes)
    if cls == "short" or size < MIN_PROCS:
        name = "binomial"
    elif cls == "medium" and is_power_of_two(size):
        name = "scatter_rdbl"
    else:
        name = "scatter_ring_opt" if tuned else "scatter_ring_native"
    if (
        faults is not None
        and name.startswith("scatter_ring")
        and faults.crashed_ranks()
    ):
        return "binomial"
    return name


def is_ring_regime(nbytes: int, size: int) -> bool:
    """True in the lmsg / mmsg-npof2 regime the paper optimises."""
    return choose_bcast_name(nbytes, size).startswith("scatter_ring")
