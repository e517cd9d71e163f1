"""Discrete-event simulation engine: virtual clock plus an event heap.

The engine is deliberately tiny: the heap holds ``(time, seq, callback,
args)`` tuples popped in time order with FIFO tie-breaking via the
monotonically increasing sequence number. Tuple entries keep heap
comparisons in C (plain float/int comparisons) instead of calling a
Python ``__lt__`` per sift step — the heap is the hottest structure in a
sweep. Everything else in the simulator (message matching, fluid flows,
rank programs) is layered on top of :meth:`Engine.post` and
:meth:`Engine.schedule`.

Events come in two kinds that share one heap and one ``seq`` counter,
so the firing order (time, then FIFO) does not depend on the kind:

* :meth:`Engine.post` pushes a plain entry for an event nobody cancels
  (a message arrival, a rank resuming) and allocates nothing else;
* :meth:`Engine.schedule`/:meth:`Engine.schedule_at` return an
  :class:`EventHandle` for events that may be cancelled (the flow
  network's completion and re-solve events, retransmission timers).
  Their heap entry is ``(time, seq, handle, None)``. Cancelling only
  marks the handle: the entry stays queued, and the loop drops it when
  it reaches the top.

Determinism is a hard requirement (DESIGN.md §5): the engine never reads
the wall clock and never iterates over unordered containers, so two runs
with identical inputs produce identical event orders and timestamps.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional

from ..errors import SimulationError

__all__ = ["Engine", "EventHandle"]

_INF = float("inf")


class EventHandle:
    """Cancellation token for a scheduled event."""

    __slots__ = ("time", "callback", "args", "cancelled")

    def __init__(self, time: float, callback: Callable, args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call more than once, and
        a no-op once the event fired."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<EventHandle t={self.time:.9g} {name} {state}>"


class Engine:
    """Virtual-time event loop.

    ``now`` is the current simulated time in seconds. It is a plain
    attribute so that the per-event readers (the flow network, the
    replay frontier, the transports) pay no property call; only
    :meth:`run` advances it.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list = []  # (time, seq, callback, args) entries
        self._seq = 0
        self._running = False

    # -- scheduling ------------------------------------------------------
    def post(self, delay: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` *delay* seconds from now; not cancellable."""
        if not 0.0 <= delay < _INF:  # NaN included
            raise SimulationError(f"event delay must be finite and >= 0, got {delay}")
        seq = self._seq
        heappush(self._heap, (self.now + delay, seq, callback, args))
        self._seq = seq + 1

    def schedule(self, delay: float, callback: Callable, *args) -> EventHandle:
        """Run ``callback(*args)`` *delay* seconds from now; returns the
        handle that cancels it."""
        if not 0.0 <= delay < _INF:  # NaN included
            raise SimulationError(f"event delay must be finite and >= 0, got {delay}")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable, *args) -> EventHandle:
        """Run ``callback(*args)`` at absolute simulated *time*; returns the
        handle that cancels it."""
        if not self.now <= time < _INF:  # NaN included
            raise SimulationError(
                f"cannot schedule at t={time}: times must be finite and "
                f"not before now={self.now}"
            )
        handle = EventHandle(time, callback, args)
        seq = self._seq
        heappush(self._heap, (time, seq, handle, None))
        self._seq = seq + 1
        return handle

    # -- execution -------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue (optionally stopping at time *until*).

        Returns the final simulated time: *until* if live events remain
        beyond it, else the time of the last event fired. Re-entrant
        calls are rejected — callbacks must schedule follow-up events,
        not recurse into the loop.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        if until is not None and not until >= self.now:  # NaN included
            raise SimulationError(f"cannot run until t={until}, before now={self.now}")
        self._running = True
        heap = self._heap
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    if self.pending:  # live events remain beyond *until*
                        self.now = until
                    break
                time, _seq, fn, args = heappop(heap)
                if args is None:  # a cancellable event: fn is its handle
                    if fn.cancelled:
                        continue
                    fn, args = fn.callback, fn.args
                self.now = time
                fn(*args)
            return self.now
        finally:
            self._running = False

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(
            1 for _t, _s, fn, args in self._heap if args is not None or not fn.cancelled
        )

    @property
    def empty(self) -> bool:
        return not self.pending
