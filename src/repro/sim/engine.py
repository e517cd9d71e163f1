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
  Their heap entry is ``(time, seq, handle, None)``.

Determinism is a hard requirement (DESIGN.md §5): the engine never reads
the wall clock and never iterates over unordered containers, so two runs
with identical inputs produce identical event orders and timestamps.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from ..errors import SimulationError

__all__ = ["Engine", "EventHandle"]

_INF = float("inf")


class EventHandle:
    """Cancellation token for a scheduled event."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_engine")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable,
        args: tuple,
        engine: Optional["Engine"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        engine = self._engine
        self._engine = None
        if engine is not None:
            engine._alive -= 1

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<EventHandle t={self.time:.9g} {name} {state}>"


class Engine:
    """Virtual-time event loop."""

    def __init__(self) -> None:
        self._heap: list = []  # (time, seq, callback, args) entries
        self._now = 0.0
        self._seq = 0
        self._alive = 0  # not-cancelled events still in the heap
        self._running = False

    # -- clock ---------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling ------------------------------------------------------
    def post(self, delay: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` *delay* seconds from now; not cancellable."""
        if not 0.0 <= delay < _INF:  # NaN included
            raise SimulationError(f"event delay must be finite and >= 0, got {delay}")
        heapq.heappush(self._heap, (self._now + delay, self._seq, callback, args))
        self._seq += 1
        self._alive += 1

    def schedule(self, delay: float, callback: Callable, *args) -> EventHandle:
        """Run ``callback(*args)`` *delay* seconds from now; returns the
        handle that cancels it."""
        if not 0.0 <= delay < _INF:  # NaN included
            raise SimulationError(f"event delay must be finite and >= 0, got {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable, *args) -> EventHandle:
        """Run ``callback(*args)`` at absolute simulated *time*."""
        if not self._now <= time < _INF:  # NaN included
            raise SimulationError(
                f"cannot schedule at t={time}: times must be finite and "
                f"not before now={self._now}"
            )
        handle = EventHandle(time, self._seq, callback, args, engine=self)
        heapq.heappush(self._heap, (time, self._seq, handle, None))
        self._seq += 1
        self._alive += 1
        return handle

    # -- execution -------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event; False when the queue is empty."""
        heap = self._heap
        while heap:
            time, _seq, fn, args = heapq.heappop(heap)
            if args is None:  # a cancellable event: fn is its handle
                if fn.cancelled:
                    continue
                fn._engine = None  # a late cancel() must not decrement again
                fn, args = fn.callback, fn.args
            self._alive -= 1
            self._now = time
            fn(*args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue (optionally stopping at time *until*).

        Returns the final simulated time: *until* if live events remain
        beyond it, else the time of the last event fired. Re-entrant
        calls are rejected — callbacks must schedule follow-up events,
        not recurse into the loop.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        stop = _INF
        if until is not None:
            if not until >= self._now:  # NaN included
                raise SimulationError(
                    f"cannot run until t={until}, before now={self._now}"
                )
            stop = until
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                if heap[0][0] > stop:
                    if self._alive:  # live events remain beyond *until*
                        self._now = stop
                    break
                time, _seq, fn, args = pop(heap)
                if args is None:  # a cancellable event: fn is its handle
                    if fn.cancelled:
                        continue
                    fn._engine = None  # a late cancel() must not decrement again
                    fn, args = fn.callback, fn.args
                self._alive -= 1
                self._now = time
                fn(*args)
            return self._now
        finally:
            self._running = False

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return self._alive

    @property
    def empty(self) -> bool:
        return self._alive == 0
