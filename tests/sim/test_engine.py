"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import Engine


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_events_fire_in_time_order(self):
        eng = Engine()
        fired = []
        eng.schedule(3.0, fired.append, "c")
        eng.schedule(1.0, fired.append, "a")
        eng.schedule(2.0, fired.append, "b")
        eng.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_fifo(self):
        eng = Engine()
        fired = []
        for label in "abcde":
            eng.schedule(1.0, fired.append, label)
        eng.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        eng = Engine()
        seen = []
        eng.schedule(2.5, lambda: seen.append(eng.now))
        final = eng.run()
        assert seen == [2.5]
        assert final == 2.5

    def test_schedule_at_absolute(self):
        eng = Engine()
        seen = []
        eng.schedule_at(4.0, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [4.0]

    def test_negative_delay_rejected(self):
        eng = Engine()
        for method in (eng.schedule, eng.post):
            with pytest.raises(SimulationError):
                method(-1.0, lambda: None)

    def test_schedule_into_past_rejected(self):
        eng = Engine()
        eng.schedule(5.0, lambda: eng.schedule_at(1.0, lambda: None))
        with pytest.raises(SimulationError):
            eng.run()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_time_rejected(self, value):
        # NaN passes every `< 0` check, and an event at inf leaves the
        # clock there: either used to hang the flow network.
        eng = Engine()
        for method in (eng.post, eng.schedule, eng.schedule_at):
            with pytest.raises(SimulationError, match="finite"):
                method(value, lambda: None)
        assert eng.empty and eng.now == 0.0

    def test_callbacks_can_schedule(self):
        eng = Engine()
        fired = []

        def first():
            fired.append("first")
            eng.schedule(1.0, lambda: fired.append("second"))

        eng.schedule(1.0, first)
        final = eng.run()
        assert fired == ["first", "second"]
        assert final == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        fired = []
        handle = eng.schedule(1.0, fired.append, "x")
        handle.cancel()
        eng.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        eng = Engine()
        handle = eng.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        eng.run()

    def test_pending_ignores_cancelled(self):
        eng = Engine()
        h1 = eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        assert eng.pending == 2
        h1.cancel()
        assert eng.pending == 1
        assert not eng.empty

    def test_repeated_cancel_decrements_once(self):
        eng = Engine()
        h = eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        h.cancel()
        h.cancel()
        h.cancel()
        assert eng.pending == 1

    def test_cancel_after_fire_keeps_count_consistent(self):
        eng = Engine()
        h = eng.schedule(1.0, lambda: None)
        eng.run()
        assert eng.pending == 0
        h.cancel()  # stale token: must not underflow the live counter
        assert eng.pending == 0
        assert eng.empty

    def test_pending_tracks_fires(self):
        eng = Engine()
        eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        assert eng.pending == 2
        eng.run(until=1.0)
        assert eng.pending == 1
        eng.run(until=2.0)
        assert eng.pending == 0


class TestRun:
    def test_run_until_stops_early(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, fired.append, "a")
        eng.schedule(5.0, fired.append, "b")
        final = eng.run(until=2.0)
        assert fired == ["a"]
        assert final == 2.0
        # Remaining event still fires on the next run.
        eng.run()
        assert fired == ["a", "b"]

    def test_run_until_before_now_rejected(self):
        eng = Engine()
        eng.schedule(5.0, lambda: None)
        eng.post(10.0, lambda: None)
        assert eng.run(until=5.0) == 5.0
        for until in (1.0, float("nan")):
            with pytest.raises(SimulationError, match="before now"):
                eng.run(until=until)
        assert eng.now == 5.0  # the clock never moves backwards
        assert eng.run() == 10.0

    def test_run_not_reentrant(self):
        eng = Engine()
        errors = []

        def recurse():
            try:
                eng.run()
            except SimulationError as exc:
                errors.append(exc)

        eng.schedule(1.0, recurse)
        eng.run()
        assert len(errors) == 1


@given(
    events=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.sampled_from(["post", "schedule"]),
            st.booleans(),  # cancel the handle (schedule only)
        ),
        min_size=1,
        max_size=60,
    ),
    cut=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
def test_property_fire_order_sorted_and_clock_monotone(events, cut):
    """Both event kinds fire in (time, insertion) order and cancelled
    handles never fire; pending/empty count both kinds; run(until=)
    stops correctly whichever kind is at the top of the heap."""
    live = sorted(
        (delay, i)
        for i, (delay, method, cancel) in enumerate(events)
        if method == "post" or not cancel
    )

    def build():
        eng = Engine()
        fired = []
        handles = []

        def fire(i):
            fired.append((eng.now, i))

        for i, (delay, method, cancel) in enumerate(events):
            if method == "post":
                assert eng.post(delay, fire, i) is None
            else:
                handle = eng.schedule(delay, fire, i)
                if cancel:
                    handles.append(handle)
        for handle in handles:
            handle.cancel()
        return eng, fired

    eng, fired = build()
    assert eng.pending == len(live) and eng.empty == (not live)
    before = [e for e in live if e[0] <= cut]
    final = eng.run(until=cut)
    assert fired == before
    assert eng.pending == len(live) - len(before)
    if len(before) < len(live):
        assert final == cut
    else:
        assert final == (live[-1][0] if live else 0.0)
    assert eng.now == final
    assert eng.run() == (live[-1][0] if live else 0.0)
    assert fired == live and eng.empty


@given(
    seed_delays=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_property_determinism(seed_delays):
    def run_once():
        eng = Engine()
        order = []
        for i, d in enumerate(seed_delays):
            eng.schedule(d, order.append, (d, i))
        eng.run()
        return order

    assert run_once() == run_once()
