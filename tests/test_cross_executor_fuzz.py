"""Cross-executor fuzz: random message patterns must behave identically
on the timed DES, the zero-time schedule executor and the real-thread
backend — and random registry collectives must replay bitwise on the
vectorized engine.

The pattern generator builds deadlock-free programs (eager sends first,
then receives) with randomised sizes, tags and peers; each executor runs
the *same* generators. Agreement checked: per-rank received byte totals
and source multisets, and total message counts. The DES-vs-replay fuzz
draws (collective, P, nbytes) cells — non-power-of-two ranks and
non-divisible sizes included — and demands exact equality of makespan,
per-rank finish times and every wire counter; for the certified
broadcasts it also demands that the schedule emitted from the
certificate equals the extracted one and replays the same way.
"""

from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.backends import ThreadBackend
from repro.collectives.schedule import ScheduleExecutor
from repro.machine import Machine, hornet, ideal
from repro.mpi import ANY_SOURCE, ANY_TAG, Job


def make_pattern(draw, nranks):
    """Random (src, dst, nbytes, tag) list with src != dst."""
    n_msgs = draw(st.integers(min_value=0, max_value=20))
    msgs = []
    for _ in range(n_msgs):
        src = draw(st.integers(min_value=0, max_value=nranks - 1))
        dst = draw(st.integers(min_value=0, max_value=nranks - 1))
        if src == dst:
            dst = (dst + 1) % nranks
        nbytes = draw(st.integers(min_value=0, max_value=4096))
        tag = draw(st.integers(min_value=0, max_value=3))
        msgs.append((src, dst, nbytes, tag))
    return msgs


def build_factory(nranks, msgs):
    """Sends first (eager), then wildcard receives: deadlock-free."""
    outgoing = {r: [] for r in range(nranks)}
    incoming_count = Counter()
    for src, dst, nbytes, tag in msgs:
        outgoing[src].append((dst, nbytes, tag))
        incoming_count[dst] += 1

    def factory(ctx):
        def program():
            received = []
            for dst, nbytes, tag in outgoing[ctx.rank]:
                yield from ctx.send(dst, nbytes, tag=tag)
            for _ in range(incoming_count[ctx.rank]):
                status = yield from ctx.recv(ANY_SOURCE, 4096, tag=ANY_TAG)
                received.append((status.source, status.nbytes))
            return sorted(received)

        return program()

    return factory


def expected_receipts(nranks, msgs):
    out = {r: [] for r in range(nranks)}
    for src, dst, nbytes, _tag in msgs:
        out[dst].append((src, nbytes))
    return {r: sorted(v) for r, v in out.items()}


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_three_executors_agree(data):
    nranks = data.draw(st.integers(min_value=2, max_value=6))
    msgs = make_pattern(data.draw, nranks)
    expected = expected_receipts(nranks, msgs)

    # 1. Zero-time schedule executor.
    sched = ScheduleExecutor(nranks, build_factory(nranks, msgs)).run()
    assert {r: sched.rank_results[r] for r in range(nranks)} == expected
    assert sched.transfers == len(msgs)

    # 2. Timed DES (eager threshold above every size: no rendezvous
    # deadlock for the sends-first pattern).
    machine = Machine(ideal(eager_threshold=8192), nranks=nranks)
    des = Job(machine, build_factory(nranks, msgs)).run()
    assert {r: des.rank_results[r] for r in range(nranks)} == expected
    assert des.counters.messages == len(msgs)

    # 3. Real threads.
    backend = ThreadBackend(nranks, build_factory(nranks, msgs), timeout=30.0)
    results = backend.run()
    assert {r: results[r] for r in range(nranks)} == expected
    assert backend.message_count == len(msgs)


# Non-divisible and boundary sizes: remainder chunks in the scatter
# phases, eager/rendezvous threshold crossings (hornet threshold: 8192),
# zero-padding edge cases. All but the empty message chosen to not
# divide typical P.
FUZZ_SIZES = (0, 1, 37, 511, 4097, 8192, 8193, 12288, 65537)


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_des_and_replay_engines_agree(data):
    """Random (collective, P, nbytes, root): replay must match the DES
    bitwise, and so must the emitted schedule of a certified collective."""
    from repro.analysis.replaygate import _counters_dict, schedule_diff
    from repro.analysis.verify import REGISTRY
    from repro.collectives.emit import EMITTED, emit_schedule
    from repro.collectives.schedule import extract_schedule
    from repro.errors import ReplayUnsupportedError
    from repro.sim.replay import ReplayEngine, compile_schedule

    name = data.draw(st.sampled_from(sorted(REGISTRY)))
    nranks = data.draw(st.integers(min_value=2, max_value=17))
    collective = REGISTRY[name]
    assume(collective.supports(nranks))
    nbytes = data.draw(st.sampled_from(FUZZ_SIZES))
    root = data.draw(st.integers(min_value=0, max_value=nranks - 1))
    spec_factory = data.draw(st.sampled_from([ideal, hornet]))

    schedule = extract_schedule(nranks, collective.build(nranks, nbytes, root))
    try:
        compiled = compile_schedule(schedule)
    except ReplayUnsupportedError:
        # A legitimate fallback cell (wildcard receives etc.), not a bug.
        assume(False)

    des = Job(
        Machine(spec_factory(), nranks=nranks),
        collective.build(nranks, nbytes, root),
        working_set=nbytes,
    ).run()
    schedules = [compiled]
    if name in EMITTED:
        emitted = emit_schedule(name, nranks, nbytes, root)
        assert schedule_diff(compiled, emitted) == ""
        schedules.append(emitted)
    for replayed in schedules:
        rep = ReplayEngine(
            Machine(spec_factory(), nranks=nranks), replayed, working_set=nbytes
        ).run()
        assert rep.time == des.time
        assert list(rep.rank_finish_times) == list(des.rank_finish_times)
        assert _counters_dict(rep.counters) == _counters_dict(des.counters)
        assert rep.flows_completed == des.flows_completed
