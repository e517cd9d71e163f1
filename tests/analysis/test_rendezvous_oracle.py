"""Differential test of the synchronous-send deadlock pass.

The oracle is the timed DES: on a machine whose eager threshold is 0,
every message of at least one byte takes the rendezvous protocol, so a
:class:`~repro.mpi.Job` stalls (``DeadlockError``) exactly when some
send waits for a receive that is never posted. The pass must report a
deadlock on the same programs: every registry collective at P 2-9, and
random 2-4-rank programs of send/isend/recv/irecv/waitall without
wildcards (programs that deadlock even with buffered sends are dropped,
since extraction rejects them before the pass runs).
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.verify import (
    REGISTRY,
    check_rendezvous,
    verifiable_collectives,
)
from repro.collectives.schedule import extract_schedule
from repro.errors import DeadlockError
from repro.machine import Machine, ideal
from repro.mpi import Job

RECV_BYTES = 64  # every receive buffer; messages are 1..RECV_BYTES bytes


def des_deadlocks(nranks, factory):
    spec = dataclasses.replace(ideal(), eager_threshold=0)
    try:
        Job(Machine(spec, nranks=nranks), factory).run()
    except DeadlockError:
        return True
    return False


@pytest.mark.parametrize("nranks", range(2, 10))
def test_registry_agrees_with_rendezvous_des(nranks):
    for name in verifiable_collectives(nranks):
        build = REGISTRY[name].build
        report = check_rendezvous(extract_schedule(nranks, build(nranks, 4096, 0)))
        expect = des_deadlocks(nranks, build(nranks, 4096, 0))
        assert report.deadlocked == expect, (name, report.describe())


def script_factory(scripts):
    """Rank programs from per-rank op scripts (see :func:`draw_scripts`)."""

    def factory(ctx):
        def program():
            pending = []
            for op in scripts[ctx.rank]:
                kind = op[0]
                if kind == "send":
                    yield from ctx.send(op[1], op[3], tag=op[2])
                elif kind == "isend":
                    pending.append((yield from ctx.isend(op[1], op[3], tag=op[2])))
                elif kind == "recv":
                    yield from ctx.recv(op[1], RECV_BYTES, tag=op[2])
                elif kind == "irecv":
                    pending.append((yield from ctx.irecv(op[1], RECV_BYTES, tag=op[2])))
                else:  # ("wait", positions in the outstanding list)
                    yield from ctx.waitall([pending[i] for i in op[1]])
                    pending = [r for i, r in enumerate(pending) if i not in op[1]]
            if pending:
                yield from ctx.waitall(pending)

        return program()

    return factory


def draw_scripts(draw, nranks):
    """Random messages, each a send (blocking or not) at its source and,
    mostly, a receive (blocking or not) at its destination, shuffled per
    rank, with waitalls over random subsets of the outstanding requests."""
    scripts = {r: [] for r in range(nranks)}
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        src = draw(st.integers(min_value=0, max_value=nranks - 1))
        dst = draw(st.integers(min_value=0, max_value=nranks - 2))
        dst += dst >= src
        tag = draw(st.integers(min_value=0, max_value=2))
        nbytes = draw(st.integers(min_value=1, max_value=RECV_BYTES))
        scripts[src].append((draw(st.sampled_from(["send", "isend"])), dst, tag, nbytes))
        if draw(st.integers(min_value=0, max_value=5)):  # else never received
            scripts[dst].append((draw(st.sampled_from(["recv", "irecv"])), src, tag))
    for rank in range(nranks):
        ops, outstanding = [], 0
        for op in draw(st.permutations(scripts[rank])):
            ops.append(op)
            outstanding += op[0] in ("isend", "irecv")
            if outstanding and draw(st.booleans()):
                members = draw(
                    st.lists(
                        st.integers(min_value=0, max_value=outstanding - 1),
                        min_size=1,
                        max_size=outstanding,
                        unique=True,
                    )
                )
                ops.append(("wait", tuple(members)))
                outstanding -= len(members)
        scripts[rank] = ops
    return scripts


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_random_programs_agree_with_rendezvous_des(data):
    nranks = data.draw(st.integers(min_value=2, max_value=4))
    scripts = draw_scripts(data.draw, nranks)
    try:
        report = check_rendezvous(extract_schedule(nranks, script_factory(scripts)))
    except DeadlockError:
        assume(False)  # deadlocks with buffered sends: not this pass's job
    expect = des_deadlocks(nranks, script_factory(scripts))
    assert report.deadlocked == expect, report.describe()
