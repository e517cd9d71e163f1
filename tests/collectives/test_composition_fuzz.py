"""Composition fuzz: random chains of collectives in one program.

Real applications issue sequences of collectives back to back (the
SUMMA example does bcast-bcast-compute in a loop). This fuzz draws a
random chain — mixed roots, sizes and operations — and runs it through
the zero-time executor and the timed DES, checking both complete
without deadlock and agree on the transfer count. Distinct per-phase
tags plus communicator translation must keep adjacent collectives from
cross-matching, whatever the order.
"""

from hypothesis import given, settings, strategies as st

from repro.collectives import (
    allgatherv_ring,
    allreduce_reduce_bcast,
    barrier,
    bcast_binomial,
    bcast_chain,
    bcast_knomial,
    bcast_scatter_ring_native,
    bcast_scatter_ring_opt,
    gather,
    reduce,
    reduce_scatter_ring,
    scan_recursive_doubling,
)
from repro.collectives.schedule import extract_schedule
from repro.machine import Machine, ideal
from repro.mpi import Job


def _ops(P):
    """(name, generator-factory(draw)) pairs usable at any P."""
    return [
        ("barrier", lambda d: lambda ctx: barrier(ctx)),
        (
            "bcast_binomial",
            lambda d: lambda ctx, n=d("n"), r=d("root"): bcast_binomial(ctx, n, r),
        ),
        (
            "bcast_ring_native",
            lambda d: lambda ctx, n=d("n"), r=d("root"): bcast_scatter_ring_native(
                ctx, n, r
            ),
        ),
        (
            "bcast_ring_opt",
            lambda d: lambda ctx, n=d("n"), r=d("root"): bcast_scatter_ring_opt(
                ctx, n, r
            ),
        ),
        (
            "bcast_knomial3",
            lambda d: lambda ctx, n=d("n"), r=d("root"): bcast_knomial(
                ctx, n, r, radix=3
            ),
        ),
        (
            "bcast_chain",
            lambda d: lambda ctx, n=d("n"), r=d("root"): bcast_chain(
                ctx, n, r, segment_bytes=257
            ),
        ),
        ("gather", lambda d: lambda ctx, n=d("n"), r=d("root"): gather(ctx, n // 4 + 1, r)),
        ("reduce", lambda d: lambda ctx, n=d("n"), r=d("root"): reduce(ctx, n, r)),
        (
            "reduce_scatter_ring",
            lambda d: lambda ctx, n=d("n"): reduce_scatter_ring(ctx, n),
        ),
        (
            "allgatherv",
            lambda d: lambda ctx, n=d("n"): allgatherv_ring(
                ctx, [(n + i) % 97 for i in range(ctx.size)]
            ),
        ),
        (
            "allreduce",
            lambda d: lambda ctx, n=d("n"): allreduce_reduce_bcast(ctx, n),
        ),
        ("scan_rd", lambda d: lambda ctx, n=d("n"): scan_recursive_doubling(ctx, n)),
    ]


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_random_collective_chains(data):
    P = data.draw(st.integers(min_value=2, max_value=9), label="P")
    chain_len = data.draw(st.integers(min_value=1, max_value=5), label="len")
    ops = _ops(P)
    chain = []
    for _ in range(chain_len):
        name, make = data.draw(st.sampled_from(ops))

        def draw_param(kind, P=P):
            if kind == "n":
                return data.draw(st.integers(min_value=0, max_value=2000))
            return data.draw(st.integers(min_value=0, max_value=P - 1))

        chain.append((name, make(draw_param)))

    def factory(ctx):
        def program():
            for _name, gen in chain:
                yield from gen(ctx)
            return "done"

        return program()

    sched = extract_schedule(P, factory)
    assert sched.rank_results == ["done"] * P

    des = Job(Machine(ideal(), nranks=P), factory).run()
    assert des.rank_results == ["done"] * P
    assert des.counters.messages == sched.transfers, [n for n, _ in chain]
