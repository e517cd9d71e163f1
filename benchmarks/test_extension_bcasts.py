"""Extension benches: the broadcast-algorithm tournament and the
composition of the tuned ring into allreduce.

Beyond the paper's native/tuned comparison, the library implements the
neighbouring design space (binomial, k-nomial, pipelined chain,
recursive doubling). These benches place the paper's two protagonists
inside that space for small/medium/large messages, sweep the k-nomial
radix and chain segment size, and measure how much of the tuned ring's
win survives composition into allreduce.
"""

from repro.collectives import (
    allreduce_reduce_bcast,
    bcast_chain,
    bcast_knomial,
    bcast_scatter_ring_native,
    bcast_scatter_ring_opt,
)
from repro.core import simulate_bcast
from repro.machine import Machine, hornet
from repro.mpi import Job
from repro.util import Table, format_size

from conftest import publish

P = 48
SPEC = hornet(nodes=4)
TOURNAMENT = ["binomial", "knomial4", "chain", "scatter_ring_native", "scatter_ring_opt"]


def test_bcast_tournament(benchmark):
    sizes = [4096, 65536, 1 << 20, 1 << 23]
    table = Table(
        ["msg size"] + TOURNAMENT,
        formats=[None] + [".1f"] * len(TOURNAMENT),
        title=f"Broadcast tournament, np={P} (times in us)",
    )
    times = {}
    for size in sizes:
        row = [format_size(size)]
        for name in TOURNAMENT:
            t = simulate_bcast(SPEC, P, size, algorithm=name).time
            times[(size, name)] = t
            row.append(t * 1e6)
        table.add_row(*row)
    publish("extension_tournament", table.render())

    # Structural expectations: the tree wins tiny messages; the tuned
    # ring is the best scatter-allgather at every size and beats the
    # binomial tree for long messages.
    assert times[(4096, "binomial")] < times[(4096, "scatter_ring_native")]
    for size in sizes:
        assert (
            times[(size, "scatter_ring_opt")]
            <= times[(size, "scatter_ring_native")] * (1 + 1e-9)
        )
    assert times[(1 << 23, "scatter_ring_opt")] < times[(1 << 23, "binomial")]

    benchmark.pedantic(
        lambda: simulate_bcast(SPEC, P, 1 << 20, algorithm="scatter_ring_opt").time,
        rounds=1,
        iterations=1,
    )


def _timed(algo, nbytes, **kw):
    machine = Machine(SPEC, nranks=P)

    def factory(ctx):
        def program():
            return (yield from algo(ctx, nbytes, 0, **kw))

        return program()

    return Job(machine, factory, working_set=nbytes).run().time


def test_knomial_radix_sweep(benchmark):
    """Radix ablation: higher radix trades depth against root fan-out."""
    sizes = [4096, 1 << 20]
    radices = [2, 3, 4, 8]
    table = Table(
        ["msg size"] + [f"k={k}" for k in radices],
        formats=[None] + [".1f"] * len(radices),
        title=f"k-nomial radix sweep, np={P} (times in us)",
    )
    results = {}
    for size in sizes:
        row = [format_size(size)]
        for k in radices:
            t = _timed(bcast_knomial, size, radix=k)
            results[(size, k)] = t
            row.append(t * 1e6)
        table.add_row(*row)
    publish("extension_knomial_radix", table.render())
    # Large messages: radix 2 minimises the serialised root payload.
    assert results[(1 << 20, 2)] == min(results[(1 << 20, k)] for k in radices)

    benchmark.pedantic(lambda: _timed(bcast_knomial, 1 << 20, radix=2), rounds=1, iterations=1)


def test_chain_segment_sweep(benchmark):
    """Pipeline-depth ablation: too few segments serialise the chain,
    too many pay per-message latency; the optimum sits between."""
    nbytes = 1 << 22
    segments = [nbytes, nbytes // 8, nbytes // 64, 4096]
    table = Table(
        ["segment", "time (us)"],
        formats=[None, ".1f"],
        title=f"chain segment sweep, np={P}, msg={format_size(nbytes)}",
    )
    times = {}
    for seg in segments:
        t = _timed(bcast_chain, nbytes, segment_bytes=seg)
        times[seg] = t
        table.add_row(format_size(seg), t * 1e6)
    publish("extension_chain_segments", table.render())
    best = min(times, key=times.get)
    assert best not in (segments[0],)  # unsegmented never optimal here

    benchmark.pedantic(
        lambda: _timed(bcast_chain, nbytes, segment_bytes=nbytes // 8),
        rounds=1,
        iterations=1,
    )


def test_allreduce_composition(benchmark):
    """The tuned ring's gain survives composition into allreduce."""
    nbytes = 1 << 21
    t_native = _timed(
        allreduce_reduce_bcast, nbytes, bcast=bcast_scatter_ring_native
    )
    t_opt = _timed(allreduce_reduce_bcast, nbytes, bcast=bcast_scatter_ring_opt)
    gain = (t_native / t_opt - 1) * 100
    publish(
        "extension_allreduce",
        f"allreduce(reduce + bcast) of {format_size(nbytes)}, np={P}:\n"
        f"  with native ring bcast: {t_native * 1e6:.1f}us\n"
        f"  with tuned  ring bcast: {t_opt * 1e6:.1f}us  (+{gain:.1f}%)",
    )
    assert t_opt <= t_native * (1 + 1e-9)

    benchmark.pedantic(
        lambda: _timed(allreduce_reduce_bcast, nbytes), rounds=1, iterations=1
    )
