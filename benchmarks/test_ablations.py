"""Ablations: which modelled effects the tuned ring's win depends on.

Not in the paper — these isolate the design choices DESIGN.md calls out:

* contention: widen every shared capacity (memory engines, fabric) until
  per-rank copy engines are the only bottleneck -> the win shrinks
  toward the structural minimum, confirming the gain lives in shared
  capacity;
* placement: blocked vs round-robin decides whether savings land on the
  memory engines or on the fabric;
* topology: dragonfly vs tapered crossbar vs ideal crossbar;
* eager threshold: protocol choice shifts absolute time but must not
  flip who wins.
"""

from repro.core import compare_bcast
from repro.machine import hornet
from repro.util import GIB, Table

from conftest import publish

NRANKS, NBYTES = 48, 2**20


def _gain(spec, placement="blocked"):
    cmp = compare_bcast(spec, NRANKS, NBYTES, placement=placement)
    return cmp.bandwidth_improvement_pct


def test_ablation_contention(benchmark):
    """Where the tuned ring's win comes from: shared-capacity relief.

    Two levels of sharing matter. Even with *infinite* node memory and
    fabric, each rank's own copy engine is shared between its concurrent
    send and receive, so half-duplex endpoints still gain. Adding
    realistic shared memory engines and a tapered fabric keeps the gain
    alive while the whole operation slows down (both designs contend) —
    so the *absolute* bandwidth recovered by the tuned ring is largest
    there, which is the paper's setting."""
    base = hornet(nodes=4)
    uncontended = base.with_(
        mem_bw=4096 * GIB,
        nic_bw=4096 * GIB,
        topology="crossbar",
        topology_params={},
    )
    rows = []
    for name, spec in (
        ("hornet (shared mem+fabric)", base),
        ("infinite mem+fabric (per-rank engines only)", uncontended),
    ):
        cmp = compare_bcast(spec, NRANKS, NBYTES)
        rows.append(
            (
                name,
                cmp.bandwidth_improvement_pct,
                cmp.opt.bandwidth_mib - cmp.native.bandwidth_mib,
            )
        )
    table = Table(
        ["machine", "opt gain %", "recovered MB/s"],
        formats=[None, "+.2f", "+.1f"],
        title=f"Ablation: contention (P={NRANKS}, 1MiB)",
    )
    for row in rows:
        table.add_row(*row)
    publish("ablation_contention", table.render())
    # The tuned design wins at both contention levels...
    assert all(gain > 0 for _, gain, _ in rows)
    # ...and per-rank engine sharing alone already explains a
    # comparable relative gain (the shared-capacity terms then scale it
    # to the realistic machine's absolute bandwidths).
    assert rows[0][1] > 0.5 and rows[1][1] > 0.5

    benchmark.pedantic(lambda: _gain(base), rounds=1, iterations=1)


def test_ablation_placement(benchmark):
    """Blocked placement (the paper's default) keeps most ring hops on
    the node memory engines, where the tuned ring's savings bite.
    Round-robin placement pushes every hop through the per-node NICs,
    which 24 concurrent ranks share regardless of design — the tuned
    advantage collapses to noise level (|gain| < 1%). This placement
    sensitivity is a real property of the algorithm, worth knowing
    before deploying it."""
    spec = hornet(nodes=4)
    rows = [(p, _gain(spec, placement=p)) for p in ("blocked", "round_robin")]
    table = Table(
        ["placement", "opt gain %"],
        formats=[None, "+.2f"],
        title=f"Ablation: rank placement (P={NRANKS}, 1MiB)",
    )
    for name, gain in rows:
        table.add_row(name, gain)
    publish("ablation_placement", table.render())
    gains = dict(rows)
    assert gains["blocked"] > 1.0  # the paper's setting: clear win
    assert gains["round_robin"] > -1.0  # never meaningfully slower

    benchmark.pedantic(lambda: rows, rounds=1, iterations=1)


def test_ablation_topology(benchmark):
    """Fabric topology under round-robin placement (every ring hop is
    inter-node, so the fabric actually carries the traffic)."""
    variants = {
        "dragonfly (hornet)": hornet(nodes=4),
        "tapered crossbar": hornet(
            nodes=4, topology="crossbar", topology_params={"core_taper": 0.3}
        ),
        "ideal crossbar": hornet(nodes=4, topology="crossbar", topology_params={}),
        "fat tree": hornet(
            nodes=4, topology="fattree", topology_params={"radix": 2, "uplink_taper": 0.5}
        ),
    }
    table = Table(
        ["topology", "native MB/s", "opt MB/s", "gain %"],
        formats=[None, ".0f", ".0f", "+.2f"],
        title=f"Ablation: fabric topology (P={NRANKS}, 1MiB, round_robin placement)",
    )
    gains = {}
    for name, spec in variants.items():
        cmp = compare_bcast(spec, NRANKS, NBYTES, placement="round_robin")
        gains[name] = cmp.bandwidth_improvement_pct
        table.add_row(
            name, cmp.native.bandwidth_mib, cmp.opt.bandwidth_mib, gains[name]
        )
    publish("ablation_topology", table.render())
    assert all(g >= -1.0 for g in gains.values())
    # A genuinely shared, undersized core (tapered crossbar) is where
    # removing redundant transfers pays most — the congestion mechanism
    # the paper argues. Full-bisection fabrics leave only the NICs,
    # which per-rank round-robin traffic saturates equally either way.
    assert gains["tapered crossbar"] > gains["ideal crossbar"] + 1.0

    benchmark.pedantic(
        lambda: compare_bcast(variants["dragonfly (hornet)"], NRANKS, NBYTES),
        rounds=1,
        iterations=1,
    )


def test_ablation_eager_threshold(benchmark):
    """Protocol switching must not flip the winner."""
    rows = []
    for thresh in (0, 8192, 1 << 20):
        spec = hornet(nodes=4, eager_threshold=thresh)
        rows.append((thresh, _gain(spec)))
    table = Table(
        ["eager threshold", "opt gain %"],
        formats=[None, "+.2f"],
        title=f"Ablation: eager/rendezvous threshold (P={NRANKS}, 1MiB)",
    )
    for thresh, gain in rows:
        table.add_row(thresh, gain)
    publish("ablation_eager", table.render())
    assert all(g > -0.5 for _, g in rows)

    benchmark.pedantic(lambda: rows[-1], rounds=1, iterations=1)
