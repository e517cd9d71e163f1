"""Protocol-boundary tests: exactly-at-threshold behaviour and protocol
interaction with collective chunk sizes."""

from repro.collectives import SHORT_MSG_SIZE
from repro.machine import Machine, ideal
from repro.mpi import Job, RealBuffer
from repro.sim import Trace


def protocols_used(machine, sizes):
    """Run one send per size and return the protocol trace labels."""
    trace = Trace()

    def factory(ctx):
        def program():
            ctx.attach_buffer(RealBuffer(max(sizes)))
            if ctx.rank == 0:
                for n in sizes:
                    yield from ctx.send(1, n)
            else:
                for n in sizes:
                    yield from ctx.recv(0, max(sizes))

        return program()

    Job(machine, factory, trace=trace).run()
    return [r.protocol for r in trace.by_kind("send_launch")]


class TestThresholdBoundary:
    def test_at_threshold_is_eager(self):
        machine = Machine(ideal(eager_threshold=1000), nranks=2)
        assert protocols_used(machine, [999, 1000, 1001]) == [
            "eager",
            "eager",
            "rendezvous",
        ]

    def test_zero_bytes_always_eager(self):
        machine = Machine(ideal(eager_threshold=0), nranks=2)
        assert protocols_used(machine, [0]) == ["eager"]

    def test_threshold_zero_makes_everything_rendezvous(self):
        machine = Machine(ideal(eager_threshold=0), nranks=2)
        assert protocols_used(machine, [1]) == ["rendezvous"]


class TestChunkProtocolInteraction:
    """The ring's wire protocol follows the *chunk* size, not the
    message size — the effect behind Figure 7's strong 12288-byte case."""

    def _ring_protocols(self, P, nbytes, eager_threshold):
        from repro.collectives import bcast_scatter_ring_opt

        spec = ideal(nodes=2, cores_per_node=max(P, 2)).with_(
            eager_threshold=eager_threshold
        )
        machine = Machine(spec, nranks=P)
        trace = Trace()

        def factory(ctx):
            def program():
                return (yield from bcast_scatter_ring_opt(ctx, nbytes, 0))

            return program()

        Job(machine, factory, trace=trace).run()
        return {
            r.protocol
            for r in trace.by_kind("send_launch")
            if r.tag == 2  # ring phase only
        }

    def test_medium_message_rings_eagerly_at_npof2(self):
        # 12288 bytes over 9 ranks: 1366-byte chunks, all eager.
        assert self._ring_protocols(9, SHORT_MSG_SIZE, 8192) == {"eager"}

    def test_long_message_rings_rendezvous(self):
        # 1 MiB over 9 ranks: ~116 KiB chunks, all rendezvous.
        assert self._ring_protocols(9, 1 << 20, 8192) == {"rendezvous"}

    def test_protocol_mix_straddles_chunk_threshold(self):
        # Threshold placed inside the chunk-size range of an uneven
        # split: 9 chunks of 1366B and the clamped tail can mix only if
        # the threshold divides them; with 1365 the big chunks go
        # rendezvous while the short tail chunk stays eager.
        protocols = self._ring_protocols(9, SHORT_MSG_SIZE, 1365)
        assert protocols == {"eager", "rendezvous"}
