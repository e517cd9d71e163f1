"""Property tests for MPI ordering semantics on the timed runtime."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import Machine, MachineSpec, ideal
from repro.mpi import ANY_SOURCE, ANY_TAG, Job, RealBuffer


def run(machine, factory):
    return Job(machine, factory).run()


class TestNonOvertaking:
    @settings(deadline=None, max_examples=25)
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=20000), min_size=1, max_size=12),
        eager=st.integers(min_value=0, max_value=8192),
    )
    def test_same_channel_messages_arrive_in_send_order(self, sizes, eager):
        """Messages on one (src, dst, tag) channel are received in send
        order regardless of size mix (eager and rendezvous interleaved)."""
        machine = Machine(ideal(eager_threshold=eager), nranks=2)
        received = []

        def factory(ctx):
            def program():
                buf = RealBuffer(max(sizes) if sizes else 0)
                ctx.attach_buffer(buf)
                if ctx.rank == 0:
                    for n in sizes:
                        yield from ctx.send(1, n, tag=5)
                else:
                    for _ in sizes:
                        status = yield from ctx.recv(0, max(sizes), tag=5)
                        received.append(status.nbytes)

            return program()

        run(machine, factory)
        assert received == sizes

    def test_distinct_tags_can_be_received_out_of_order(self):
        # Eager sends: the sender does not wait, so the receiver is free
        # to pick tags in any order. (With rendezvous this pattern would
        # deadlock — see test below.)
        machine = Machine(ideal(eager_threshold=64), nranks=2)
        order = []

        def factory(ctx):
            def program():
                ctx.attach_buffer(RealBuffer(64))
                if ctx.rank == 0:
                    yield from ctx.send(1, 8, tag=1)
                    yield from ctx.send(1, 8, tag=2)
                else:
                    s2 = yield from ctx.recv(0, 64, tag=2)
                    order.append(s2.tag)
                    s1 = yield from ctx.recv(0, 64, tag=1)
                    order.append(s1.tag)

            return program()

        run(machine, factory)
        assert order == [2, 1]

    def test_rendezvous_tag_reversal_deadlocks(self):
        """The same pattern under rendezvous is a real deadlock: the
        blocking send of tag 1 waits for a receive the receiver will
        only post after tag 2 — which is never sent."""
        from repro.errors import DeadlockError

        machine = Machine(ideal(eager_threshold=0), nranks=2)

        def factory(ctx):
            def program():
                ctx.attach_buffer(RealBuffer(64))
                if ctx.rank == 0:
                    yield from ctx.send(1, 8, tag=1)
                    yield from ctx.send(1, 8, tag=2)
                else:
                    yield from ctx.recv(0, 64, tag=2)
                    yield from ctx.recv(0, 64, tag=1)

            return program()

        with pytest.raises(DeadlockError):
            run(machine, factory)

    def test_any_tag_takes_earliest(self):
        machine = Machine(ideal(), nranks=2)
        tags = []

        def factory(ctx):
            def program():
                ctx.attach_buffer(RealBuffer(64))
                if ctx.rank == 0:
                    for t in (4, 9, 2):
                        yield from ctx.send(1, 8, tag=t)
                else:
                    for _ in range(3):
                        status = yield from ctx.recv(0, 64, tag=ANY_TAG)
                        tags.append(status.tag)

            return program()

        run(machine, factory)
        assert tags == [4, 9, 2]

    @settings(deadline=None, max_examples=15)
    @given(n_senders=st.integers(min_value=1, max_value=6))
    def test_any_source_collects_everyone(self, n_senders):
        machine = Machine(ideal(), nranks=n_senders + 1)
        seen = []

        def factory(ctx):
            def program():
                ctx.attach_buffer(RealBuffer(16))
                if ctx.rank == 0:
                    for _ in range(n_senders):
                        status = yield from ctx.recv(ANY_SOURCE, 16)
                        seen.append(status.source)
                else:
                    yield from ctx.send(0, 8)

            return program()

        run(machine, factory)
        assert sorted(seen) == list(range(1, n_senders + 1))


class TestTaperedCoreIntegration:
    def _machine(self):
        """Two nodes whose fabric is one shared 1 GiB/s core: a taper of
        2**-11 on 2 nodes x 2**40 B/s NICs."""
        spec = MachineSpec(
            nodes=2,
            cores_per_node=4,
            topology="crossbar",
            topology_params={"core_taper": 2**-11},
            cpu_copy_bw=float(1 << 34),
            mem_bw=float(1 << 40),
            nic_bw=float(1 << 40),
            alpha_intra=1e-6,
            alpha_inter=1e-6,
            hop_latency=0.0,
            send_overhead=0.0,
            recv_overhead=0.0,
            rendezvous_rtt=0.0,
            eager_threshold=0,
        )
        return Machine(spec, nranks=8)

    def test_core_capacity_bounds_cross_traffic(self):
        """Four concurrent node0->node1 flows share the 1 GiB/s core."""
        machine = self._machine()
        n = 1 << 28  # 256 MiB each

        def factory(ctx):
            def program():
                if ctx.rank < 4:
                    yield from ctx.send(ctx.rank + 4, n)
                else:
                    yield from ctx.recv(ctx.rank - 4, n)

            return program()

        res = run(machine, factory)
        # 4 x 256MiB through 1 GiB/s => ~1 second.
        assert res.time == pytest.approx(1.0, rel=0.02)

    def test_intra_node_traffic_ignores_core(self):
        machine = self._machine()
        n = 1 << 28

        def factory(ctx):
            def program():
                if ctx.rank == 0:
                    yield from ctx.send(1, n)  # same node
                elif ctx.rank == 1:
                    yield from ctx.recv(0, n)

            return program()

        res = run(machine, factory)
        assert res.time < 0.1  # copy engines are 16 GiB/s here
