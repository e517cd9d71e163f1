"""Edge-case tests for the flow network: batching, caps, registry reuse."""

import pytest

from repro.sim import Engine, FlowNetwork, Resource


class TestDeferredResolve:
    def test_flush_is_idempotent(self):
        eng = Engine()
        net = FlowNetwork(eng)
        link = Resource("l", 10.0)
        net.add_flow(100.0, [link])
        net.flush()
        net.flush()  # second flush: no pending event, must be a no-op
        eng.run()
        assert net.completed_count == 1

    def test_batched_adds_one_solve(self):
        """Flows added in the same instant resolve together and still
        finish at the exact fair-share times."""
        eng = Engine()
        net = FlowNetwork(eng)
        link = Resource("l", 100.0)
        done = {}
        for name, size in (("a", 500.0), ("b", 1500.0)):
            net.add_flow(
                size, [link], on_complete=lambda f, n=name: done.setdefault(n, eng.now)
            )
        eng.run()
        assert done["a"] == pytest.approx(10.0)
        assert done["b"] == pytest.approx(20.0)

    def test_add_at_later_time_accrues_progress_first(self):
        eng = Engine()
        net = FlowNetwork(eng)
        link = Resource("l", 100.0)
        done = {}
        net.add_flow(1000.0, [link], on_complete=lambda f: done.setdefault("a", eng.now))
        eng.schedule(
            5.0,
            lambda: net.add_flow(
                250.0, [link], on_complete=lambda f: done.setdefault("b", eng.now)
            ),
        )
        eng.run()
        # a: 500B done by t=5; shares 50/50 until b's 250B finish at
        # t=10; a's last 250B then run at full rate: done at t=12.5.
        assert done["b"] == pytest.approx(10.0)
        assert done["a"] == pytest.approx(12.5)


class TestRegistryAndPaths:
    def test_identical_path_tuples_share_id_arrays(self):
        eng = Engine()
        net = FlowNetwork(eng)
        link = Resource("l", 100.0)
        path = (link,)
        f1 = net.add_flow(10.0, path)
        f2 = net.add_flow(10.0, path)
        # One registered path class, shared by both flows.
        assert f1.path_class == f2.path_class
        assert net._class_paths == [(0,)]
        eng.run()

    def test_resources_shared_across_networks(self):
        """A machine reused by two jobs presents the same Resource
        objects to two different FlowNetworks; ids are per-network."""
        link = Resource("l", 100.0)
        for _ in range(2):
            eng = Engine()
            net = FlowNetwork(eng)
            done = {}
            net.add_flow(1000.0, [link], on_complete=lambda f: done.setdefault("x", eng.now))
            eng.run()
            assert done["x"] == pytest.approx(10.0)
            assert net.active_count == 0

    def test_duplicate_resource_in_path_counts_twice(self):
        """Listing a resource twice on a path charges it double — the
        idiom for a memcpy's read+write crossing one memory engine."""
        eng = Engine()
        net = FlowNetwork(eng)
        mem = Resource("mem", 100.0)
        done = {}
        net.add_flow(
            500.0, [mem, mem], on_complete=lambda f: done.setdefault("x", eng.now)
        )
        eng.run()
        # Effective rate 50 B/s: 500B in 10s.
        assert done["x"] == pytest.approx(10.0)


class TestCapsAndMixtures:
    def test_capped_and_uncapped_mix(self):
        eng = Engine()
        net = FlowNetwork(eng)
        link = Resource("l", 100.0)
        fa = net.add_flow(1e4, [link], rate_cap=10.0)
        fb = net.add_flow(1e4, [link])
        net.flush()
        assert fa.rate == pytest.approx(10.0)
        assert fb.rate == pytest.approx(90.0)  # takes the leftovers
        eng.run()

    def test_all_capped_leaves_slack(self):
        eng = Engine()
        net = FlowNetwork(eng)
        link = Resource("l", 100.0)
        flows = [net.add_flow(1e4, [link], rate_cap=20.0) for _ in range(3)]
        net.flush()
        for f in flows:
            assert f.rate == pytest.approx(20.0)
        eng.run()
