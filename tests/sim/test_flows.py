"""Tests for the max-min fair fluid-flow network."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Engine, FlowNetwork, Resource


def make_net():
    eng = Engine()
    return eng, FlowNetwork(eng)


def run_and_collect(eng, net, flows_spec):
    """Start flows at t=0 and return {name: completion_time}."""
    done = {}
    for name, nbytes, resources, cap in flows_spec:
        net.add_flow(
            nbytes,
            resources,
            on_complete=lambda f, n=name: done.setdefault(n, eng.now),
            rate_cap=cap,
        )
    eng.run()
    return done


class TestSingleFlow:
    def test_transfer_time_is_bytes_over_capacity(self):
        eng, net = make_net()
        link = Resource("link", 100.0)
        done = run_and_collect(eng, net, [("f", 1000.0, [link], None)])
        assert math.isclose(done["f"], 10.0)

    def test_zero_byte_flow_completes_at_now(self):
        eng, net = make_net()
        link = Resource("link", 100.0)
        done = run_and_collect(eng, net, [("f", 0.0, [link], None)])
        assert done["f"] == 0.0

    def test_rate_cap_binds_below_capacity(self):
        eng, net = make_net()
        link = Resource("link", 100.0)
        done = run_and_collect(eng, net, [("f", 100.0, [link], 10.0)])
        assert math.isclose(done["f"], 10.0)

    def test_negative_bytes_rejected(self):
        eng, net = make_net()
        with pytest.raises(SimulationError):
            net.add_flow(-1.0, [Resource("r", 1.0)])

    def test_bad_rate_cap_rejected(self):
        eng, net = make_net()
        with pytest.raises(SimulationError):
            net.add_flow(1.0, [Resource("r", 1.0)], rate_cap=0.0)

    def test_resource_requires_positive_capacity(self):
        with pytest.raises(SimulationError):
            Resource("r", 0.0)

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf")])
    def test_resource_requires_finite_capacity(self, capacity):
        with pytest.raises(SimulationError):
            Resource("r", capacity)

    def test_nan_rate_cap_rejected(self):
        eng, net = make_net()
        with pytest.raises(SimulationError):
            net.add_flow(1.0, [Resource("r", 1.0)], rate_cap=float("nan"))


class TestFairSharing:
    def test_two_equal_flows_halve_the_link(self):
        eng, net = make_net()
        link = Resource("link", 100.0)
        done = run_and_collect(
            eng,
            net,
            [("a", 1000.0, [link], None), ("b", 1000.0, [link], None)],
        )
        assert math.isclose(done["a"], 20.0)
        assert math.isclose(done["b"], 20.0)

    def test_short_flow_finishes_then_long_speeds_up(self):
        # a:500B and b:1500B share 100B/s. a done at t=10 (rate 50);
        # b then gets the full link: 1000B left / 100 => done at t=20.
        eng, net = make_net()
        link = Resource("link", 100.0)
        done = run_and_collect(
            eng,
            net,
            [("a", 500.0, [link], None), ("b", 1500.0, [link], None)],
        )
        assert math.isclose(done["a"], 10.0)
        assert math.isclose(done["b"], 20.0)

    def test_disjoint_paths_do_not_interact(self):
        eng, net = make_net()
        l1, l2 = Resource("l1", 100.0), Resource("l2", 100.0)
        done = run_and_collect(
            eng,
            net,
            [("a", 1000.0, [l1], None), ("b", 500.0, [l2], None)],
        )
        assert math.isclose(done["a"], 10.0)
        assert math.isclose(done["b"], 5.0)

    def test_maxmin_bottleneck_example(self):
        """Classic: flows {a: L1, b: L1+L2, c: L2}, cap(L1)=100, cap(L2)=40.

        Max-min: b and c bottleneck on L2 at 20 each; a then takes the L1
        leftovers: 80.
        """
        eng, net = make_net()
        l1, l2 = Resource("l1", 100.0), Resource("l2", 40.0)
        net._advance()  # no-op; exercise idempotence
        rates = {}

        def snap(name):
            def cb(flow):
                rates[name] = flow.rate

            return cb

        fa = net.add_flow(8000.0, [l1], meta="a")
        fb = net.add_flow(8000.0, [l1, l2], meta="b")
        fc = net.add_flow(8000.0, [l2], meta="c")
        # Inspect solved rates after adding all three (one batched solve).
        net.flush()
        assert math.isclose(fb.rate, 20.0, rel_tol=1e-6)
        assert math.isclose(fc.rate, 20.0, rel_tol=1e-6)
        assert math.isclose(fa.rate, 80.0, rel_tol=1e-6)
        eng.run()

    def test_no_resource_oversubscribed_while_running(self):
        eng, net = make_net()
        shared = Resource("shared", 60.0)
        other = Resource("other", 100.0)
        flows = [
            net.add_flow(1000.0, [shared]),
            net.add_flow(1000.0, [shared, other]),
            net.add_flow(700.0, [other]),
        ]
        net.flush()
        total_shared = sum(f.rate for f in flows[:2])
        total_other = sum(f.rate for f in flows[1:])
        assert total_shared <= shared.capacity * (1 + 1e-9)
        assert total_other <= other.capacity * (1 + 1e-9)
        # At least one resource is saturated (work conservation).
        assert (
            total_shared >= shared.capacity * (1 - 1e-9)
            or total_other >= other.capacity * (1 - 1e-9)
        )
        eng.run()

    def test_cancel_flow_releases_capacity(self):
        eng, net = make_net()
        link = Resource("link", 100.0)
        done = {}
        fa = net.add_flow(1000.0, [link], on_complete=lambda f: done.setdefault("a", eng.now))
        fb = net.add_flow(1000.0, [link], on_complete=lambda f: done.setdefault("b", eng.now))
        eng.schedule(5.0, net.cancel_flow, fb)
        eng.run()
        # a: 5s at 50B/s = 250B, then 750B at 100B/s = 7.5s -> t=12.5.
        assert math.isclose(done["a"], 12.5)
        assert "b" not in done

    def test_cancel_unknown_flow_is_noop(self):
        eng, net = make_net()
        link = Resource("link", 100.0)
        f = net.add_flow(10.0, [link])
        eng.run()
        net.cancel_flow(f)  # already finished; must not raise


class TestAccounting:
    def test_counters(self):
        eng, net = make_net()
        link = Resource("link", 100.0)
        net.add_flow(100.0, [link])
        net.add_flow(50.0, [link])
        eng.run()
        assert net.completed_count == 2
        assert math.isclose(net.total_bytes_transferred, 150.0)
        assert net.active_count == 0

    def test_flow_meta_passthrough(self):
        eng, net = make_net()
        seen = []
        net.add_flow(
            1.0, [Resource("r", 1.0)], meta=("rank", 3), on_complete=lambda f: seen.append(f.meta)
        )
        eng.run()
        assert seen == [("rank", 3)]


@settings(deadline=None, max_examples=60)
@given(
    data=st.data(),
    n_resources=st.integers(min_value=1, max_value=5),
    n_flows=st.integers(min_value=1, max_value=12),
)
def test_property_maxmin_invariants(data, n_resources, n_flows):
    """For random topologies: feasibility + at least one tight constraint
    per flow (the max-min optimality certificate)."""
    eng = Engine()
    net = FlowNetwork(eng)
    resources = [
        Resource(f"r{i}", data.draw(st.floats(min_value=1.0, max_value=1000.0)))
        for i in range(n_resources)
    ]
    flows = []
    for i in range(n_flows):
        path_idx = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n_resources - 1),
                min_size=1,
                max_size=n_resources,
                unique=True,
            )
        )
        cap = data.draw(
            st.one_of(st.none(), st.floats(min_value=0.5, max_value=500.0))
        )
        flows.append(
            net.add_flow(1e6, [resources[j] for j in path_idx], rate_cap=cap)
        )
    net.flush()

    def crossing(res):
        """The started flows whose paths cross *res*."""
        return [f for f in flows if any(r is res for r in f.resources)]

    # Feasibility: no resource above capacity.
    for res in resources:
        assert sum(f.rate for f in crossing(res)) <= res.capacity * (1 + 1e-6)
    # Positivity and caps.
    for f in flows:
        assert f.rate > 0.0
        if f.rate_cap is not None:
            assert f.rate <= f.rate_cap * (1 + 1e-6)
    # Max-min certificate: every flow is blocked by a saturated resource
    # where it has a maximal rate, or by its own cap.
    for f in flows:
        capped = f.rate_cap is not None and f.rate >= f.rate_cap * (1 - 1e-6)
        bottlenecked = False
        for res in f.resources:
            used = sum(g.rate for g in crossing(res))
            if used >= res.capacity * (1 - 1e-6) and f.rate >= max(
                g.rate for g in crossing(res)
            ) * (1 - 1e-6):
                bottlenecked = True
                break
        assert capped or bottlenecked
