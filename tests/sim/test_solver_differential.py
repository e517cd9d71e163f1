"""Differential and bookkeeping tests for the incremental fluid solver.

The component-tracking :class:`~repro.sim.flows.FlowNetwork` must be
*bitwise* equivalent to the from-scratch
:class:`~tests.sim.reference_solver.ReferenceFlowNetwork`: same rates
after every change, same completion order, same simulated timestamps.
The hypothesis test drives randomized add/cancel/complete churn through
both and compares everything observable; the unit tests pin down the
component tracking and the per-flow removal bookkeeping directly.

The DES and replay run one data plane with one scalar water-filling
kernel, :func:`repro.sim.flows.water_fill`, so ``repro replay --grid``
does not cross-check its arithmetic. :func:`numpy_water_fill` — the vectorised
kernel both engines used to run — is the oracle instead: the scalar
kernel must reproduce its rates bit for bit, its round counts and its
errors, standalone and under whole-simulation churn.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Engine, FlowNetwork, Resource, SolverStats
from repro.sim import flows
from repro.sim.flows import water_fill
from repro.sim.replay import clear_solve_memo

from .reference_solver import ReferenceFlowNetwork

CAPACITIES = [100.0, 250.0, 400.0, 150.0, 900.0, 60.0]
INF = float("inf")


def numpy_water_fill(paths, capacities, rate_caps):
    """Vectorised progressive filling: the reference for :func:`water_fill`.

    Same signature and results as the scalar kernel; the body is the
    numpy kernel the solver ran before it, unchanged apart from turning
    the plain-list inputs into arrays.
    """
    n = len(paths)
    caps_array = np.asarray(capacities, dtype=float)
    id_arrays = [np.asarray(p, dtype=np.int64) for p in paths]
    lengths = np.fromiter((len(a) for a in id_arrays), dtype=np.int64, count=n)
    flat = id_arrays[0] if n == 1 else np.concatenate(id_arrays)
    pair_flow = np.repeat(np.arange(n), lengths)
    # Compact the component's resources to local ids 0..m-1.
    uniq, pair_res = np.unique(flat, return_inverse=True)
    m = int(uniq.shape[0])
    caps_local = caps_array[uniq]
    fixed_load = np.zeros(m)  # sum of already-fixed rates per resource
    pending = np.bincount(pair_res, minlength=m)
    rate_caps = np.asarray(rate_caps, dtype=float)
    fixed = np.zeros(n, dtype=bool)
    rates = np.zeros(n, dtype=float)
    pair_live = np.ones(pair_flow.shape[0], dtype=bool)
    rounds = 0

    while not fixed.all():
        rounds += 1
        pending_mask = pending > 0
        if pending_mask.any():
            levels = np.where(
                pending_mask,
                (caps_local - fixed_load) / np.maximum(pending, 1),
                np.inf,
            )
            level_min = float(levels.min())
            if level_min < 0.0:
                level_min = 0.0  # float dust: resource already over-filled
        else:
            levels = None
            level_min = np.inf
        cap_min = float(rate_caps[~fixed].min())
        level = level_min if level_min < cap_min else cap_min
        if not np.isfinite(level):
            raise SimulationError("flow without binding constraint")

        newly = np.zeros(n, dtype=bool)
        if levels is not None and level_min <= level:
            saturated = pending_mask & (levels <= level)
            if saturated.any():
                hit = saturated[pair_res] & pair_live
                if hit.any():
                    newly[pair_flow[hit]] = True
        newly |= rate_caps <= level
        newly &= ~fixed
        if not newly.any():
            # Numerical corner: nothing bound this round. Fix all
            # remaining flows at the current level to terminate.
            newly = ~fixed
        rates[newly] = level
        fixed |= newly
        dead = newly[pair_flow] & pair_live
        if dead.any():
            dead_res = pair_res[dead]
            pending -= np.bincount(dead_res, minlength=m)
            fixed_load += np.bincount(
                dead_res, weights=np.full(dead_res.shape[0], level), minlength=m
            )
            pair_live &= ~dead

    return rates.tolist(), rounds


def _bits(obj):
    """*obj* with every float as its hex string: equality becomes bitwise."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (list, tuple)):
        return [_bits(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    return obj


def _outcome(kernel, paths, capacities, rate_caps):
    try:
        rates, rounds = kernel(paths, capacities, rate_caps)
    except SimulationError as exc:
        return ("error", str(exc))
    return (_bits(rates), rounds)


# Resource capacities in three families: the hornet preset's engine and
# fabric bandwidths, arbitrary reals, and small integers (which make
# exact ties between resource levels and rate caps common).
_GIB = float(1 << 30)
_CAPACITY_FAMILIES = [
    st.sampled_from([5.0 * _GIB, 40.0 * _GIB, 10.0 * _GIB, 3.5 * _GIB]),
    st.floats(min_value=1.0, max_value=1e11),
    st.integers(min_value=1, max_value=100).map(float),
]


@st.composite
def _components(draw):
    """One contention component shaped like the simulator's: 1-40 flows
    whose paths cross 0-9 resources (repeats allowed), rate caps absent,
    derived from one copy bandwidth the way ``Machine.copy_rate_cap``
    derives them, or arbitrary."""
    n_res = draw(st.integers(min_value=1, max_value=30))
    family = draw(st.sampled_from(_CAPACITY_FAMILIES))
    capacities = draw(st.lists(family, min_size=n_res, max_size=n_res))
    n = draw(st.integers(min_value=1, max_value=40))
    paths = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=n_res - 1), max_size=9),
            min_size=n,
            max_size=n,
        )
    )
    copy_bw = draw(st.floats(min_value=1.0, max_value=1e10))
    caps = draw(
        st.sampled_from(
            [
                st.just(INF),
                st.sampled_from([INF, copy_bw, copy_bw * 0.55, copy_bw * 0.55 * 0.7]),
                st.one_of(st.just(INF), st.floats(min_value=1.0, max_value=1e10)),
            ]
        )
    )
    rate_caps = draw(st.lists(caps, min_size=n, max_size=n))
    return paths, capacities, rate_caps


class TestScalarKernel:
    """The scalar kernel reproduces the numpy kernel bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(_components())
    def test_matches_numpy_kernel_bitwise(self, component):
        assert _outcome(water_fill, *component) == _outcome(
            numpy_water_fill, *component
        )

    def test_fixed_load_is_repeated_addition_not_a_product(self):
        """Six flows fixed at one level charge their resource
        ``0.0 + level + ... + level``, as the weighted bincount did;
        ``6 * level`` rounds differently and moves the remaining rates."""
        cap = 489656307.9259635
        paths = [[0]] * 8
        rate_caps = [cap] * 6 + [INF] * 2
        rates, rounds = water_fill(paths, [1e10], rate_caps)
        assert rates == [cap] * 6 + [3531031076.22211] * 2
        assert rounds == 2
        assert (1e10 - 6 * cap) / 2 == 3531031076.2221093
        assert _outcome(numpy_water_fill, paths, [1e10], rate_caps) == (
            _bits(rates),
            rounds,
        )

    def test_unbound_flow_raises_like_numpy(self):
        for kernel in (water_fill, numpy_water_fill):
            with pytest.raises(SimulationError, match="without binding constraint"):
                kernel([[0], []], [100.0], [INF, INF])


def _assert_component_map(net):
    """The production network's resource -> component map is exact:
    every resource of a component maps back to it, and every mapped
    resource names a live component that holds it."""
    for c, res in net._comp_res.items():
        for rid in res:
            assert net._res_comp[rid] == c
    for rid, c in net._res_comp.items():
        assert c in net._comp_flows and rid in net._comp_res[c]


def _run_script(script, network=FlowNetwork, check=None):
    """Execute one churn script on a fresh *network*; return observables.

    ``script`` is a list of operations, each a tuple:

    * ``("add", delay, nbytes, res_indices, rate_cap)``
    * ``("cancel", delay, flow_ordinal)`` — cancel the n-th added flow
      (modulo adds so far) if it is still active;
    * ``("probe", delay)`` — snapshot every active flow's rate.

    Delays are relative to the previous operation, so the script replays
    identically on both networks. ``check(net)``, when given, runs at
    every probe.
    """
    eng = Engine()
    net = network(eng)
    resources = [Resource(f"r{i}", c) for i, c in enumerate(CAPACITIES)]
    added = []
    completions = []
    probes = []
    at = 0.0
    for op in script:
        kind, delay = op[0], op[1]
        at += delay
        if kind == "add":
            _, _, nbytes, res_idx, cap = op

            def do_add(nbytes=nbytes, res_idx=res_idx, cap=cap):
                tag = len(added)
                flow = net.add_flow(
                    nbytes,
                    [resources[i] for i in res_idx],
                    rate_cap=cap,
                    on_complete=lambda f, tag=tag: completions.append(
                        (tag, eng.now)
                    ),
                    meta=tag,
                )
                added.append(flow)

            eng.schedule(at - eng.now if at > eng.now else 0.0, do_add)
        elif kind == "cancel":
            _, _, ordinal = op

            def do_cancel(ordinal=ordinal):
                if added:
                    net.cancel_flow(added[ordinal % len(added)])

            eng.schedule(at - eng.now if at > eng.now else 0.0, do_cancel)
        else:  # probe

            def do_probe():
                net.flush()
                if check is not None:
                    check(net)
                probes.append(
                    tuple(sorted((f.meta, f.rate) for f in net.active))
                )

            eng.schedule(at - eng.now if at > eng.now else 0.0, do_probe)
    eng.run()
    return {
        "completions": completions,
        "probes": probes,
        "final_time": eng.now,
        "completed": net.completed_count,
        "bytes": net.total_bytes_transferred,
    }


_add_op = st.tuples(
    st.just("add"),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=1.0, max_value=1e5, allow_nan=False),
    st.lists(
        st.integers(min_value=0, max_value=len(CAPACITIES) - 1),
        min_size=1,
        max_size=4,
    ),
    st.one_of(st.none(), st.floats(min_value=1.0, max_value=500.0)),
)
_cancel_op = st.tuples(
    st.just("cancel"),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    st.integers(min_value=0, max_value=63),
)
_probe_op = st.tuples(
    st.just("probe"), st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
)


class TestDifferential:
    """The incremental and reference networks are observably identical."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(_add_op, _cancel_op, _probe_op), max_size=24))
    def test_randomized_churn_is_bitwise_identical(self, script):
        inc = _run_script(script, check=_assert_component_map)
        ref = _run_script(script, ReferenceFlowNetwork)
        # Same completion order at the same (bitwise) timestamps.
        assert inc["completions"] == ref["completions"]
        # Same rate assignment at every probe point.
        assert inc["probes"] == ref["probes"]
        assert inc["final_time"] == ref["final_time"]
        assert inc["completed"] == ref["completed"]
        assert inc["bytes"] == ref["bytes"]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(_add_op, _cancel_op, _probe_op), max_size=24))
    def test_numpy_kernel_churn_is_bitwise_identical(self, script):
        scalar = _run_script(script)
        with mock.patch.object(flows, "water_fill", numpy_water_fill):
            vectorised = _run_script(script)
        assert _bits(scalar) == _bits(vectorised)

    def test_replay_with_numpy_kernel_is_bitwise_identical(self):
        """Replay's data plane (solve memo cold) under either kernel."""
        from repro.core import simulate_bcast
        from repro.machine import hornet

        spec = hornet(nodes=4)
        clear_solve_memo()
        scalar = simulate_bcast(spec, 12, 1 << 20, algorithm="scatter_ring_opt")
        clear_solve_memo()
        try:
            with mock.patch.object(
                flows, "water_fill", side_effect=numpy_water_fill
            ) as kernel:
                vectorised = simulate_bcast(
                    spec, 12, 1 << 20, algorithm="scatter_ring_opt"
                )
        finally:
            clear_solve_memo()
        assert kernel.call_count > 0
        assert scalar.engine == "replay"
        assert scalar.time.hex() == vectorised.time.hex()
        assert scalar == vectorised

    def test_bcast_simulation_is_bitwise_identical(self, monkeypatch):
        from repro.core import api, simulate_bcast
        from repro.machine import hornet
        from repro.mpi import runtime

        # Force the DES: this differential is about its solver, not the
        # replay engine's memo.
        monkeypatch.setattr(api, "_is_static", lambda *a: False)
        spec = hornet(nodes=4)
        inc = simulate_bcast(spec, 8, 65536, algorithm="scatter_ring_opt")
        monkeypatch.setattr(runtime, "FlowNetwork", ReferenceFlowNetwork)
        ref = simulate_bcast(spec, 8, 65536, algorithm="scatter_ring_opt")
        assert (inc.solver_mode, ref.solver_mode) == ("incremental", "reference")
        assert inc.time.hex() == ref.time.hex()
        assert (inc.messages, inc.bytes_on_wire) == (ref.messages, ref.bytes_on_wire)


class TestEmptyPathValidation:
    def test_empty_path_without_cap_raises_at_add_time(self):
        eng = Engine()
        net = FlowNetwork(eng)
        with pytest.raises(
            SimulationError, match="no resources and no rate cap"
        ):
            net.add_flow(100.0, [])

    def test_empty_path_with_cap_completes(self):
        eng = Engine()
        net = FlowNetwork(eng)
        done = {}
        net.add_flow(
            100.0, [], rate_cap=10.0, on_complete=lambda f: done.setdefault("t", eng.now)
        )
        eng.run()
        assert math.isclose(done["t"], 10.0)

    def test_zero_byte_empty_path_still_allowed(self):
        eng = Engine()
        net = FlowNetwork(eng)
        done = {}
        net.add_flow(0.0, [], on_complete=lambda f: done.setdefault("t", eng.now))
        eng.run()
        assert done["t"] == 0.0


class TestComponentTracking:
    def test_disjoint_groups_solved_as_separate_components(self):
        eng = Engine()
        net = FlowNetwork(eng)
        a = Resource("a", 100.0)
        b = Resource("b", 100.0)
        for res in (a, a, b, b):
            net.add_flow(1000.0, [res])
        net.flush()
        stats = net.stats()
        assert stats.solves == 1
        assert stats.components_solved == 2
        assert stats.max_component == 2

    def test_untouched_component_is_not_resolved(self):
        eng = Engine()
        net = FlowNetwork(eng)
        a = Resource("a", 100.0)
        b = Resource("b", 100.0)
        f1 = net.add_flow(1000.0, [a])
        f2 = net.add_flow(1000.0, [a])
        net.flush()
        assert net.stats().components_solved == 1
        rate_before = (f1.rate, f2.rate)
        # A new flow on an unrelated resource dirties only its own
        # (singleton) component.
        net.add_flow(1000.0, [b])
        net.flush()
        stats = net.stats()
        assert stats.components_solved == 2
        assert stats.max_component == 2
        assert (f1.rate, f2.rate) == rate_before

    def test_shared_resource_merges_components(self):
        eng = Engine()
        net = FlowNetwork(eng)
        a = Resource("a", 100.0)
        b = Resource("b", 100.0)
        net.add_flow(1000.0, [a])
        net.add_flow(1000.0, [b])
        net.flush()
        # A bridging flow across both resources joins everything into
        # one three-flow component.
        net.add_flow(1000.0, [a, b])
        net.flush()
        assert net.stats().max_component == 3

    def test_cancel_resolves_only_the_touched_component(self):
        eng = Engine()
        net = FlowNetwork(eng)
        a = Resource("a", 100.0)
        b = Resource("b", 100.0)
        fa = net.add_flow(1000.0, [a])
        net.add_flow(1000.0, [a])
        fb = net.add_flow(1000.0, [b])
        net.flush()
        base = net.stats().components_solved
        net.cancel_flow(fa)
        net.flush()
        stats = net.stats()
        # Only resource a's component re-solved (one more kernel call),
        # and b's flow kept its rate.
        assert stats.components_solved == base + 1
        assert fb.rate == pytest.approx(100.0)

    def test_stats_are_a_frozen_snapshot(self):
        eng = Engine()
        net = FlowNetwork(eng)
        link = Resource("link", 100.0)
        net.add_flow(500.0, [link])
        eng.run()
        stats = net.stats()
        assert isinstance(stats, SolverStats)
        assert stats.mode == "incremental"
        assert stats.solves >= 1
        assert stats.rounds >= stats.solves
        assert stats.flows_advanced >= 0
        assert stats.solve_time_s >= 0.0
        with pytest.raises(AttributeError):
            stats.solves = 0


class TestRemovalBookkeeping:
    def test_completion_releases_slot_and_maps(self):
        eng = Engine()
        net = FlowNetwork(eng)
        link = Resource("link", 100.0)
        flow = net.add_flow(500.0, [link])
        fid = flow.fid
        assert fid in net._rem and fid in net._rate
        eng.run()
        # Every per-flow map lets go of the flow, not just the count.
        for state in (net._rem, net._rate, net._token, net._flow_comp):
            assert fid not in state
        assert not net._comp_flows and not net._res_comp
        assert net.active_count == 0
        # A finished flow still reports its terminal state.
        assert flow.remaining == 0.0

    def test_slot_reuse_after_churn(self):
        eng = Engine()
        net = FlowNetwork(eng)
        link = Resource("link", 100.0)
        for _ in range(50):
            net.add_flow(10.0, [link])
            eng.run()
        # Sequential churn reuses one path class and leaves no per-flow
        # or component state behind: nothing grows with the flow count.
        assert net._class_paths == [(0,)]
        assert not net._rem and not net._rate and not net._token
        assert not net._comp_flows and not net._comp_res and not net._res_comp

    def test_cancel_is_o1_and_idempotent(self):
        eng = Engine()
        net = FlowNetwork(eng)
        link = Resource("link", 100.0)
        flows = [net.add_flow(1000.0, [link]) for _ in range(5)]
        net.flush()
        net.cancel_flow(flows[2])
        assert net.active_count == 4
        net.cancel_flow(flows[2])  # second cancel is a silent no-op
        assert net.active_count == 4
        assert flows[2].fid not in net._rem

    def test_cancel_zero_byte_flow_skips_callback(self):
        """A zero-byte flow completes at the next event; cancelling it
        first drops that completion, as for any other flow."""
        eng = Engine()
        net = FlowNetwork(eng)
        link = Resource("link", 100.0)
        fired = []
        flow = net.add_flow(0.0, [link], on_complete=fired.append)
        net.cancel_flow(flow)
        net.cancel_flow(flow)  # idempotent
        eng.run()
        assert fired == []
        assert net.completed_count == 0
        assert net.active_count == 0
        # Cancelling after completion is a no-op too.
        done = net.add_flow(0.0, [link], on_complete=fired.append)
        eng.run()
        net.cancel_flow(done)
        assert fired == [done] and net.completed_count == 1
