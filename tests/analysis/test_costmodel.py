"""Tests for the static α-β/LogGP cost engine and its differential gate."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.costmodel import (
    analyze_collective,
    analyze_schedule,
    differential_gate,
)
from repro.analysis.verify import REGISTRY
from repro.collectives import extract_schedule
from repro.errors import ConfigurationError
from repro.machine import Machine, ideal
from repro.mpi.runtime import Job


def _sim(name, nranks, nbytes, spec=None):
    machine = Machine(spec if spec is not None else ideal(), nranks, "blocked")
    job = Job(machine, REGISTRY[name].build(nranks, nbytes, 0), working_set=nbytes)
    return job.run()


class TestAnalyzeCollective:
    def test_paper_transfer_counts(self):
        native = analyze_collective("bcast_native", 8, 1 << 20)
        tuned = analyze_collective("bcast_opt", 8, 1 << 20)
        # 7 scatter transfers + 56 vs 44 ring transfers.
        assert native.transfers == 63
        assert tuned.transfers == 51
        assert native.transfers - tuned.transfers == 12

    def test_rounds_reflect_dependency_depth(self):
        # Ring allgather: step k+1 forwards what step k delivered.
        assert analyze_collective("allgather_ring", 8, 1 << 20).rounds == 7
        # Scatter-ring broadcast: 3 scatter levels + 7 ring steps.
        assert analyze_collective("bcast_native", 8, 1 << 20).rounds == 10
        # Dissemination barrier: ceil(log2 P) exchanges.
        assert analyze_collective("barrier", 10, 0).rounds == math.ceil(
            math.log2(10)
        )

    def test_t_bound_is_max_of_chain_and_link(self):
        report = analyze_collective("bcast_opt", 8, 1 << 20)
        assert report.t_bound == max(report.t_chain, report.t_link)
        assert report.t_chain > 0 and report.t_link > 0

    def test_busiest_link_is_heaviest_load(self):
        report = analyze_collective("bcast_native", 8, 1 << 20)
        busiest = report.busiest_link
        assert busiest is not None
        assert busiest.drain_time == max(
            load.drain_time for load in report.link_loads
        )
        assert sum(r for r in busiest.by_round.values()) == busiest.nbytes

    def test_per_round_loads_sum_to_totals(self):
        report = analyze_collective("allgather_ring", 8, 1 << 20)
        assert sum(report.round_messages.values()) == report.transfers
        for load in report.link_loads:
            assert sum(load.by_round.values()) == load.nbytes

    def test_deterministic(self):
        a = analyze_collective("bcast_opt", 10, 1 << 20)
        b = analyze_collective("bcast_opt", 10, 1 << 20)
        assert a.to_dict() == b.to_dict()

    def test_placement_splits_levels(self):
        report = analyze_collective(
            "allgather_ring", 8, 65536, spec=ideal(nodes=2, cores_per_node=4)
        )
        assert report.intra_messages + report.inter_messages == report.transfers
        assert report.inter_messages > 0

    def test_unknown_collective(self):
        with pytest.raises(ConfigurationError):
            analyze_collective("nope", 8)

    def test_pof2_only_rejected(self):
        with pytest.raises(ConfigurationError):
            analyze_collective("bcast_rdbl", 10)

    def test_describe_and_json(self):
        report = analyze_collective("bcast_opt", 8, 65536)
        text = report.describe()
        assert "bcast_opt" in text and "t_bound" in text
        data = report.to_dict()
        assert data["transfers"] == report.transfers
        assert data["t_bound"] == report.t_bound


class TestTimeBoundSoundness:
    @pytest.mark.parametrize(
        "name", ["bcast_native", "bcast_opt", "allgather_ring", "bcast_binomial"]
    )
    @pytest.mark.parametrize("nbytes", [65536, 1 << 20])
    def test_lower_bounds_ideal_makespan(self, name, nbytes):
        report = analyze_collective(name, 8, nbytes)
        result = _sim(name, 8, nbytes)
        assert report.t_bound <= result.time * (1 + 1e-9)
        assert report.t_bound >= 0.5 * result.time

    def test_chain_exact_on_serial_scan(self):
        # scan_linear is a pure chain: the DP bound is the makespan.
        report = analyze_collective("scan_linear", 8, 65536)
        result = _sim("scan_linear", 8, 65536)
        assert report.t_chain == pytest.approx(result.time, rel=1e-9)

    def test_counters_match_simulation(self):
        report = analyze_collective("bcast_opt", 10, 1 << 20)
        counters = _sim("bcast_opt", 10, 1 << 20).counters
        assert report.transfers == counters.messages
        assert report.total_bytes == counters.bytes
        assert report.sent_bytes_by_rank == counters.bytes_sent_by_rank
        assert report.received_bytes_by_rank == counters.bytes_received_by_rank
        assert report.intra_messages == counters.intra_messages
        assert report.inter_messages == counters.inter_messages


class TestByteAccountingProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(REGISTRY)),
        nranks=st.integers(min_value=2, max_value=17),
        nbytes=st.sampled_from([0, 1, 100, 65536, 1000003, 1 << 20]),
    )
    def test_static_totals_equal_executor_counters(self, name, nranks, nbytes):
        """For every registry collective, any P in 2..17 and degenerate
        sizes (0 B, 1 B, non-divisible), the cost report's per-rank
        sent/received byte and message tallies must equal an independent
        ScheduleExecutor extraction's."""
        spec = REGISTRY[name]
        if not spec.supports(nranks):
            return
        report = analyze_collective(name, nranks, nbytes)
        schedule = extract_schedule(nranks, spec.build(nranks, nbytes, 0))
        sent_bytes, received_bytes = {}, {}
        sent_msgs, received_msgs = {}, {}
        for s in schedule.sends:
            sent_bytes[s.src] = sent_bytes.get(s.src, 0) + s.nbytes
            received_bytes[s.dst] = received_bytes.get(s.dst, 0) + s.nbytes
            sent_msgs[s.src] = sent_msgs.get(s.src, 0) + 1
            received_msgs[s.dst] = received_msgs.get(s.dst, 0) + 1
        assert report.transfers == schedule.transfers
        assert report.total_bytes == schedule.total_bytes
        assert report.sent_bytes_by_rank == sent_bytes
        assert report.received_bytes_by_rank == received_bytes
        assert report.sent_messages_by_rank == sent_msgs
        assert report.received_messages_by_rank == received_msgs


class TestAnalyzeSchedule:
    def test_schedule_larger_than_machine_rejected(self):
        schedule = extract_schedule(8, REGISTRY["barrier"].build(8, 0, 0))
        machine = Machine(ideal(nodes=1, cores_per_node=4), 4)
        with pytest.raises(ConfigurationError):
            analyze_schedule(schedule, machine)

    def test_handmade_schedule_without_dep_metadata(self):
        # Schedules built by hand (tests, external tools) have empty
        # observed/dep_counts: every send lands in round 1 and the chain
        # bound degrades to the single heaviest message.
        schedule = extract_schedule(4, REGISTRY["barrier"].build(4, 0, 0))
        schedule.observed = {}
        schedule.dep_counts = {}
        machine = Machine(ideal(), 4)
        report = analyze_schedule(schedule, machine)
        assert report.rounds == 1
        assert report.t_chain == 0.0  # nothing was provably consumed


class TestDifferentialGate:
    def test_small_gate_passes(self):
        report = differential_gate(
            static_ranks=(4, 8), sim_ranks=(8,), sizes=(65536,)
        )
        assert report.ok, report.describe()
        counts = report.counts()
        assert counts["bytes"][0] == counts["bytes"][1]
        assert "verdict: OK" in report.describe()

    def test_gate_to_dict(self):
        report = differential_gate(
            static_ranks=(4,), sim_ranks=(), sizes=(65536,)
        )
        data = report.to_dict()
        assert data["ok"] is True
        assert data["counts"]["bytes"]["total"] >= 1

    def test_rejects_bad_band(self):
        with pytest.raises(ConfigurationError):
            differential_gate(band=0.0)

    def test_progress_callback(self):
        lines = []
        differential_gate(
            static_ranks=(4,), sim_ranks=(), sizes=(65536,),
            progress=lines.append,
        )
        assert [line.split(":")[0] for line in lines] == [
            "pass 1/3", "pass 2/3", "pass 3/3"
        ]
