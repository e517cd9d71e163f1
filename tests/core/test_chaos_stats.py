"""Chaos telemetry through the user-facing API, sweeps, cache and CLI."""

from repro.__main__ import main
from repro.core import simulate_bcast
from repro.core.diskcache import cache_key
from repro.core.sweep import SweepPoint
from repro.machine import ideal
from repro.sim import FaultPlan


DROPPY = FaultPlan.uniform(seed=0, drop_p=0.2, name="droppy")


class TestRunRecord:
    def test_chaos_counters_populated(self):
        rec = simulate_bcast(
            ideal(), 5, 4096, algorithm="scatter_ring_opt", faults=DROPPY
        )
        assert rec.has_chaos
        assert rec.drops_injected > 0 and rec.retrans_messages > 0
        assert rec.ack_messages > 0 and rec.timeouts > 0

    def test_fault_free_record_reports_no_chaos(self):
        rec = simulate_bcast(ideal(), 5, 4096, algorithm="scatter_ring_opt")
        assert not rec.has_chaos
        assert rec.retrans_messages == rec.ack_messages == 0

    def test_zero_plan_matches_fault_free_run(self):
        clean = simulate_bcast(ideal(), 5, 4096, algorithm="scatter_ring_opt")
        zero = simulate_bcast(
            ideal(), 5, 4096, algorithm="scatter_ring_opt",
            faults=FaultPlan.none(),
        )
        assert zero.time == clean.time
        assert (zero.messages, zero.bytes_on_wire) == (
            clean.messages, clean.bytes_on_wire,
        )
        assert not zero.has_chaos


class TestCacheKeys:
    POINT = SweepPoint("scatter_ring_opt", 5, 4096)

    def test_fault_plan_separates_cache_entries(self):
        spec = ideal()
        base = cache_key(spec, self.POINT)
        faulty = cache_key(spec, self.POINT, faults=DROPPY)
        other_seed = cache_key(
            spec,
            self.POINT,
            faults=FaultPlan.uniform(seed=1, drop_p=0.2, name="droppy"),
        )
        assert len({base, faulty, other_seed}) == 3

    def test_equal_plans_share_a_key(self):
        spec = ideal()
        twin = FaultPlan.uniform(seed=0, drop_p=0.2, name="droppy")
        assert cache_key(spec, self.POINT, faults=DROPPY) == cache_key(
            spec, self.POINT, faults=twin
        )



class TestCli:
    def test_chaos_single_point(self, capsys):
        rc = main(
            ["chaos", "--collective", "bcast_opt", "--nranks", "5", "--strict"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "selector_degradation" in out and "verdict: OK" in out

    def test_chaos_json(self, capsys):
        import json

        rc = main(
            ["chaos", "--collective", "bcast_binomial", "--nranks", "5",
             "--json", "--strict"]
        )
        data = json.loads(capsys.readouterr().out)
        assert rc == 0 and data["ok"] is True

    def test_chaos_unknown_collective(self, capsys):
        rc = main(["chaos", "--collective", "nope"])
        assert rc == 2
        assert "unknown collective" in capsys.readouterr().err

    def test_compare_chaos_stats(self, capsys):
        rc = main(
            ["compare", "--nranks", "5", "--nbytes", "16KiB",
             "--fault-drop", "0.1", "--chaos-stats"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "chaos telemetry" in out and "retrans" in out
