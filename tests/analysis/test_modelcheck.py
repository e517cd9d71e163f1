"""Tests for the match-order model checker (repro.analysis.modelcheck)."""

import numpy as np
import pytest

from repro.analysis.modelcheck import (
    DEFAULT_RANKS,
    buffer_digests,
    check_collective,
    check_program,
    default_mc_plans,
    mc_grid,
)
from repro.analysis.verify import REGISTRY
from repro.errors import ConfigurationError, DeadlockError
from repro.machine import Machine, ideal
from repro.mpi import Job, RealBuffer
from repro.mpi.ops import ANY_SOURCE


def _deadlock_factory():
    """Deliberately broken wildcard schedule (the seeded fixture).

    Rank 0 posts ``recv(ANY_SOURCE)`` then ``recv(src=1)`` while ranks 1
    and 2 each send once with the same tag. The interleaving where rank
    1's send matches the wildcard leaves ``recv(src=1)`` waiting forever
    and rank 2's message stuck in the unexpected queue.
    """

    def factory(ctx):
        def program():
            if ctx.rank == 0:
                yield from ctx.recv(ANY_SOURCE, 4, tag=7)
                yield from ctx.recv(1, 4, tag=7)
            else:
                yield from ctx.send(0, 4, tag=7)

        return program()

    return factory


def _wildcard_race_factory(nsenders, tag=7):
    """Deadlock-free wildcard race: rank 0 drains ``nsenders`` wildcard
    receives into distinct displacements; each sender's payload differs,
    so distinct match orders produce distinct final buffers."""

    def factory(ctx):
        def program():
            if ctx.rank == 0:
                for i in range(nsenders):
                    yield from ctx.recv(ANY_SOURCE, 4, disp=4 * i, tag=tag)
            else:
                yield from ctx.send(0, 4, tag=tag)

        return program()

    return factory


def _race_buffers(nranks):
    return [
        RealBuffer.from_array(np.arange(16, dtype=np.uint8) + 50 * r)
        for r in range(nranks)
    ]


class TestRegistryDpor:
    def test_bcast_opt_is_wildcard_free_single_interleaving(self):
        report = check_collective("bcast_opt", 6)
        assert report.ok and report.complete
        assert report.executions == 1
        assert report.terminals == 1
        assert report.outcomes == {"done": 1}
        assert report.payload_digest is not None
        assert report.wire is not None and report.wire["messages"] > 0

    def test_payload_digest_matches_des_reference(self):
        from repro.analysis.chaos import _make_buffers

        for name, nranks in [("bcast_opt", 5), ("allgather_ring", 4)]:
            report = check_collective(name, nranks, nbytes=1024)
            assert report.ok, report.describe()
            machine = Machine(ideal(), nranks)
            bufs = _make_buffers(name, nranks, 1024)
            Job(
                machine,
                REGISTRY[name].build(nranks, 1024, 0),
                buffers=bufs,
            ).run()
            assert report.payload_digest == buffer_digests(bufs)

    def test_dpor_explores_10x_fewer_states_than_naive_on_tuned_ring_p6(self):
        # The acceptance bar: naive enumeration capped at 10x the DPOR
        # state count must fail to finish the tuned ring at P=6.
        dpor = check_collective("bcast_opt", 6)
        assert dpor.complete and dpor.ok
        naive = check_collective(
            "bcast_opt", 6, mode="naive", max_states=10 * dpor.states
        )
        assert not naive.complete

    def test_unsupported_rank_count_raises(self):
        with pytest.raises(ConfigurationError):
            check_collective("bcast_rdbl", 6)  # pof2-only

    def test_unknown_collective_raises(self):
        with pytest.raises(ConfigurationError):
            check_collective("nope", 4)

    def test_unknown_mode_raises(self):
        with pytest.raises(ConfigurationError):
            check_collective("bcast_opt", 4, mode="bogus")


class TestDeadlockWitness:
    def test_deadlock_found_with_minimized_witness(self):
        report = check_program(3, _deadlock_factory, name="deadlock-fixture")
        assert not report.ok
        assert [v.kind for v in report.violations] == ["deadlock"]
        w = report.witness
        assert w is not None and w.minimized
        # The minimal trigger is exactly: rank 1 sends (matches the
        # wildcard), rank 0 runs to the starved recv(src=1), rank 1
        # finishes, rank 2 sends + finishes. Nothing is removable.
        assert len(w.schedule) == 5
        assert all(r in (0, 1, 2) for r in w.schedule)
        assert len(w.steps) == len(w.schedule)
        assert any("blocked in recv(src=1" in b for b in w.blocked)

    def test_witness_survives_json_round_trip(self):
        import json

        report = check_program(3, _deadlock_factory, name="deadlock-fixture")
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is False
        assert data["witness"]["minimized"] is True
        assert data["witness"]["schedule"] == list(report.witness.schedule)


class TestDeadlockErrorDedupe:
    def test_repeated_blocked_lines_collapse_with_multiplicity(self):
        lines = ["rank blocked in recv(src=0, tag=1, nbytes=4)"] * 6 + ["idle"]
        err = DeadlockError(lines)
        msg = str(err)
        assert msg.count("rank blocked in recv") == 1
        assert "(x6)" in msg
        assert len(err.blocked) == 7  # full list preserved

    def test_distinct_lines_unchanged(self):
        err = DeadlockError(["a", "b"])
        assert "a; b" in str(err)
        assert "(x" not in str(err)

    def test_witness_rendered_into_message(self):
        report = check_program(3, _deadlock_factory, name="fixture")
        err = DeadlockError(["rank 0 stuck"], witness=report.witness)
        assert "deadlock witness" in str(err)
        assert "step 0" in str(err)


class TestWildcardRaces:
    def test_dpor_flags_payload_nondeterminism(self):
        report = check_program(
            3,
            lambda: _wildcard_race_factory(2),
            make_buffers=lambda: _race_buffers(3),
            name="race",
        )
        assert not report.ok
        assert {v.kind for v in report.violations} == {"nondeterminism"}
        assert "final payloads" in report.violations[0].detail
        assert report.executions == 2
        assert report.terminals == 2

    def test_dpor_and_naive_agree_and_dpor_is_smaller(self):
        dpor = check_program(
            3,
            lambda: _wildcard_race_factory(2),
            make_buffers=lambda: _race_buffers(3),
            name="race",
            mode="dpor",
        )
        naive = check_program(
            3,
            lambda: _wildcard_race_factory(2),
            make_buffers=lambda: _race_buffers(3),
            name="race",
            mode="naive",
        )
        assert dpor.terminals == naive.terminals
        assert dpor.outcomes == naive.outcomes
        assert {v.kind for v in dpor.violations} == {
            v.kind for v in naive.violations
        }
        assert dpor.states < naive.states

    def test_same_payload_races_are_benign(self):
        # Two senders racing *identical* bytes into the wildcard: the
        # interleavings differ but every terminal state is bit-identical.
        def make_buffers():
            return [
                RealBuffer.from_array(np.full(16, 9, dtype=np.uint8))
                for _ in range(3)
            ]

        report = check_program(
            3,
            lambda: _wildcard_race_factory(2),
            make_buffers=make_buffers,
            name="benign-race",
        )
        assert report.ok, report.describe()
        assert report.executions == 2
        assert report.terminals == 1


class TestFaultExploration:
    def test_crash_plan_yields_typed_exhaustion(self):
        plan = default_mc_plans()[4]
        assert plan.name == "crash"
        report = check_collective("bcast_opt", 4, faults=plan)
        assert report.ok, report.describe()
        assert any(k.startswith("exhausted") for k in report.outcomes)

    def test_window_plan_retransmits_through_the_loss_window(self):
        plan = default_mc_plans()[3]
        assert plan.name == "window"
        report = check_collective("bcast_opt", 4, faults=plan)
        assert report.ok, report.describe()
        assert report.outcomes == {"done": 1}
        assert report.injected["drop"] > 0  # the window actually fired

    def test_all_default_plans_deliver_or_exhaust_typed(self):
        for plan in default_mc_plans():
            for name in ("bcast_native", "bcast_opt"):
                report = check_collective(name, 4, faults=plan)
                assert report.ok, report.describe()
                assert all(
                    k == "done" or k.startswith("exhausted")
                    for k in report.outcomes
                )

    def test_fault_decisions_are_interleaving_invariant(self):
        # Per-link attempt indices are program-order determined, so a
        # seeded plan must injure every interleaving identically: the
        # wildcard race stays a pure payload race under faults too.
        from repro.sim.faults import FaultPlan

        plan = FaultPlan.uniform(seed=3, dup_p=0.5, name="dup")
        report = check_program(
            3,
            lambda: _wildcard_race_factory(2),
            make_buffers=lambda: _race_buffers(3),
            name="race-faulty",
            faults=plan,
            mode="naive",
        )
        assert {v.kind for v in report.violations} <= {"nondeterminism"}
        assert "wire counters" not in "".join(
            v.detail for v in report.violations
        )


class TestGridGate:
    # One shared grid run: the budget assertions below pin the DPOR
    # regression surface (states ballooning or branches appearing).
    STATE_BUDGET = 4000  # ~2.3k today; fails loudly if DPOR regresses

    @pytest.fixture(scope="class")
    def grid(self):
        return mc_grid()

    def test_grid_is_clean(self, grid):
        assert grid.ok, grid.describe()

    def test_fault_free_registry_is_single_execution(self, grid):
        # No registry collective posts ANY_SOURCE: DPOR must cover each
        # fault-free point with exactly one interleaving.
        for c in grid.checks:
            if c.plan == "-":
                assert c.executions == 1, f"{c.collective} P={c.nranks}"

    def test_state_count_budget(self, grid):
        assert grid.total_states <= self.STATE_BUDGET, (
            f"mc grid explored {grid.total_states} states "
            f"(budget {self.STATE_BUDGET}); a DPOR regression?"
        )

    def test_grid_covers_registry_at_small_p(self, grid):
        seen = {(c.collective, c.nranks) for c in grid.checks if c.plan == "-"}
        for nranks in DEFAULT_RANKS:
            for name in REGISTRY:
                if REGISTRY[name].supports(nranks):
                    assert (name, nranks) in seen

    def test_rings_reach_p8(self, grid):
        seen = {(c.collective, c.nranks) for c in grid.checks if c.plan == "-"}
        assert ("bcast_native", 8) in seen and ("bcast_opt", 8) in seen

    def test_grid_json_shape(self, grid):
        data = grid.to_dict()
        assert data["ok"] is True
        assert data["total_states"] == grid.total_states
        assert len(data["checks"]) == len(grid.checks)

