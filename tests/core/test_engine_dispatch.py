"""Tests for the engine dispatch in core.api: replay for static runs,
the coroutine DES for everything else."""

import pytest

from repro.core import api, simulate_bcast
from repro.errors import ReplayUnsupportedError
from repro.machine import hornet
from repro.sim.faults import FaultPlan


def run(algorithm="scatter_ring_opt", nranks=9, nbytes=12288, **kw):
    return simulate_bcast(hornet(), nranks, nbytes, algorithm=algorithm, **kw)


class TestDispatch:
    def test_auto_uses_replay_for_static_runs(self):
        rec = run()
        assert rec.engine == "replay"
        assert rec.solver_mode == "replay"

    def test_engines_agree_bitwise(self, monkeypatch):
        rep = run()
        monkeypatch.setattr(api, "_is_static", lambda *a: False)
        des = run()
        assert (rep.engine, des.engine) == ("replay", "des")
        assert rep.time == des.time
        assert (rep.messages, rep.bytes_on_wire) == (des.messages, des.bytes_on_wire)
        assert (rep.intra_messages, rep.inter_messages) == (
            des.intra_messages,
            des.inter_messages,
        )

    def test_iterated_run_with_barrier_replays(self, monkeypatch):
        rep = run(iterations=3)
        assert rep.engine == "replay"
        monkeypatch.setattr(api, "_is_static", lambda *a: False)
        des = run(iterations=3)
        assert des.engine == "des"
        assert rep.time == des.time and rep.messages == des.messages

    def test_faults_fall_back_to_des(self):
        plan = FaultPlan.uniform(seed=1, drop_p=0.1)
        rec = run(algorithm="binomial", nranks=5, nbytes=2048, faults=plan)
        assert rec.engine == "des"

    def test_zero_fault_plan_still_replays(self):
        rec = run(faults=FaultPlan.none(seed=0))
        assert rec.engine == "replay"

    def test_validate_falls_back_to_des(self):
        rec = run(algorithm="binomial", nranks=5, nbytes=2048, validate=True)
        assert rec.engine == "des"

    def test_unreplayable_schedule_falls_back_to_des(self, monkeypatch):
        rep = run(algorithm="binomial")

        def refuse(schedule):
            raise ReplayUnsupportedError("wildcard receive")

        monkeypatch.setattr(api, "compile_schedule", refuse)
        des = run(algorithm="binomial")
        assert (rep.engine, des.engine) == ("replay", "des")
        assert rep.time == des.time


class TestScheduleSource:
    """The certified broadcasts emit their schedule; the rest extract."""

    @pytest.fixture
    def extractions(self, monkeypatch):
        calls = []
        real = api.extract_schedule

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(api, "extract_schedule", spy)
        return calls

    @pytest.mark.parametrize(
        "algorithm", ["scatter_ring_opt", "scatter_ring_native", "auto_tuned"]
    )
    def test_certified_bcast_never_extracts(self, extractions, algorithm):
        rec = run(algorithm=algorithm, root=4)
        assert rec.engine == "replay"
        assert extractions == []

    def test_iterated_run_extracts(self, extractions):
        assert run(iterations=3).engine == "replay"
        assert extractions == [9]

    def test_smp_opt_extracts(self, extractions):
        assert run(algorithm="smp_opt").engine == "replay"
        assert extractions == [9]

    def test_emitted_and_extracted_records_equal(self, extractions, monkeypatch):
        emitted = run(root=2)
        monkeypatch.setattr(api, "BCAST_CERTIFICATES", {})
        extracted = run(root=2)
        assert extractions == [9]
        assert emitted == extracted

