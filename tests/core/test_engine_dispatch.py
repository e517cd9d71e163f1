"""Tests for the engine auto-dispatch layer (core.api + REPRO_ENGINE)."""

import pytest

from repro.core import api, simulate_bcast
from repro.core.api import _REPLAY_MEMO, simulate_allgather
from repro.core.diskcache import cache_key
from repro.core.sweep import SweepPoint
from repro.errors import ConfigurationError
from repro.machine import hornet, ideal
from repro.sim.faults import FaultPlan
from repro.sim.replay import ENGINE_ENV


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)


def run(algorithm="scatter_ring_opt", nranks=9, nbytes=12288, **kw):
    return simulate_bcast(hornet(), nranks, nbytes, algorithm=algorithm, **kw)


class TestDispatch:
    def test_auto_uses_replay_for_static_runs(self):
        rec = run()
        assert rec.engine == "replay"
        assert rec.solver_mode == "replay"

    def test_des_override(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "des")
        rec = run()
        assert rec.engine == "des"

    def test_engines_agree_bitwise(self, monkeypatch):
        rep = run()
        monkeypatch.setenv(ENGINE_ENV, "des")
        des = run()
        assert rep.time == des.time
        assert (rep.messages, rep.bytes_on_wire) == (des.messages, des.bytes_on_wire)
        assert (rep.intra_messages, rep.inter_messages) == (
            des.intra_messages,
            des.inter_messages,
        )

    def test_iterated_run_with_barrier_replays(self, monkeypatch):
        rep = run(iterations=3)
        assert rep.engine == "replay"
        monkeypatch.setenv(ENGINE_ENV, "des")
        des = run(iterations=3)
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

    def test_jitter_spec_falls_back_to_des(self):
        rec = simulate_bcast(
            ideal(jitter_sigma=1e-8), 5, 4096, algorithm="binomial"
        )
        assert rec.engine == "des"

    def test_forced_replay_on_dynamic_run_raises(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "replay")
        with pytest.raises(ConfigurationError, match="static"):
            run(validate=True)

    def test_forced_replay_on_static_run_works(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "replay")
        assert run().engine == "replay"

    def test_allgather_dispatches(self, monkeypatch):
        rep = simulate_allgather(hornet(), 8, 4096, algorithm="ring")
        assert rep.engine == "replay"
        monkeypatch.setenv(ENGINE_ENV, "des")
        des = simulate_allgather(hornet(), 8, 4096, algorithm="ring")
        assert des.engine == "des" and rep.time == des.time

    def test_reference_solver_routes_to_des(self, monkeypatch):
        # REPRO_SOLVER=reference is the solver differential escape
        # hatch; replay has its own data plane, so auto honours the
        # solver request and a forced replay refuses it loudly.
        monkeypatch.setenv("REPRO_SOLVER", "reference")
        rec = run()
        assert rec.engine == "des" and rec.solver_mode == "reference"
        monkeypatch.setenv(ENGINE_ENV, "replay")
        with pytest.raises(ConfigurationError, match="REPRO_SOLVER"):
            run()

    def test_compiled_schedule_memoised(self):
        _REPLAY_MEMO.clear()
        run()
        size_after_first = len(_REPLAY_MEMO)
        run()
        assert size_after_first == 1
        assert len(_REPLAY_MEMO) == 1


class TestScheduleSource:
    """The certified broadcasts emit their schedule; the rest extract."""

    @pytest.fixture
    def extractions(self, monkeypatch):
        calls = []
        real = api.extract_schedule

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        _REPLAY_MEMO.clear()
        monkeypatch.setattr(api, "extract_schedule", spy)
        yield calls
        _REPLAY_MEMO.clear()

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
        _REPLAY_MEMO.clear()
        monkeypatch.setattr(api, "BCAST_CERTIFICATES", {})
        extracted = run(root=2)
        assert extractions == [9]
        assert emitted == extracted


class TestCacheKey:
    def test_engine_mode_enters_cache_key(self, monkeypatch):
        point = SweepPoint("scatter_ring_opt", 8, 4096)
        auto = cache_key(hornet(), point)
        monkeypatch.setenv(ENGINE_ENV, "des")
        des = cache_key(hornet(), point)
        monkeypatch.setenv(ENGINE_ENV, "replay")
        forced = cache_key(hornet(), point)
        assert len({auto, des, forced}) == 3
