"""Tests for the replay differential gate (repro.analysis.replaygate)."""

import json

import pytest

from repro.__main__ import main
from repro.analysis import replaygate
from repro.analysis.replaygate import (
    DEFAULT_RANKS,
    DEFAULT_SIZES,
    ReplayCheck,
    ReplayReport,
    replay_gate,
    run_replay_point,
    schedule_diff,
)
from repro.collectives.allgather_ring import RING_TAG
from repro.collectives.emit import emit_schedule
from repro.machine import hornet, ideal
from repro.sim.replay import OP_SEND


class TestRunReplayPoint:
    def test_clean_cell_is_ok(self):
        check = run_replay_point("bcast_opt", 8, 12288)
        assert check.status == "ok" and check.ok
        assert check.sends > 0

    def test_both_protocol_regimes(self):
        # 512 B is eager, 256 KiB rendezvous on hornet (threshold 8192).
        for nbytes in DEFAULT_SIZES:
            check = run_replay_point("bcast_native", 5, nbytes, spec=hornet())
            assert check.status == "ok", check.detail

    def test_ideal_spec(self):
        check = run_replay_point("allgather_ring", 6, 4096, spec=ideal())
        assert check.status == "ok", check.detail

    def test_to_dict_round_trips_json(self):
        check = run_replay_point("barrier", 4, 0)
        assert json.loads(json.dumps(check.to_dict()))["status"] == "ok"


class TestReplayGate:
    def test_subset_grid_passes(self):
        report = replay_gate(
            collectives=["bcast_opt", "bcast_binomial", "barrier"],
            ranks=(2, 5, 8),
            sizes=(512, 12288),
        )
        assert report.ok, report.describe()
        # barrier supports every P; bcast variants too => 3 * 3 * 2 cells
        assert len(report.checks) == 18
        assert report.failures == []

    def test_describe_names_verdict(self):
        report = replay_gate(collectives=["barrier"], ranks=(2,), sizes=(0,))
        text = report.describe()
        assert "verdict: OK" in text and "bitwise-equal" in text

    def test_failures_surface_in_report(self):
        bad = ReplayCheck("fake", 4, 512, "fail", detail="boom")
        good = ReplayCheck("barrier", 4, 512, "ok")
        report = ReplayReport(checks=(bad, good), machine="test")
        assert not report.ok
        assert report.failures == [bad]
        assert "boom" in report.describe()
        assert report.to_dict()["ok"] is False

    def test_unsupported_counts_as_ok(self):
        skip = ReplayCheck("fake", 4, 512, "unsupported", detail="wildcard")
        report = ReplayReport(checks=(skip,), machine="test")
        assert report.ok
        assert "1 unsupported fallback(s)" in report.describe()

    def test_default_grid_constants(self):
        # The CI gate spans both protocols and non-pof2 rank counts.
        assert any(n <= 8192 for n in DEFAULT_SIZES)  # eager on hornet
        assert any(n > 8192 for n in DEFAULT_SIZES)  # rendezvous
        assert any(p & (p - 1) for p in DEFAULT_RANKS)  # non-pof2


def _drop_one_ring_send(name, nranks, nbytes, root=0):
    """The real emitter, minus the last blocking ring send of the first
    send-only rank of the tuned ring."""
    sched = emit_schedule(name, nranks, nbytes, root)
    for r, (kinds, args) in enumerate(zip(sched.op_kinds, sched.op_args)):
        if kinds[-1] == OP_SEND and sched.send_tag[args[-1]] == RING_TAG:
            sched.op_kinds[r], sched.op_args[r] = kinds[:-1], args[:-1]
            return sched
    raise AssertionError("no half-duplex ring send to drop")


class TestEmitterCrossCheck:
    def test_emitter_checked_for_certified_cells_only(self, monkeypatch):
        seen = []

        def spy(name, *args, **kwargs):
            seen.append(name)
            return emit_schedule(name, *args, **kwargs)

        monkeypatch.setattr(replaygate, "emit_schedule", spy)
        report = replay_gate(
            collectives=["scatter", "bcast_native", "bcast_opt", "bcast_rdbl"],
            ranks=(4,),
            sizes=(512,),
        )
        assert report.ok, report.describe()
        assert seen == ["scatter", "bcast_native", "bcast_opt"]

    def test_dropped_ring_send_fails_the_cell(self, monkeypatch):
        monkeypatch.setattr(replaygate, "emit_schedule", _drop_one_ring_send)
        check = run_replay_point("bcast_opt", 8, 12288)
        assert check.status == "fail"
        assert check.detail.startswith("emitted schedule: rank ")
        assert "emitted end of program" in check.detail

    def test_dropped_ring_send_fails_strict_cli(self, monkeypatch, capsys):
        monkeypatch.setattr(replaygate, "emit_schedule", _drop_one_ring_send)
        argv = ["replay", "--collective", "bcast_opt", "--nranks", "8"]
        assert main(argv + ["--strict"]) == 1
        assert "FAIL bcast_opt" in capsys.readouterr().out
        assert main(argv) == 0
        capsys.readouterr()

    def test_schedule_diff_names_rank_and_op(self):
        want = emit_schedule("bcast_native", 4, 4096)
        got = emit_schedule("bcast_native", 4, 4096)
        assert schedule_diff(want, got) == ""
        got.send_nbytes[got.op_args[0][0]] += 1  # the root's first send
        assert schedule_diff(want, got) == (
            "rank 0 op 0: extracted send(0->2 tag=1 #0, 2048 B), "
            "emitted send(0->2 tag=1 #0, 2049 B)"
        )

    @pytest.mark.parametrize("nbytes", DEFAULT_SIZES)
    def test_inner_root_cells_pass(self, nbytes):
        for name in ("scatter", "bcast_native", "bcast_opt"):
            check = run_replay_point(name, 13, nbytes, root=5)
            assert check.status == "ok", check.detail
