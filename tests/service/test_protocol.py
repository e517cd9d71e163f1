"""Tests for the simulation-service wire protocol (framing + codecs)."""

import dataclasses
import io
import json
import math
import re

import pytest

from repro.core.report import RunRecord
from repro.core.sweep import SweepPoint
from repro.errors import ConfigurationError, MachineError
from repro.machine import hornet
from repro.mpi.reliable import ReliableConfig
from repro.service import protocol
from repro.sim.faults import FaultPlan


def sample_record(**overrides):
    base = dict(
        algorithm="scatter_ring_opt",
        nranks=8,
        nbytes=65536,
        root=0,
        time=1.234567890123456e-4,  # full double precision must survive
        messages=42,
        bytes_on_wire=131072,
        intra_messages=30,
        inter_messages=12,
        machine="hornet",
        engine="replay",
        solver_mode="fluid",
        solver_solves=7,
        solver_rounds=19,
        solver_time_s=0.001234,
    )
    base.update(overrides)
    return RunRecord(**base)


class TestFraming:
    def test_round_trip(self):
        buf = io.BytesIO()
        protocol.write_message(buf, {"op": "ping", "x": [1, 2.5, None]})
        buf.seek(0)
        assert protocol.read_message(buf) == {"op": "ping", "x": [1, 2.5, None]}

    def test_eof_returns_none(self):
        assert protocol.read_message(io.BytesIO(b"")) is None

    def test_malformed_json_raises(self):
        with pytest.raises(ConfigurationError):
            protocol.read_message(io.BytesIO(b"{not json}\n"))

    def test_non_object_raises(self):
        with pytest.raises(ConfigurationError):
            protocol.read_message(io.BytesIO(b"[1,2,3]\n"))

    def test_one_message_per_line(self):
        buf = io.BytesIO()
        protocol.write_message(buf, {"a": 1})
        protocol.write_message(buf, {"b": 2})
        buf.seek(0)
        assert protocol.read_message(buf) == {"a": 1}
        assert protocol.read_message(buf) == {"b": 2}
        assert protocol.read_message(buf) is None


class TestCodecs:
    def test_spec_round_trip(self):
        spec = hornet(nodes=4)
        assert protocol.decode_spec(protocol.encode_spec(spec)) == spec

    def test_spec_with_non_finite_field_rejected(self):
        """``json.loads`` accepts the ``NaN``/``Infinity`` literals, so a
        wire or artifact spec can carry them; decoding must refuse."""
        text = json.dumps(protocol.encode_spec(hornet(nodes=4)))
        for literal in ("NaN", "Infinity"):
            patched = re.sub(r'"nic_bw": [^,]+', f'"nic_bw": {literal}', text)
            assert f'"nic_bw": {literal}' in patched
            with pytest.raises(MachineError, match="nic_bw"):
                protocol.decode_spec(json.loads(patched))

    def test_record_round_trip_bitwise(self):
        rec = sample_record()
        back = protocol.decode_record(protocol.encode_record(rec))
        assert back == rec
        # Float fields survive exactly (shortest-repr JSON round-trip),
        # including the non-compared wall-time field.
        assert dataclasses.asdict(back) == dataclasses.asdict(rec)

    def test_record_special_float(self):
        rec = sample_record(time=math.pi * 1e-5)
        back = protocol.decode_record(protocol.encode_record(rec))
        assert back.time == rec.time

    def test_points_round_trip(self):
        points = [SweepPoint("a", 8, 1024), SweepPoint("b", 16, 2048)]
        assert protocol.decode_points(protocol.encode_points(points)) == points

    def test_faults_round_trip(self):
        plan = FaultPlan.uniform(seed=3, drop_p=0.1, name="t")
        back = protocol.decode_faults(protocol.encode_faults(plan))
        assert back.digest() == plan.digest()
        assert protocol.encode_faults(None) is None
        assert protocol.decode_faults(None) is None

    def test_reliable_round_trip(self):
        assert protocol.decode_reliable(protocol.encode_reliable(None)) is None
        assert protocol.decode_reliable(protocol.encode_reliable(True)) is True
        assert protocol.decode_reliable(protocol.encode_reliable(False)) is False
        cfg = ReliableConfig()
        assert protocol.decode_reliable(protocol.encode_reliable(cfg)) == cfg

    def test_reliable_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            protocol.encode_reliable(object())
        with pytest.raises(ConfigurationError):
            protocol.decode_reliable({"kind": "nope"})


class TestStateFile:
    def test_write_read(self, tmp_path):
        path = tmp_path / "sub" / "service.json"
        protocol.write_state(path, "127.0.0.1", 12345, 999)
        assert protocol.read_state(path) == ("127.0.0.1", 12345)

    def test_missing_is_none(self, tmp_path):
        assert protocol.read_state(tmp_path / "absent.json") is None

    def test_corrupt_is_none(self, tmp_path):
        path = tmp_path / "service.json"
        path.write_text("not json")
        assert protocol.read_state(path) is None

    def test_default_lives_under_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert protocol.state_file_path(None) == tmp_path / "service.json"
        assert protocol.state_file_path(tmp_path / "x.json") == tmp_path / "x.json"


class TestLiveness:
    """A SIGKILL'd server cannot clean up its state file; discovery
    must detect the dead pid and remove the stale advertisement."""

    def test_read_state_full_includes_pid(self, tmp_path):
        path = tmp_path / "service.json"
        protocol.write_state(path, "127.0.0.1", 12345, 999)
        assert protocol.read_state_full(path) == ("127.0.0.1", 12345, 999)

    def test_own_pid_is_alive(self):
        import os

        assert protocol.pid_alive(os.getpid())

    def test_dead_pid_is_not_alive(self):
        import subprocess

        proc = subprocess.Popen(["sleep", "0"])
        proc.wait()  # reaped: the pid no longer exists
        assert not protocol.pid_alive(proc.pid)

    def test_pid_zero_is_treated_as_no_information(self):
        # Old state files carry pid 0; signalling pid 0 would hit our
        # own process group, so it must never be probed — and absent
        # liveness information the advertisement is trusted.
        assert protocol.pid_alive(0)

    def test_locate_live_server_removes_stale_state(self, tmp_path):
        import subprocess

        proc = subprocess.Popen(["sleep", "0"])
        proc.wait()
        path = tmp_path / "service.json"
        protocol.write_state(path, "127.0.0.1", 12345, proc.pid)
        assert protocol.locate_live_server(path) is None
        assert not path.exists()  # stale advertisement removed

    def test_locate_live_server_keeps_live_advertisement(self, tmp_path):
        import os

        path = tmp_path / "service.json"
        protocol.write_state(path, "127.0.0.1", 12345, os.getpid())
        assert protocol.locate_live_server(path) == ("127.0.0.1", 12345)
        assert path.exists()
