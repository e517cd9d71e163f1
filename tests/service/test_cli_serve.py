"""CLI surface of the simulation service: flags, exit codes, routing."""

import dataclasses
import json
import threading

import pytest

from repro.__main__ import build_parser, main
from repro.core.diskcache import DiskCache
from repro.core.report import RunRecord
from repro.service import SimulationServer


@pytest.fixture()
def server(tmp_path):
    srv = SimulationServer(jobs=1, state_file=tmp_path / "service.json")
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.request_shutdown()
    thread.join(timeout=30)


class TestParser:
    def test_serve_flag_forms(self):
        assert build_parser().parse_args(["sweep"]).serve is None
        assert build_parser().parse_args(["sweep", "--serve"]).serve == "auto"
        assert (
            build_parser().parse_args(["sweep", "--serve", "h:1"]).serve == "h:1"
        )

    def test_serve_flag_on_gates(self, capsys):
        assert build_parser().parse_args(["figure", "--serve"]).serve == "auto"
        # The gates run in-process only.
        for cmd in ("verify", "cost", "chaos", "replay"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([cmd, "--serve"])
        capsys.readouterr()

    def test_serve_subcommand_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 0 and args.jobs == 0
        assert not args.status and not args.stop

    def test_cache_migrate_flag(self):
        assert build_parser().parse_args(["cache", "--migrate"]).migrate


class TestExitCodes:
    def test_explicit_dead_server_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        rc = main(
            [
                "sweep", "--nranks", "8", "--nodes", "2",
                "--sizes", "64KiB", "--serve", "127.0.0.1:1",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "no simulation server reachable at 127.0.0.1:1" in err
        assert "python -m repro serve" in err  # actionable hint

    def test_auto_discovery_falls_back_to_in_process(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))  # no state file
        rc = main(
            [
                "sweep", "--nranks", "8", "--nodes", "2",
                "--sizes", "64KiB", "--serve",
            ]
        )
        assert rc == 0
        assert "improvement" in capsys.readouterr().out

    def test_status_without_state_file_exits_1(self, capsys, tmp_path):
        rc = main(["serve", "--status", "--state-file", str(tmp_path / "x.json")])
        assert rc == 1
        assert "no server state file" in capsys.readouterr().err

    def test_stop_without_state_file_exits_1(self, tmp_path):
        assert main(["serve", "--stop", "--state-file", str(tmp_path / "x.json")]) == 1

    def test_status_with_stale_state_exits_1(self, capsys, tmp_path):
        state = tmp_path / "service.json"
        state.write_text(json.dumps({"host": "127.0.0.1", "port": 1, "pid": 0}))
        rc = main(["serve", "--status", "--state-file", str(state)])
        assert rc == 1
        assert "no server answered" in capsys.readouterr().err


class TestRouting:
    def test_sweep_through_live_server(self, capsys, server, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        rc = main(
            [
                "sweep", "--nranks", "8", "--sizes", "4KiB,64KiB",
                "--no-cache", "--serve", str(tmp_path / "service.json"),
            ]
        )
        assert rc == 0
        assert "improvement" in capsys.readouterr().out
        # The points really ran server-side.
        from repro.service import ServiceClient

        assert ServiceClient(server.host, server.port).stats()["points"] == 4

    def test_status_and_stop_against_live_server(self, capsys, server, tmp_path):
        state = str(tmp_path / "service.json")
        assert main(["serve", "--status", "--state-file", state]) == 0
        out = capsys.readouterr().out
        assert f"server at {server.host}:{server.port}" in out
        assert main(["serve", "--stop", "--state-file", state]) == 0


class TestCacheCommand:
    def _legacy_record(self):
        return RunRecord(
            algorithm="a", nranks=4, nbytes=1024, root=0, time=1e-5,
            messages=3, bytes_on_wire=2048, intra_messages=3, inter_messages=0,
        )

    def test_cache_reports_shards(self, capsys, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("ab" + "0" * 62, self._legacy_record())
        rc = main(["cache", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 record(s) in 1 shard(s)" in out

    def test_cache_migrate(self, capsys, tmp_path):
        line = json.dumps(
            {
                "key": "cd" + "0" * 62,
                "record": dataclasses.asdict(self._legacy_record()),
            }
        )
        (tmp_path / "sweep-records.jsonl").write_text(line + "\n")
        rc = main(["cache", "--cache-dir", str(tmp_path), "--migrate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "migrated 1 legacy record(s)" in out
        assert not (tmp_path / "sweep-records.jsonl").exists()


class TestBenchReportFlagging:
    def _write_bench(self, tmp_path, **fields):
        data = {
            "benchmark": "sweep harness",
            "date": "2026-08-08",
            **fields,
        }
        (tmp_path / "BENCH_x.json").write_text(json.dumps(data))

    def test_single_cpu_speedup_flagged(self, capsys, tmp_path):
        self._write_bench(tmp_path, cpu_count=1, speedup_jobs4_vs_serial=0.92)
        assert main(["bench-report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "WARNING" in out and "1-CPU host" in out
        assert "speedup_jobs4_vs_serial" in out

    def test_multi_cpu_not_flagged(self, capsys, tmp_path):
        self._write_bench(tmp_path, cpu_count=8, speedup_jobs4_vs_serial=3.4)
        assert main(["bench-report", "--dir", str(tmp_path)]) == 0
        assert "WARNING" not in capsys.readouterr().out

    def test_no_speedup_columns_not_flagged(self, capsys, tmp_path):
        self._write_bench(tmp_path, cpu_count=1, warm_vs_cold=3.2)
        assert main(["bench-report", "--dir", str(tmp_path)]) == 0
        assert "WARNING" not in capsys.readouterr().out

    def test_algorithmic_speedup_not_flagged(self, capsys, tmp_path):
        # Solver/replay speedups are single-process algorithmic wins —
        # valid on any core count.
        self._write_bench(tmp_path, cpu_count=1, p65_speedup=6.89)
        assert main(["bench-report", "--dir", str(tmp_path)]) == 0
        assert "WARNING" not in capsys.readouterr().out
