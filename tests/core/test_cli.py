"""Tests for the ``python -m repro`` command-line interface."""

import json
import multiprocessing
import os
import signal

import pytest

from repro.__main__ import build_parser, main
from repro.core import SweepPoint
from repro.core.diskcache import DiskCache, cache_key
from repro.core.report import RunRecord
from repro.machine import ideal


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.nranks == 64 and args.nbytes == "1MiB"
        assert args.machine == "hornet"

    def test_machine_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--machine", "summit"])


class TestCommands:
    def test_compare_output(self, capsys):
        rc = main(["compare", "--nranks", "8", "--nodes", "2", "--nbytes", "256KiB"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "P=8" in out and "MB/s" in out

    def test_sweep_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        rc = main(
            [
                "sweep",
                "--nranks",
                "8",
                "--nodes",
                "2",
                "--sizes",
                "64KiB,128KiB",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "64KiB" in out and "improvement" in out
        assert "cache:" in out  # stats line when caching is enabled

    def test_sweep_no_cache_and_jobs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        rc = main(
            [
                "sweep",
                "--nranks",
                "8",
                "--nodes",
                "2",
                "--sizes",
                "64KiB,128KiB",
                "--jobs",
                "2",
                "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "improvement" in out
        assert "cache:" not in out
        assert not (tmp_path / "shards").exists()

    def test_sweep_warm_cache_rerun(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--nranks",
            "8",
            "--nodes",
            "2",
            "--sizes",
            "64KiB",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "2 hits / 0 misses" in capsys.readouterr().out

    def test_zero_byte_sweep_row_has_no_improvement(self, capsys):
        # A 0 B broadcast is legal but has no bandwidth to improve on:
        # its row ends in "-", and the other rows are unchanged.
        argv = [
            "sweep", "--machine", "ideal", "--nodes", "2", "--nranks", "8",
            "--no-cache", "--sizes",
        ]
        assert main(argv + ["0B,4KiB"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert main(argv + ["4KiB"]) == 0
        alone = capsys.readouterr().out.splitlines()
        zero = next(r for r in rows if r.lstrip().startswith("0B "))
        assert zero.rstrip().endswith("|           -")
        four = next(r for r in rows if r.lstrip().startswith("4KiB "))
        assert four in alone

    def test_zero_byte_compare_reports_na(self, capsys):
        argv = ["compare", "--machine", "ideal", "--nodes", "2", "--nranks", "8"]
        assert main(argv + ["--nbytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "size=0B" in out and "(n/a, " in out

    def test_one_rank_broadcast_reports_na(self, capsys):
        # One rank takes no simulated time, so there is no finite
        # bandwidth to improve on: "n/a" and "-", never "+nan%".
        assert main(["compare", "--nranks", "1", "--nbytes", "1KiB"]) == 0
        out = capsys.readouterr().out
        assert "(n/a, 0 transfers saved)" in out and "nan" not in out
        argv = [
            "sweep", "--machine", "ideal", "--nodes", "1", "--nranks", "1",
            "--sizes", "1KiB,64KiB", "--no-cache",
        ]
        assert main(argv) == 0
        rows = [r for r in capsys.readouterr().out.splitlines() if "KiB |" in r]
        assert len(rows) == 2
        assert all(r.rstrip().endswith("|           -") for r in rows)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers must inherit the patched simulate_bcast",
    )
    def test_killed_worker_keeps_finished_records(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.core.executor as executor

        argv = [
            "sweep", "--machine", "ideal", "--nodes", "2", "--nranks", "8",
            "--sizes", "4KiB,64KiB,256KiB",
        ]
        assert main(argv + ["--jobs", "1", "--no-cache"]) == 0
        reference = capsys.readouterr().out

        real = executor.simulate_bcast
        parent = os.getpid()

        def kill_at_victim(spec, **kw):
            victim = (kw["algorithm"], kw["nranks"], kw["nbytes"])
            if victim == ("scatter_ring_opt", 8, 65536) and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(spec, **kw)

        monkeypatch.setattr(executor, "simulate_bcast", kill_at_victim)
        cached = argv + ["--jobs", "2", "--cache-dir", str(tmp_path)]
        assert main(cached) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.count("SweepPoint(") == 1 and "BrokenProcessPool" in err
        # The worker that picked up the victim had finished a point
        # before it; that record, and any other that arrived, is kept,
        # and the error names the earliest point left unfinished.
        store = DiskCache(tmp_path)
        points = [
            SweepPoint(a, 8, n)
            for a in ("scatter_ring_native", "scatter_ring_opt")
            for n in (4096, 65536, 262144)
        ]
        spec = ideal(nodes=2)
        unfinished = [p for p in points if cache_key(spec, p) not in store]
        finished = len(store)
        assert 1 <= finished == 6 - len(unfinished) < 6
        assert f"{unfinished[0]} failed: BrokenProcessPool" in err

        monkeypatch.undo()
        assert main(cached) == 0
        out = capsys.readouterr().out
        table, stats = out.rsplit("cache: ", 1)
        assert table == reference
        assert f"{finished} hits / {6 - finished} misses" in stats

    def test_figure_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_BENCH_FAST", "1")
        rc = main(["figure", "--id", "fig6a", "--jobs", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Figure 6(a)" in out and "improvement" in out

    def test_cache_report_and_clear(self, capsys, tmp_path):
        main(
            [
                "sweep",
                "--nranks",
                "8",
                "--nodes",
                "2",
                "--sizes",
                "64KiB",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        assert "2 record(s)" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", str(tmp_path), "--clear"]) == 0
        assert "cleared 2" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        assert "0 record(s)" in capsys.readouterr().out

    def test_traffic_output(self, capsys):
        rc = main(["traffic", "--procs", "8,10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "56" in out and "44" in out and "90" in out and "75" in out

    def test_laki_preset(self, capsys):
        rc = main(
            ["compare", "--machine", "laki", "--nranks", "8", "--nbytes", "128KiB"]
        )
        assert rc == 0
        assert "P=8" in capsys.readouterr().out

    def test_round_robin_placement(self, capsys):
        rc = main(
            [
                "compare",
                "--nranks",
                "8",
                "--nodes",
                "2",
                "--placement",
                "round_robin",
            ]
        )
        assert rc == 0

    def test_validate_all_algorithms(self, capsys):
        rc = main(
            ["validate", "--nranks", "8", "--nodes", "2", "--nbytes", "16KiB"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("OK") >= 5  # every applicable algorithm passed
        assert "scatter_ring_opt" in out

    def test_validate_npof2_skips_rdbl(self, capsys):
        rc = main(
            ["validate", "--nranks", "9", "--nodes", "2", "--nbytes", "16KiB"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "skipped (needs pof2)" in out


class TestVerifyCommand:
    def test_native_p8_reports_12_redundant(self, capsys):
        rc = main(["verify", "--collective", "bcast_native", "--nranks", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "12" in out and "OK" in out
        assert "1/1 schedule(s) verified" in out

    def test_opt_p8_reports_zero_redundant(self, capsys):
        rc = main(["verify", "--collective", "bcast_opt", "--nranks", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bcast_opt" in out and "OK" in out

    def test_all_collectives_multiple_p(self, capsys):
        rc = main(["verify", "--nranks", "4,5", "--nbytes", "4KiB"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bcast_native" in out and "allgather_ring" in out
        # pof2-only collectives appear for P=4 but are skipped at P=5.
        assert out.count("bcast_rdbl") == 1

    def test_json_output(self, capsys):
        import json

        rc = main(
            ["verify", "--collective", "bcast_opt", "--nranks", "8", "--json"]
        )
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data[0]["collective"] == "bcast_opt"
        assert data[0]["redundant_count"] == 0 and data[0]["ok"] is True

    def test_unknown_collective_exits_two(self, capsys):
        rc = main(["verify", "--collective", "nope", "--nranks", "8"])
        assert rc == 2
        assert "unknown collective" in capsys.readouterr().err

    def test_options_are_exactly_the_point_and_output(self):
        import argparse

        subcommands = next(
            action.choices
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(subcommands["verify"]._option_string_actions) == {
            "-h", "--help", "--collective", "--nranks", "--nbytes", "--root",
            "--json", "--artifact",
        }
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["verify", "--strict"])
        assert exc.value.code == 2


class TestMcCommand:
    def test_single_point_ok(self, capsys):
        rc = main(["mc", "--collective", "bcast_opt", "--nranks", "4,6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: OK" in out
        assert "1 interleaving(s)" in out

    def test_json_output(self, capsys):
        import json

        rc = main(
            ["mc", "--collective", "bcast_opt", "--nranks", "6", "--json"]
        )
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data[0]["collective"] == "bcast_opt"
        assert data[0]["executions"] == 1 and data[0]["ok"] is True

    def test_unknown_collective_exits_two(self, capsys):
        rc = main(["mc", "--collective", "nope", "--nranks", "4"])
        assert rc == 2
        assert "unknown collective" in capsys.readouterr().err

    def test_unsupported_rank_count_exits_two(self, capsys):
        rc = main(["mc", "--collective", "bcast_rdbl", "--nranks", "6"])
        assert rc == 2

    def test_budget_truncation_fails_only_in_strict(self, capsys):
        args = ["mc", "--collective", "bcast_opt", "--nranks", "6",
                "--max-states", "5"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--strict"]) == 1
        assert "INCOMPLETE" in capsys.readouterr().out

    def test_fault_plan_flags(self, capsys):
        rc = main(
            ["mc", "--collective", "bcast_opt", "--nranks", "4",
             "--drop-p", "0.3", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0 and "plan=cli" in out

    def test_broken_fixture_exits_nonzero_with_minimized_witness(self, capsys):
        from repro.analysis.verify import REGISTRY, CollectiveSpec
        from repro.mpi.ops import ANY_SOURCE

        def build(nranks, nbytes, root):
            def factory(ctx):
                def program():
                    if ctx.rank == 0:
                        yield from ctx.recv(ANY_SOURCE, 4, tag=7)
                        yield from ctx.recv(1, 4, tag=7)
                    else:
                        yield from ctx.send(0, 4, tag=7)

                return program()

            return factory

        REGISTRY["_broken_fixture"] = CollectiveSpec(
            name="_broken_fixture", build=build
        )
        try:
            rc = main(["mc", "--collective", "_broken_fixture", "--nranks", "3"])
            out = capsys.readouterr().out
            assert rc == 1
            assert "minimized deadlock witness (5 step(s))" in out
            assert "VIOLATION [deadlock]" in out
        finally:
            del REGISTRY["_broken_fixture"]

    def test_grid_strict_passes(self, capsys):
        rc = main(["mc", "--grid", "--strict"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: OK" in out
        assert "bcast_opt" in out and "crash" in out


class TestLintCommand:
    def test_default_targets_clean(self, capsys):
        rc = main(["lint"])
        out = capsys.readouterr().out
        assert rc == 0 and "clean" in out

    def test_dirty_file_fails(self, capsys, tmp_path):
        f = tmp_path / "dirty.py"
        f.write_text("import time\nx = time.time()\n")
        rc = main(["lint", str(f)])
        out = capsys.readouterr().out
        assert rc == 1 and "wall-clock" in out


class TestCostCommand:
    def test_table_output(self, capsys):
        rc = main(["cost", "--collective", "bcast_opt", "--nranks", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bcast_opt" in out and "t_bound" in out

    def test_all_collectives_table(self, capsys):
        rc = main(["cost", "--nranks", "8", "--nbytes", "64KiB"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bcast_native" in out and "allgather_ring" in out

    def test_json_output(self, capsys):
        import json

        rc = main(
            ["cost", "--collective", "bcast_native", "--nranks", "8", "--json"]
        )
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data[0]["collective"] == "bcast_native"
        assert data[0]["transfers"] == 63
        assert data[0]["t_bound"] > 0

    def test_grid_strict_passes(self, capsys):
        rc = main(["cost", "--grid", "--strict"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: OK" in out

    def test_grid_json(self, capsys):
        import json

        rc = main(["cost", "--grid", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data["ok"] is True
        assert set(data["counts"]) == {"bytes", "time-bound", "ranking"}

    def test_unknown_collective_exits_two(self, capsys):
        rc = main(["cost", "--collective", "nope", "--nranks", "8"])
        assert rc == 2
        assert "unknown collective" in capsys.readouterr().err


class TestTraceCommand:
    def test_basic_output(self, capsys):
        rc = main(["trace", "--collective", "bcast_opt", "--nranks", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "makespan" in out and "ring" in out

    def test_critical_path_flag(self, capsys):
        rc = main(
            [
                "trace",
                "--collective",
                "bcast_opt",
                "--nranks",
                "8",
                "--critical-path",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "critical path:" in out and "hops" in out

    def test_chrome_export(self, capsys, tmp_path):
        import json

        target = tmp_path / "trace.json"
        rc = main(
            [
                "trace",
                "--collective",
                "barrier",
                "--nranks",
                "4",
                "--chrome",
                str(target),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0 and str(target) in out
        data = json.loads(target.read_text())
        assert data["traceEvents"]

    def test_unknown_collective_exits_two(self, capsys):
        rc = main(["trace", "--collective", "nope"])
        assert rc == 2
        assert "unknown collective" in capsys.readouterr().err


class TestVerifyCostPass:
    def test_json_schema_unchanged_by_cost_pass(self, capsys):
        import json

        rc = main(["verify", "--collective", "bcast_opt", "--nranks", "8", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert isinstance(data, list)
        assert "redundant_count" in data[0]


class TestReplayCommand:
    def test_single_point_ok(self, capsys):
        rc = main(["replay", "--collective", "bcast_opt", "--nranks", "13",
                   "--nbytes", "12KiB"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bitwise" in out and "OK" in out and "verdict: OK" in out

    def test_unknown_collective_exits_two(self, capsys):
        rc = main(["replay", "--collective", "nope"])
        assert rc == 2
        assert "unknown collective" in capsys.readouterr().err

    def test_unsupported_rank_count_exits_two(self, capsys):
        rc = main(["replay", "--collective", "bcast_rdbl", "--nranks", "7"])
        assert rc == 2
        assert "does not support" in capsys.readouterr().err

    def test_grid_strict_subset_via_json(self, capsys):
        import json

        rc = main(["replay", "--collective", "bcast_opt", "--nranks", "5",
                   "--nbytes", "512", "--strict", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data["ok"] is True
        assert data["checks"][0]["status"] == "ok"


class TestBenchReportCommand:
    def test_prints_every_bench_file(self, capsys, tmp_path):
        import json

        for name, metric in (("BENCH_a.json", 1.5), ("BENCH_b.json", 2)):
            (tmp_path / name).write_text(json.dumps({
                "benchmark": f"micro {name}",
                "date": "2026-08-08",
                "speedup": metric,
                "notes": "details here",
            }))
        rc = main(["bench-report", "--dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "BENCH_a.json" in out and "BENCH_b.json" in out
        assert "speedup" in out and "details here" not in out

    def test_notes_flag_includes_notes(self, capsys, tmp_path):
        import json

        (tmp_path / "BENCH_x.json").write_text(json.dumps({
            "benchmark": "micro", "date": "d", "v": 1, "notes": "the notes",
        }))
        rc = main(["bench-report", "--dir", str(tmp_path), "--notes"])
        out = capsys.readouterr().out
        assert rc == 0 and "the notes" in out

    def test_empty_dir_exits_one(self, capsys, tmp_path):
        rc = main(["bench-report", "--dir", str(tmp_path)])
        assert rc == 1
        assert "no BENCH_" in capsys.readouterr().err

    def test_repo_root_bench_files_parse(self, capsys):
        # The real trajectory files shipped with the repo must render.
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        rc = main(["bench-report", "--dir", str(root)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "BENCH_replay.json" in out


class TestCacheCommand:
    def _record(self):
        return RunRecord(
            algorithm="a", nranks=4, nbytes=1024, root=0, time=1e-5,
            messages=3, bytes_on_wire=2048, intra_messages=3, inter_messages=0,
        )

    def test_cache_reports_shards(self, capsys, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("ab" + "0" * 62, self._record())
        rc = main(["cache", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 record(s) in 1 shard(s)" in out


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
