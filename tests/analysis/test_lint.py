"""Tests for the determinism lint (repro.analysis.lint)."""

import textwrap

from repro.analysis.lint import (
    default_target_paths,
    lint_paths,
    lint_source,
    main as lint_main,
)


def lint(code):
    return lint_source(textwrap.dedent(code), "snippet.py")


class TestWallClock:
    def test_time_time_flagged(self):
        violations = lint(
            """
            import time
            t = time.time()
            """
        )
        assert [v.rule for v in violations] == ["wall-clock"]
        assert "time.time" in violations[0].message

    def test_aliased_import_seen_through(self):
        violations = lint(
            """
            from time import perf_counter as tick
            x = tick()
            """
        )
        assert [v.rule for v in violations] == ["wall-clock"]

    def test_module_alias_seen_through(self):
        violations = lint(
            """
            import time as t
            x = t.monotonic()
            """
        )
        assert [v.rule for v in violations] == ["wall-clock"]

    def test_datetime_now_flagged(self):
        violations = lint(
            """
            from datetime import datetime
            stamp = datetime.now()
            """
        )
        assert [v.rule for v in violations] == ["wall-clock"]

    def test_simulated_time_not_flagged(self):
        violations = lint(
            """
            def step(env):
                now = env.now
                return now + 1.5
            """
        )
        assert violations == []


class TestRandomness:
    def test_global_random_flagged(self):
        violations = lint(
            """
            import random
            x = random.random()
            random.shuffle([1, 2, 3])
            """
        )
        assert [v.rule for v in violations] == ["global-random", "global-random"]

    def test_seeded_random_instance_allowed(self):
        violations = lint(
            """
            import random
            rng = random.Random(1234)
            x = rng.random()
            """
        )
        assert violations == []

    def test_legacy_numpy_random_flagged(self):
        violations = lint(
            """
            import numpy as np
            x = np.random.rand(4)
            """
        )
        assert [v.rule for v in violations] == ["global-random"]
        assert "default_rng" in violations[0].message

    def test_function_local_numpy_import_seen_through(self):
        # Modules that load numpy lazily import it inside functions.
        violations = lint(
            """
            def draw():
                import numpy as np
                return np.random.rand(4)
            """
        )
        assert [v.rule for v in violations] == ["global-random"]
        assert violations[0].line == 4

    def test_unseeded_default_rng_flagged(self):
        violations = lint(
            """
            import numpy as np
            rng = np.random.default_rng()
            """
        )
        assert [v.rule for v in violations] == ["unseeded-rng"]

    def test_seeded_default_rng_allowed(self):
        violations = lint(
            """
            import numpy as np
            a = np.random.default_rng(7)
            b = np.random.default_rng(seed=7)
            s = np.random.SeedSequence(42)
            """
        )
        assert violations == []


class TestEscapes:
    def test_allow_marker_suppresses(self):
        violations = lint(
            """
            import time
            start = time.perf_counter()  # det: allow
            bad = time.perf_counter()
            """
        )
        assert len(violations) == 1 and violations[0].line == 4

    def test_syntax_error_reported_not_raised(self):
        violations = lint_source("def broken(:\n", "broken.py")
        assert [v.rule for v in violations] == ["syntax"]

    def test_violation_str_has_location(self):
        (v,) = lint("import time\nx = time.time()\n")
        assert str(v).startswith("snippet.py:2:")


class TestTree:
    def test_simulation_core_is_clean(self):
        assert lint_paths(default_target_paths()) == []

    def test_default_targets_cover_fault_and_arq_modules(self):
        # The chaos gate depends on sim/faults.py and mpi/reliable.py
        # staying deterministic; the package-level targets must keep
        # sweeping them up.
        covered = set()
        for root in default_target_paths():
            covered.update(p.name for p in root.rglob("*.py"))
        assert {"faults.py", "reliable.py"} <= covered

    def test_default_target_list_is_pinned(self):
        # Regression pin: dropping a package from the lint targets would
        # silently stop enforcing determinism there. Extend deliberately,
        # never shrink.
        from repro.analysis.lint import DEFAULT_TARGETS

        assert DEFAULT_TARGETS == (
            "sim",
            "collectives",
            "mpi",
            "machine",
            "analysis",
            "core",
            "bench",
        )

    def test_default_targets_cover_bench_stopwatch(self):
        # bench/micro.py's perf_counter stopwatch must stay under the
        # sweep with explicit `# det: allow` escapes, and core/ (traffic
        # accounting, sweep drivers, disk cache) must lint clean.
        covered = set()
        for root in default_target_paths():
            covered.update(p.name for p in root.rglob("*.py"))
        assert {"micro.py", "traffic.py"} <= covered
        assert lint_paths(default_target_paths()) == []

    def test_default_targets_cover_replay_engine(self):
        # The replay engine substitutes for the DES in sweeps and the
        # disk cache, so its determinism matters as much as the
        # simulation core's; it must stay under the lint's sweep and
        # lint clean (its perf_counter telemetry carries explicit
        # `det: allow` markers, like sim/flows.py).
        covered = set()
        replay = None
        for root in default_target_paths():
            for p in root.rglob("*.py"):
                covered.add(p.name)
                if p.name == "replay.py" and p.parent.name == "sim":
                    replay = p
        assert "replay.py" in covered and replay is not None
        assert lint_paths([replay]) == []

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_text("import time\ny = time.time()\n")
        violations = lint_paths([tmp_path])
        assert len(violations) == 1 and violations[0].path.endswith("bad.py")


class TestMain:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "clean.py"
        f.write_text("x = 1\n")
        assert lint_main([str(f)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        f = tmp_path / "dirty.py"
        f.write_text("import random\nx = random.randint(0, 9)\n")
        assert lint_main([str(f)]) == 1
        out = capsys.readouterr().out
        assert "global-random" in out and "1 violation(s)" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope.py")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_default_targets_currently_clean(self, capsys):
        assert lint_main([]) == 0
