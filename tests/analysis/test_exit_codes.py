"""One exit-code convention across every analysis subcommand.

``python -m repro`` promises: 0 = all checks passed, 1 = at least one
violation / failed obligation (for the differential gates, only under
``--strict``), 2 = configuration or usage error. These tests pin the
convention for verify/mc/cost/chaos/replay/prove/lint so a subcommand
cannot silently drift — CI scripts branch on these codes.
"""

import pytest

from repro.__main__ import main

# Small problem sizes keep each invocation sub-second; the codes are
# what is under test, not the analyses themselves.
CLEAN_INVOCATIONS = [
    ["verify", "--collective", "bcast_opt", "--nranks", "4"],
    ["mc", "--collective", "bcast_opt", "--nranks", "3", "--nbytes", "1KiB"],
    ["cost", "--collective", "bcast_opt", "--nranks", "4"],
    ["chaos", "--collective", "bcast_opt", "--nranks", "4", "--nbytes", "1KiB"],
    ["replay", "--collective", "bcast_opt", "--nranks", "4"],
    ["prove", "--collective", "bcast_opt", "--xval", "2:6"],
    ["lint"],
]

CONFIG_ERROR_INVOCATIONS = [
    ["verify", "--collective", "no_such_collective", "--nranks", "4"],
    ["verify", "--nranks", "bogus"],
    ["verify", "--nranks", ""],
    ["verify", "--nranks", "4", "--root", "9"],
    ["mc", "--nranks", "0"],
    ["mc", "--nranks", "4", "--root", "9"],
    ["cost", "--collective", "no_such_collective"],
    ["cost", "--nbytes", "one-meg"],
    ["cost", "--nranks", "4", "--root", "9"],
    ["cost", "--nranks", "0"],
    ["chaos", "--collective", "no_such_collective", "--nranks", "4"],
    ["chaos", "--collective", "bcast_rdbl", "--nranks", "6", "--strict"],
    ["chaos", "--nranks", "0"],
    ["replay", "--collective", "no_such_collective", "--nranks", "4"],
    ["prove", "--collective", "no_such_collective"],
    ["prove", "--xval", "banana"],
    ["prove", "--xval", "9:2"],
    ["traffic", "--procs", "x,y"],
    ["trace", "--nranks", "4", "--root", "9"],
    ["audit", "no-such-artifact", "--dir", "/nonexistent-artifact-store"],
    ["sweep", "--nranks", "0"],
    ["compare", "--nranks", "0"],
    ["validate", "--nranks", "0"],
    # A machine the run cannot be placed on, and node counts below 1.
    ["sweep", "--nranks", "100", "--nodes", "2", "--sizes", "4KiB", "--no-cache"],
    ["compare", "--nranks", "100", "--nodes", "2"],
    ["cost", "--nranks", "100", "--nodes", "2"],
    ["replay", "--nranks", "100", "--nodes", "2"],
    ["chaos", "--nranks", "100", "--nodes", "2"],
    ["validate", "--nranks", "100", "--nodes", "2"],
    ["sweep", "--nranks", "8", "--nodes", "-1", "--sizes", "4KiB", "--no-cache"],
    ["sweep", "--nranks", "8", "--nodes", "0", "--sizes", "4KiB", "--no-cache"],
    ["compare", "--nranks", "8", "--nodes", "0"],
    ["cost", "--nranks", "8", "--nodes", "0"],
    ["chaos", "--nranks", "8", "--nodes", "-1"],
    ["replay", "--nranks", "8", "--nodes", "0"],
    ["trace", "--nranks", "8", "--nodes", "0"],
]


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv", CLEAN_INVOCATIONS, ids=lambda a: " ".join(a)
    )
    def test_clean_run_exits_zero(self, argv, capsys):
        assert main(argv) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv", CONFIG_ERROR_INVOCATIONS, ids=lambda a: " ".join(a)
    )
    def test_config_error_exits_two(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error" in err.lower()

    def test_prove_strict_skipped_crossval_exits_one(self, capsys):
        # --no-crossval downgrades the proof; --strict refuses the
        # downgrade: that is a failed check (1), not a usage error (2).
        argv = ["prove", "--collective", "bcast_opt", "--no-crossval"]
        assert main(argv) == 0
        assert main(argv + ["--strict"]) == 1
        capsys.readouterr()

    def test_lint_violation_exits_one(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nx = time.time()\n")
        assert main(["lint", str(dirty)]) == 1
        assert main(["lint", str(tmp_path / "missing.py")]) == 2
        capsys.readouterr()

    def test_tampered_certificate_exits_one(self, monkeypatch, capsys):
        import repro.analysis.certify as certify

        monkeypatch.setattr(
            certify, "PAPER_CASES", {8: (99, 56, 44), 10: (15, 90, 75)}
        )
        argv = ["prove", "--collective", "bcast_opt", "--no-crossval"]
        assert main(argv) == 1
        capsys.readouterr()

    def test_cache_fsck_follows_the_convention(
        self, tmp_path, monkeypatch, capsys
    ):
        # 0 on a clean (even empty) cache, 1 when corruption is found,
        # 0 again after --repair rewrites the damaged shard.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "--fsck"]) == 0
        from repro.core import DiskCache, RunRecord

        DiskCache(tmp_path).put(
            "k1",
            RunRecord(
                algorithm="scatter_ring_opt", nranks=8, nbytes=65536,
                root=0, time=1e-4, messages=28, bytes_on_wire=131072,
                intra_messages=28, inter_messages=0, machine="ideal",
            ),
        )
        shard = sorted((tmp_path / "shards").glob("*.jsonl"))[0]
        shard.write_bytes(shard.read_bytes()[:-19])
        assert main(["cache", "--fsck"]) == 1
        assert main(["cache", "--fsck", "--repair"]) == 0
        assert main(["cache", "--fsck"]) == 0
        capsys.readouterr()
