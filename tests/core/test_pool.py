"""Fault-tolerance tests: the pool survives worker kills, quarantines
poison points with a typed error naming the point, and the executor's
results stay byte-identical through it all."""

import os
import signal

import pytest

from repro.core import Sweep, SweepPoint
from repro.core.executor import CHAOS_CRASH_ENV, SweepExecutor
from repro.errors import PoisonPointError, SweepExecutionError
from repro.machine import ideal
from repro.core.pool import ResilientPool


# -- picklable worker entry points (spawned processes import this file) --
def _double_batch(tasks):
    return [("ok", t * 2) for t in tasks]


def _crash_latch_batch(tasks):
    """Each task is ``(latch_path, value)``; a latch file holding a
    positive integer makes the worker decrement it and SIGKILL itself —
    the same latch protocol the executor's chaos hook uses."""
    for latch_path, _ in tasks:
        try:
            remaining = int(open(latch_path).read().strip())
        except (OSError, ValueError):
            remaining = 0
        if remaining > 0:
            with open(latch_path, "w") as fh:
                fh.write(str(remaining - 1))
            os.kill(os.getpid(), signal.SIGKILL)
    return [("ok", value) for _, value in tasks]


def _run_all(pool, fn, tasks, **kw):
    batches = [[i] for i in tasks]
    return dict(pool.run(fn, batches, tasks, **kw))


@pytest.fixture
def pool():
    p = ResilientPool(jobs=2, backoff_base_s=0.0)
    yield p
    p.shutdown(wait=False)


class TestResilientPool:
    def test_all_ok(self, pool):
        tasks = {i: i for i in range(6)}
        out = _run_all(pool, _double_batch, tasks)
        assert out == {i: ("ok", i * 2) for i in range(6)}
        assert pool.respawns_total == 0

    def test_worker_kill_recovers_and_completes(self, pool, tmp_path):
        latch = tmp_path / "latch"
        latch.write_text("1")
        tasks = {i: (str(latch), i) for i in range(5)}
        out = _run_all(pool, _crash_latch_batch, tasks)
        # One worker died mid-run, yet every point completed with its
        # correct value and the pool recorded the respawn.
        assert out == {i: ("ok", i) for i in range(5)}
        assert pool.respawns_total >= 1

    def test_poison_point_quarantined_with_typed_outcome(self, pool, tmp_path):
        latch = tmp_path / "poison"
        latch.write_text("99")  # crashes on every attempt
        tasks = {0: (str(tmp_path / "no-latch"), 0), 1: (str(latch), 1)}
        out = _run_all(
            pool, _crash_latch_batch, tasks, poison_key=lambda i: f"point-{i}"
        )
        assert out[0] == ("ok", 0)
        kind, type_name, message, _tb = out[1]
        assert (kind, type_name) == ("err", "PoisonPointError")
        assert "quarantined" in message
        # Quarantine persists: the next job refuses the point instantly,
        # without letting it kill another worker.
        crashes_before = int(latch.read_text())
        again = _run_all(
            pool, _crash_latch_batch, tasks, poison_key=lambda i: f"point-{i}"
        )
        assert again[1][1] == "PoisonPointError"
        assert int(latch.read_text()) == crashes_before


def _spec():
    return ideal(nodes=4, cores_per_node=8)


def _sweep():
    return Sweep(
        _spec(),
        sizes=["4KiB", "64KiB"],
        ranks=[4, 8],
        algorithms=["scatter_ring_native", "scatter_ring_opt"],
    )


class TestExecutorUnderChaos:
    def test_parallel_records_byte_identical_after_worker_kill(
        self, tmp_path, monkeypatch
    ):
        reference = _sweep().run(jobs=1)
        victim = SweepPoint("scatter_ring_opt", 8, 65536)
        latch_dir = tmp_path / "latches"
        latch_dir.mkdir()
        (latch_dir / f"{victim.algorithm}-{victim.nranks}-{victim.nbytes}").write_text("1")
        monkeypatch.setenv(CHAOS_CRASH_ENV, str(latch_dir))
        records = _sweep().run(jobs=2)
        # RunRecord equality ignores only wall-clock telemetry: this is
        # the byte-identity bar the crash recovery must clear.
        assert records == reference

    def test_poison_point_raises_typed_error_naming_the_point(
        self, tmp_path, monkeypatch
    ):
        victim = SweepPoint("scatter_ring_opt", 8, 65536)
        latch_dir = tmp_path / "latches"
        latch_dir.mkdir()
        (latch_dir / f"{victim.algorithm}-{victim.nranks}-{victim.nbytes}").write_text("99")
        monkeypatch.setenv(CHAOS_CRASH_ENV, str(latch_dir))
        executor = SweepExecutor(jobs=2, cache=None)
        with pytest.raises(PoisonPointError) as excinfo:
            executor.run(_spec(), _sweep().points())
        message = str(excinfo.value)
        assert victim.algorithm in message
        assert str(victim.nbytes) in message
        assert isinstance(excinfo.value, SweepExecutionError)
