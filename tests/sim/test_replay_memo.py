"""Tests for the cross-run shared solve-memo store (repro.sim.replay).

The replay engine memoises water-filling solves by the structural
signature ``(capacities, class_index)``; the shared store lets every
engine with the same signature — across runs in one process, e.g. a
sweep batch or a ``--jobs N`` worker — reuse each other's solves. The
non-negotiable property: memo state never changes a record. Warm and
cold runs, shared and private (full-store) memos, must agree bitwise —
including the ``solver_rounds`` telemetry, which replays the stored
kernel round count on a hit.
"""

import dataclasses

import pytest

from repro.collectives.emit import emit_schedule
from repro.core.api import simulate_bcast
from repro.machine import Machine, hornet
from repro.sim.replay import (
    ReplayEngine,
    clear_solve_memo,
    shared_solve_memo,
    solve_memo_entries,
)


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_solve_memo()
    yield
    clear_solve_memo()


def run_point(nbytes=65536, algorithm="scatter_ring_opt"):
    return simulate_bcast(
        hornet(nodes=4), nranks=8, nbytes=nbytes, algorithm=algorithm
    )


def det_fields(rec):
    d = dataclasses.asdict(rec)
    d.pop("solver_time_s")
    return d


def fill_store():
    """Occupy every store slot, so the next new structure gets a
    private memo dict."""
    for i in range(64):
        shared_solve_memo(((float(i),), ()))


class TestMode:
    def test_defaults_to_shared(self):
        engine = ReplayEngine(
            Machine(hornet(nodes=4), nranks=8),
            emit_schedule("bcast_opt", 8, 65536),
        )
        net = engine.flownet
        assert net.memo is shared_solve_memo(net.signature())

    def test_private_mode_bypasses_store(self):
        fill_store()
        entries = solve_memo_entries()
        run_point()
        assert solve_memo_entries() == entries

    def test_shared_mode_populates_store(self):
        run_point()
        assert solve_memo_entries() > 0


class TestDeterminism:
    def test_warm_equals_cold_bitwise(self):
        cold = run_point()
        assert solve_memo_entries() > 0  # store is now warm
        warm = run_point()
        assert warm == cold
        assert det_fields(warm) == det_fields(cold)
        # solver_rounds is the memo-sensitive field: hits must replay the
        # stored kernel round count, not skip it.
        assert warm.solver_rounds == cold.solver_rounds

    def test_shared_equals_private(self):
        shared = run_point()
        clear_solve_memo()
        fill_store()
        private = run_point()
        assert det_fields(shared) == det_fields(private)

    def test_warm_across_sizes_and_algorithms(self):
        """A batch along the size axis stays bitwise-correct while the
        shared store accumulates entries between points."""
        grid = [
            (a, n)
            for a in ("scatter_ring_native", "scatter_ring_opt")
            for n in (16 * 1024, 64 * 1024, 256 * 1024)
        ]
        warm = [run_point(nbytes=n, algorithm=a) for a, n in grid]
        for (a, n), rec in zip(grid, warm):
            clear_solve_memo()
            cold = run_point(nbytes=n, algorithm=a)
            assert det_fields(rec) == det_fields(cold), (a, n)


class TestStore:
    def test_clear_drops_everything(self):
        run_point()
        assert solve_memo_entries() > 0
        assert clear_solve_memo() > 0  # counts structures, not solves
        assert solve_memo_entries() == 0
        assert clear_solve_memo() == 0

    def test_signature_isolation(self):
        memo_a = shared_solve_memo(((1.0, 2.0), (0, 1)))
        memo_b = shared_solve_memo(((1.0, 2.0), (0, 2)))
        assert memo_a is not memo_b
        assert shared_solve_memo(((1.0, 2.0), (0, 1))) is memo_a

    def test_store_is_capped(self):
        for i in range(200):
            shared_solve_memo(((float(i),), (0,)))
        assert solve_memo_entries() <= 64
