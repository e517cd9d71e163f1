"""Tests for the parallel sweep executor."""

import pytest

from repro.core import Sweep, SweepExecutor, SweepPoint, resolve_jobs
from repro.core.diskcache import DiskCache, cache_key
from repro.errors import SweepExecutionError
from repro.machine import ideal


def small_spec():
    return ideal(nodes=4, cores_per_node=8)


def small_points():
    return [
        SweepPoint(a, p, n)
        for a in ("scatter_ring_native", "scatter_ring_opt")
        for p in (4, 8)
        for n in (16 * 1024, 64 * 1024)
    ]


class TestResolveJobs:
    def test_default_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) >= 1

    def test_explicit(self):
        assert resolve_jobs(3) == 3


class TestEquivalence:
    def test_parallel_matches_serial(self):
        """jobs=1 and jobs=4 produce identical records in identical order."""
        points = small_points()
        serial = SweepExecutor(jobs=1).run(small_spec(), points)
        parallel = SweepExecutor(jobs=4).run(small_spec(), points)
        assert serial == parallel
        for point, rec in zip(points, serial):
            assert (rec.algorithm, rec.nranks, rec.nbytes) == (
                point.algorithm,
                point.nranks,
                point.nbytes,
            )

    def test_sweep_run_jobs_equivalence(self):
        def sweep():
            return Sweep(
                small_spec(),
                sizes=["16KiB", "64KiB"],
                ranks=[4, 8],
                algorithms=["scatter_ring_native", "scatter_ring_opt"],
            )

        assert sweep().run(jobs=1) == sweep().run(jobs=4)

    def test_progress_fires_for_every_point(self):
        points = small_points()
        seen = []
        SweepExecutor(jobs=2).run(small_spec(), points, progress=seen.append)
        assert seen == points


class TestFailurePropagation:
    def test_serial_failure_carries_point(self):
        bad = SweepPoint("no_such_algorithm", 4, 1024)
        with pytest.raises(SweepExecutionError) as err:
            SweepExecutor(jobs=1).run(small_spec(), [bad])
        assert err.value.point == bad
        assert "no_such_algorithm" in str(err.value)

    def test_parallel_failure_carries_point(self):
        points = small_points()
        bad = SweepPoint("no_such_algorithm", 4, 1024)
        with pytest.raises(SweepExecutionError) as err:
            SweepExecutor(jobs=4).run(small_spec(), points[:3] + [bad] + points[3:])
        assert err.value.point == bad
        assert err.value.error_type  # original class name preserved
        assert err.value.worker_traceback  # worker-side traceback attached

    def test_serial_failure_keeps_the_points_before_it(self, tmp_path):
        points = small_points()
        bad = SweepPoint("no_such_algorithm", 4, 1024)
        cache = DiskCache(tmp_path)
        with pytest.raises(SweepExecutionError) as err:
            SweepExecutor(jobs=1, cache=cache).run(
                small_spec(), points[:2] + [bad] + points[2:]
            )
        assert err.value.point == bad
        # The two records before the bad point were cached as they
        # arrived; the serial path stopped at the failure.
        assert len(cache) == 2
        for point in points[:2]:
            assert cache_key(small_spec(), point) in cache

    def test_earliest_failure_wins(self):
        bad1 = SweepPoint("bogus_one", 4, 1024)
        bad2 = SweepPoint("bogus_two", 4, 1024)
        with pytest.raises(SweepExecutionError) as err:
            SweepExecutor(jobs=2).run(small_spec(), [bad1, bad2])
        assert err.value.point == bad1


class TestGrouping:
    """Points of several (algorithm, P) families share one pool."""

    def test_batched_parallel_matches_serial_with_mixed_families(self):
        points = [
            SweepPoint(a, p, n)
            for n in (16 * 1024, 32 * 1024, 64 * 1024)
            for a in ("scatter_ring_native", "scatter_ring_opt")
            for p in (4, 8)
        ]
        serial = SweepExecutor(jobs=1).run(small_spec(), points)
        parallel = SweepExecutor(jobs=3).run(small_spec(), points)
        assert serial == parallel
