"""Tests for the result record types (RunRecord / ComparisonRecord)."""

import pytest

from repro.core.report import MIB_S, ComparisonRecord, RunRecord


def record(algorithm="scatter_ring_opt", time=0.001, nbytes=1 << 20, **kw):
    defaults = dict(
        nranks=16,
        root=0,
        messages=51,
        bytes_on_wire=2 << 20,
        intra_messages=40,
        inter_messages=11,
        machine="hornet",
    )
    defaults.update(kw)
    return RunRecord(algorithm=algorithm, nbytes=nbytes, time=time, **defaults)


class TestRunRecord:
    def test_bandwidth(self):
        rec = record(time=0.5, nbytes=1 << 20)
        assert rec.bandwidth == pytest.approx((1 << 20) / 0.5)
        assert rec.bandwidth_mib == pytest.approx(2.0)

    def test_throughput(self):
        rec = record(time=0.25)
        assert rec.throughput == pytest.approx(4.0)

    def test_zero_time_degenerates_to_inf(self):
        rec = record(time=0.0)
        assert rec.bandwidth == float("inf")
        assert rec.throughput == float("inf")

    def test_describe(self):
        text = record().describe()
        assert "scatter_ring_opt" in text
        assert "P=16" in text and "1MiB" in text and "MB/s" in text

    def test_frozen(self):
        with pytest.raises(Exception):
            record().time = 1.0

    def test_mib_constant_is_base2(self):
        assert MIB_S == 1024.0**2


class TestComparisonRecord:
    def _cmp(self, t_native=2.0, t_opt=1.0):
        native = record(algorithm="scatter_ring_native", time=t_native, messages=63)
        opt = record(algorithm="scatter_ring_opt", time=t_opt, messages=51)
        return ComparisonRecord(nranks=16, nbytes=1 << 20, native=native, opt=opt)

    def test_speedup(self):
        assert self._cmp().speedup == pytest.approx(2.0)

    def test_bandwidth_improvement(self):
        assert self._cmp().bandwidth_improvement_pct == pytest.approx(100.0)

    def test_consistency_speedup_vs_improvement(self):
        cmp = self._cmp(t_native=1.3, t_opt=1.1)
        assert cmp.bandwidth_improvement_pct == pytest.approx(
            (cmp.speedup - 1) * 100
        )

    def test_zero_byte_improvement_is_undefined(self):
        native = record(algorithm="scatter_ring_native", nbytes=0, messages=63)
        opt = record(algorithm="scatter_ring_opt", nbytes=0, messages=51)
        cmp = ComparisonRecord(nranks=16, nbytes=0, native=native, opt=opt)
        assert cmp.bandwidth_improvement_pct is None
        assert "(n/a, 12 transfers saved)" in cmp.describe()

    def test_one_rank_improvement_is_undefined(self):
        # P=1 moves nothing and takes no time: both bandwidths are inf.
        kw = dict(nranks=1, time=0.0, messages=0, bytes_on_wire=0)
        native = record(algorithm="scatter_ring_native", nbytes=1024, **kw)
        opt = record(algorithm="scatter_ring_opt", nbytes=1024, **kw)
        cmp = ComparisonRecord(nranks=1, nbytes=1024, native=native, opt=opt)
        assert cmp.bandwidth_improvement_pct is None
        assert "(n/a, 0 transfers saved)" in cmp.describe()

    def test_saved_counters(self):
        cmp = self._cmp()
        assert cmp.transfers_saved == 12
        assert cmp.bytes_saved == 0

    def test_describe(self):
        text = self._cmp().describe()
        assert "12 transfers saved" in text
        assert "+100.0%" in text
