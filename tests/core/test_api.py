"""Tests for the high-level simulate/compare API."""

import pytest

from repro.core import compare_bcast, simulate_bcast, validate_bcast
from repro.errors import ConfigurationError
from repro.machine import Machine, hornet, ideal
from repro.sim import Trace


class TestSimulateBcast:
    def test_returns_run_record(self):
        rec = simulate_bcast(ideal(), 8, 4096, algorithm="scatter_ring_opt")
        assert rec.algorithm == "scatter_ring_opt"
        assert rec.nranks == 8 and rec.nbytes == 4096
        assert rec.time > 0
        assert rec.bandwidth == pytest.approx(4096 / rec.time)
        assert rec.machine == "ideal"

    def test_size_strings_accepted(self):
        rec = simulate_bcast(ideal(), 4, "4KiB")
        assert rec.nbytes == 4096

    def test_auto_selection_binomial(self):
        rec = simulate_bcast(ideal(), 16, 1024, algorithm="auto")
        assert rec.algorithm == "binomial"

    def test_auto_selection_ring(self):
        rec = simulate_bcast(ideal(), 16, 2**20, algorithm="auto")
        assert rec.algorithm == "scatter_ring_native"

    def test_auto_tuned_selection(self):
        rec = simulate_bcast(ideal(), 16, 2**20, algorithm="auto_tuned")
        assert rec.algorithm == "scatter_ring_opt"

    def test_smp_algorithms(self):
        for name in ("smp", "smp_opt"):
            rec = simulate_bcast(
                ideal(nodes=4, cores_per_node=4), 16, 65536, algorithm=name
            )
            assert rec.algorithm == name
            assert rec.messages > 0

    def test_machine_instance_accepted(self):
        m = Machine(ideal(), nranks=8)
        rec = simulate_bcast(m, 8, 4096)
        assert rec.nranks == 8

    def test_machine_rank_mismatch_rejected(self):
        m = Machine(ideal(), nranks=8)
        with pytest.raises(ConfigurationError):
            simulate_bcast(m, 16, 4096)

    def test_bad_spec_type_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_bcast("hornet", 8, 4096)

    def test_trace_capture(self):
        trace = Trace()
        simulate_bcast(ideal(), 4, 4096, algorithm="scatter_ring_opt", trace=trace)
        assert len(trace.by_kind("send_launch")) > 0

    def test_nonzero_root(self):
        rec = simulate_bcast(ideal(), 9, 9000, algorithm="scatter_ring_opt", root=4)
        assert rec.root == 4

    def test_counters_split_by_level(self):
        rec = simulate_bcast(ideal(nodes=4, cores_per_node=2), 8, 8192)
        assert rec.intra_messages + rec.inter_messages == rec.messages


class TestValidate:
    def test_validate_moves_real_bytes(self):
        rec = validate_bcast(ideal(), 10, 1000)
        assert rec.messages > 0

    @pytest.mark.parametrize(
        "name", ["binomial", "scatter_ring_native", "scatter_ring_opt", "smp_opt"]
    )
    def test_validate_all_algorithms(self, name):
        rec = simulate_bcast(
            ideal(nodes=4, cores_per_node=4),
            13,
            997,
            algorithm=name,
            validate=True,
            root=5,
        )
        assert rec.time > 0


class TestCompare:
    def test_compare_record_fields(self):
        cmp = compare_bcast(hornet(nodes=2), 16, "1MiB")
        assert cmp.native.algorithm == "scatter_ring_native"
        assert cmp.opt.algorithm == "scatter_ring_opt"
        assert cmp.speedup > 1.0  # contended machine: tuned wins
        assert cmp.bandwidth_improvement_pct > 0
        assert cmp.transfers_saved == 32  # P=16
        assert cmp.bytes_saved > 0

    def test_describe_is_readable(self):
        cmp = compare_bcast(ideal(), 8, 8192)
        text = cmp.describe()
        assert "P=8" in text and "MB/s" in text and "transfers saved" in text

    def test_speedup_consistent_with_improvement(self):
        cmp = compare_bcast(hornet(nodes=2), 16, "512KiB")
        assert cmp.bandwidth_improvement_pct == pytest.approx(
            (cmp.speedup - 1) * 100, rel=1e-6
        )
