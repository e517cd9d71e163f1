"""Tests for closed-form traffic accounting, cross-validated against the
extracted schedules and the paper's numbers."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    measure_traffic,
    ring_bytes_native,
    ring_bytes_tuned,
    ring_transfers_native,
    ring_transfers_tuned,
    scatter_transfers,
    subtree_sum,
    total_transfers,
    transfers_saved,
)
from repro.errors import CollectiveError
from repro.machine import blocked


class TestClosedForms:
    def test_paper_p8(self):
        assert ring_transfers_native(8) == 56
        assert ring_transfers_tuned(8) == 44
        assert transfers_saved(8) == 12

    def test_paper_p10(self):
        assert ring_transfers_native(10) == 90
        assert ring_transfers_tuned(10) == 75
        assert transfers_saved(10) == 15

    def test_subtree_sum_pof2(self):
        # For pof2 P: S = P * (log2 P + 2) / 2.
        for logp in range(1, 9):
            P = 1 << logp
            assert subtree_sum(P) == P * (logp + 2) // 2

    def test_degenerate(self):
        assert ring_transfers_native(1) == 0
        assert ring_transfers_tuned(1) == 0
        assert transfers_saved(1) == 0
        assert total_transfers(1, tuned=True) == 0

    def test_validation(self):
        with pytest.raises(CollectiveError):
            ring_transfers_native(0)

    @given(P=st.integers(min_value=2, max_value=400))
    def test_tuned_strictly_fewer(self, P):
        assert ring_transfers_tuned(P) < ring_transfers_native(P)
        assert transfers_saved(P) >= P - 1  # the root's neighbour alone

    @given(P=st.integers(min_value=2, max_value=400))
    def test_savings_grow_with_p(self, P):
        # "the decrement ... will increase as the growing of the process
        # count P" (Section IV).
        assert transfers_saved(P + 1) > transfers_saved(P) - 2
        assert transfers_saved(2 * P) > transfers_saved(P)


class TestScatterTransfers:
    def test_structural(self):
        assert scatter_transfers(8) == 7
        assert scatter_transfers(1) == 0

    def test_zero_bytes_skips_everything(self):
        assert scatter_transfers(8, nbytes=0) == 0

    def test_tiny_buffer_skips_empty_subtrees(self):
        # 3 bytes over 8 ranks: only subtrees holding bytes receive.
        assert scatter_transfers(8, nbytes=3) == 2

    def test_full_buffer_hits_structural_count(self):
        assert scatter_transfers(8, nbytes=800) == 7


class TestRingBytes:
    def test_native_every_chunk_travels_p_minus_1(self):
        assert ring_bytes_native(8, 800) == 7 * 800

    def test_tuned_bytes_p8(self):
        # 12 skipped transfers x 100 bytes each.
        assert ring_bytes_tuned(8, 800) == 7 * 800 - 12 * 100

    @given(
        P=st.integers(min_value=2, max_value=64),
        nbytes=st.integers(min_value=0, max_value=10_000),
    )
    def test_tuned_bytes_bounded(self, P, nbytes):
        t = ring_bytes_tuned(P, nbytes)
        n = ring_bytes_native(P, nbytes)
        assert 0 <= t <= n


class TestMeasuredAgreement:
    @pytest.mark.parametrize("P", [2, 3, 8, 10, 17, 33])
    def test_schedule_matches_closed_form(self, P):
        nbytes = 128 * P
        native = measure_traffic("scatter_ring_native", P, nbytes)
        tuned = measure_traffic("scatter_ring_opt", P, nbytes)
        assert native.ring_transfers == ring_transfers_native(P)
        assert tuned.ring_transfers == ring_transfers_tuned(P)
        assert native.scatter_transfers == scatter_transfers(P, nbytes)
        assert native.transfers == total_transfers(P, tuned=False, nbytes=nbytes)
        assert tuned.transfers == total_transfers(P, tuned=True, nbytes=nbytes)

    @pytest.mark.parametrize("P,nbytes", [(8, 800), (10, 1000), (13, 997)])
    def test_wire_bytes_match(self, P, nbytes):
        native = measure_traffic("scatter_ring_native", P, nbytes)
        tuned = measure_traffic("scatter_ring_opt", P, nbytes)
        scatter_bytes = native.wire_bytes - ring_bytes_native(P, nbytes)
        assert scatter_bytes >= 0
        assert tuned.wire_bytes - scatter_bytes == ring_bytes_tuned(P, nbytes)

    def test_levels_with_placement(self):
        placement = blocked(8, nodes=2, cores_per_node=4)
        rep = measure_traffic("scatter_ring_opt", 8, 800, placement=placement)
        assert rep.intra + rep.inter == rep.transfers
        assert rep.inter > 0  # spans two nodes

    def test_nonzero_root(self):
        rep0 = measure_traffic("scatter_ring_opt", 10, 1000, root=0)
        rep3 = measure_traffic("scatter_ring_opt", 10, 1000, root=3)
        assert rep0.transfers == rep3.transfers
        assert rep0.wire_bytes == rep3.wire_bytes
