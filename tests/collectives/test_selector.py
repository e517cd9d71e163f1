"""Tests for the MPICH3 algorithm selector and size classes."""

import pytest

from repro.errors import CollectiveError
from repro.collectives import (
    LONG_MSG_SIZE,
    MIN_PROCS,
    SHORT_MSG_SIZE,
    choose_bcast_name,
    classify_message,
    is_ring_regime,
)


class TestThresholds:
    def test_paper_constants(self):
        # Section V: "the message size threshold ... is 12288 bytes and
        # ... 524288 bytes".
        assert SHORT_MSG_SIZE == 12288
        assert LONG_MSG_SIZE == 524288

    def test_classify_boundaries(self):
        assert classify_message(12287) == "short"
        assert classify_message(12288) == "medium"
        assert classify_message(524287) == "medium"
        assert classify_message(524288) == "long"

    def test_classify_rejects_negative(self):
        with pytest.raises(CollectiveError):
            classify_message(-1)


class TestSelection:
    def test_short_uses_binomial(self):
        assert choose_bcast_name(1024, 64) == "binomial"

    def test_small_comm_uses_binomial_even_for_long(self):
        assert choose_bcast_name(10 * 2**20, MIN_PROCS - 1) == "binomial"

    def test_medium_pof2_uses_rdbl(self):
        assert choose_bcast_name(100000, 64) == "scatter_rdbl"

    def test_medium_npof2_uses_ring(self):
        # The paper's mmsg-npof2 case.
        assert choose_bcast_name(100000, 129) == "scatter_ring_native"

    def test_long_always_uses_ring(self):
        # The paper's lmsg case, pof2 or not.
        assert choose_bcast_name(2**20, 64) == "scatter_ring_native"
        assert choose_bcast_name(2**20, 129) == "scatter_ring_native"

    def test_tuned_mode_swaps_ring_only(self):
        assert choose_bcast_name(2**20, 64, tuned=True) == "scatter_ring_opt"
        assert choose_bcast_name(100000, 129, tuned=True) == "scatter_ring_opt"
        assert choose_bcast_name(1024, 64, tuned=True) == "binomial"
        assert choose_bcast_name(100000, 64, tuned=True) == "scatter_rdbl"

    def test_paper_experiment_points_land_in_ring_regime(self):
        # Fig. 6: lmsg with 16/64/256 procs; Fig. 7: 12288..1048576 with
        # npof2 procs; Fig. 8: 12288..2560000 with 129 procs.
        for P in (16, 64, 256):
            assert is_ring_regime(2**20, P)
        for P in (9, 17, 33, 65, 129):
            assert is_ring_regime(12288, P)
            assert is_ring_regime(524287, P)
            assert is_ring_regime(1048576, P)

    def test_critical_size_12288_at_pof2_is_not_ring(self):
        # ... but 12288 bytes with a pof2 count goes recursive-doubling,
        # which is why the paper only evaluates npof2 there.
        assert not is_ring_regime(12288, 16)

    def test_bad_size(self):
        with pytest.raises(CollectiveError):
            choose_bcast_name(1024, 0)
