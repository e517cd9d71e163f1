"""The S−P savings closed forms of ``repro.core.traffic``, held to the
extent-recursion oracle in ``reference_savings.py`` and to extracted
schedules."""

import pytest

from repro.analysis.certify import PAPER_CASES
from repro.analysis.verify import REGISTRY
from repro.collectives import extract_schedule, subtree_chunks, tuned_ring_role
from repro.core.traffic import (
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

from . import reference_savings as oracle


class TestRecurrence:
    def test_paper_instances(self):
        assert subtree_sum(8) == oracle.subtree_sum(8) == 20
        assert subtree_sum(10) == oracle.subtree_sum(10) == 25
        assert transfers_saved(8) == oracle.savings(8) == 12
        assert transfers_saved(10) == oracle.savings(10) == 15

    def test_matches_direct_enumeration(self):
        # core.traffic sums subtree_chunks over every rank; the
        # recurrence never looks at a rank.
        for P in range(1, 129):
            assert oracle.subtree_sum(P) == subtree_sum(P)

    def test_extents_match_branch_mask_derivation(self):
        for P in range(1, 65):
            assert oracle.subtree_extents(P) == [
                subtree_chunks(r, P) for r in range(P)
            ]

    def test_pof2_closed_form(self):
        # S(2^k) = 2^k + k * 2^(k-1): each of the k binomial levels
        # contributes half the ranks' worth of extent.
        for k in range(1, 8):
            P = 1 << k
            assert subtree_sum(P) == oracle.subtree_sum(P) == P + k * (P // 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(CollectiveError):
            subtree_sum(0)
        with pytest.raises(CollectiveError):
            transfers_saved(-1)


class TestTransferCounts:
    def test_matches_role_based_derivation(self):
        # Each receive-only endpoint of Listing 1's role table skips its
        # last step - 1 sends: a count that never forms S.
        for P in range(1, 41):
            skipped = sum(
                step - 1
                for step, flag in (tuned_ring_role(r, P) for r in range(P))
                if flag == 1
            )
            assert ring_transfers_native(P) == P * (P - 1)
            assert ring_transfers_tuned(P) == P * (P - 1) - skipped
            assert ring_transfers_tuned(P) == P * (P - 1) - oracle.savings(P)

    def test_paper_table(self):
        assert ring_transfers_native(8) == 56
        assert ring_transfers_tuned(8) == 44
        assert ring_transfers_native(10) == 90
        assert ring_transfers_tuned(10) == 75


class TestByteTotals:
    @pytest.mark.parametrize("P", [2, 3, 5, 8, 10, 16, 17])
    @pytest.mark.parametrize("nbytes", [1, 1000, 65536, 1 << 20])
    def test_tuned_plus_saved_is_native(self, P, nbytes):
        assert ring_bytes_tuned(P, nbytes) + oracle.ring_bytes_saved(
            P, nbytes
        ) == ring_bytes_native(P, nbytes)

    @pytest.mark.parametrize("P", [2, 4, 7, 8, 10, 13])
    @pytest.mark.parametrize("nbytes", [4096, 65536, 1000003])
    def test_matches_role_based_bytes(self, P, nbytes):
        # core.traffic drops each receive-only endpoint's skipped sends;
        # the oracle drops each subtree root's owned span.
        assert ring_bytes_native(P, nbytes) == oracle.ring_bytes(P, nbytes, False)
        assert ring_bytes_tuned(P, nbytes) == oracle.ring_bytes(P, nbytes, True)

    @pytest.mark.parametrize("P", [2, 3, 8, 10, 12])
    def test_bcast_bytes_match_extracted_schedules(self, P):
        nbytes = 1 << 20
        for name, tuned in (("bcast_native", False), ("bcast_opt", True)):
            schedule = extract_schedule(P, REGISTRY[name].build(P, nbytes, 0))
            ring = ring_bytes_tuned if tuned else ring_bytes_native
            assert schedule.total_bytes == oracle.bcast_bytes(P, nbytes, tuned)
            assert schedule.total_bytes == (
                oracle.scatter_bytes(P, nbytes) + ring(P, nbytes)
            )
            assert schedule.transfers == total_transfers(P, tuned, nbytes)

    @pytest.mark.parametrize("P", [2, 5, 8, 10])
    def test_scatter_bytes_match_extracted_schedule(self, P):
        nbytes = 1 << 20
        schedule = extract_schedule(P, REGISTRY["scatter"].build(P, nbytes, 0))
        assert schedule.total_bytes == oracle.scatter_bytes(P, nbytes)
        assert schedule.transfers == scatter_transfers(P, nbytes)

    def test_single_rank_is_free(self):
        assert oracle.bcast_bytes(1, 1 << 20, tuned=True) == 0
        assert oracle.scatter_bytes(1, 1 << 20) == 0
        assert total_transfers(1, tuned=True) == 0
        assert ring_bytes_native(1, 1 << 20) == ring_bytes_tuned(1, 1 << 20) == 0


class TestProofs:
    def test_proof_holds_for_paper_cases(self):
        for P, (saved, native, tuned) in PAPER_CASES.items():
            assert oracle.savings_failures(P, P, {P: saved}) == []
            assert ring_transfers_native(P) == native
            assert ring_transfers_tuned(P) == tuned

    def test_range_proof_is_clean(self):
        pins = {P: case[0] for P, case in PAPER_CASES.items()}
        assert oracle.savings_failures(2, 64, pins) == []

    def test_range_proof_detects_wrong_pin(self):
        failures = oracle.savings_failures(2, 16, {8: 13})
        assert len(failures) == 1
        assert "13" in failures[0]
