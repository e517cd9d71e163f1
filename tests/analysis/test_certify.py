"""Tests for the certificate checker (repro.analysis.certify).

The headline claims — tuned-ring savings exactly S-P for every P,
zero redundancy, the paper's 12@P=8 / 15@P=10 pins — must hold as
checked proofs, the completeness rule must leave no registry entry
silently unproved, and a tampered certificate must FAIL (a checker
that cannot reject is not checking anything).
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.certify import (
    crossvalidate_certificate,
    crossvalidate_roles,
    predicted_redundant_exact,
    predicted_role,
    prove_all,
    prove_collective,
)
from repro.core.traffic import (
    ring_transfers_tuned,
    subtree_chunks,
    subtree_sum,
    transfers_saved as savings,
)
from repro.analysis.verify import REGISTRY
from repro.collectives.certificates import CERTIFICATES, UNCERTIFIED
from repro.errors import ConfigurationError


class TestSymbolicProofs:
    @pytest.fixture(scope="class")
    def opt_report(self):
        return prove_collective("bcast_opt", skip_crossval=True)

    def test_bcast_opt_all_obligations_hold(self, opt_report):
        assert opt_report.failed_obligations == []
        assert opt_report.ok

    def test_bcast_opt_proves_not_just_asserts(self, opt_report):
        # The bulk of the certificate must be symbolically proved;
        # structural obligations (induction/counting glue) are the
        # minority and each one is concretely cross-validated.
        proved = [o for o in opt_report.obligations if o.status == "proved"]
        structural = [
            o for o in opt_report.obligations if o.status == "structural"
        ]
        assert len(proved) > 3 * len(structural)

    def test_paper_corollaries_pinned(self, opt_report):
        assert opt_report.corollaries["savings"] == "S - P"
        assert opt_report.corollaries["savings_P8"] == 12
        assert opt_report.corollaries["savings_P10"] == 15
        assert opt_report.corollaries["redundant"] == "0"

    def test_native_certificate_has_redundancy_corollary(self):
        report = prove_collective("bcast_native", skip_crossval=True)
        assert report.ok
        assert report.corollaries["redundant"] == "S - P"
        assert report.corollaries["ring_transfers"] == "P*(P-1)"

    def test_unknown_collective_is_config_error(self):
        with pytest.raises(ConfigurationError):
            prove_collective("no_such_collective", skip_crossval=True)

    def test_bad_range_is_config_error(self):
        with pytest.raises(ConfigurationError):
            prove_collective("bcast_opt", xval_lo=1, xval_hi=0)


class TestCompleteness:
    def test_every_registry_entry_certified_or_waived(self):
        covered = set(CERTIFICATES) | set(UNCERTIFIED)
        assert set(REGISTRY) <= covered

    def test_no_double_coverage(self):
        assert not (set(CERTIFICATES) & set(UNCERTIFIED))

    def test_waivers_give_reasons(self):
        for name, reason in UNCERTIFIED.items():
            assert len(reason) > 20, f"waiver for {name} needs a real reason"

    def test_prove_all_green(self):
        # Narrow range to keep the suite fast; CI runs the full [2, 64]
        # sweep via `repro prove --all --strict`.
        report = prove_all(xval_lo=2, xval_hi=12)
        assert report.ok, report.describe()
        assert report.ok_strict()
        assert report.uncovered == []
        assert report.stale_waivers == []
        assert report.role_failures == []
        assert {r.collective for r in report.reports} == set(CERTIFICATES)

    def test_skipped_crossval_fails_strict(self):
        report = prove_all(skip_crossval=True)
        assert report.ok
        assert not report.ok_strict()


class TestTamperedCertificateFails:
    def test_wrong_paper_pin_is_rejected(self, monkeypatch):
        import repro.analysis.certify as certify

        monkeypatch.setattr(
            certify, "PAPER_CASES", {8: (13, 56, 43), 10: (15, 90, 75)}
        )
        report = prove_collective("bcast_opt", skip_crossval=True)
        assert not report.ok
        assert any(
            o.oid.endswith("count.paper_P8") for o in report.failed_obligations
        )

    @pytest.mark.parametrize(
        "closed_form, mismatch",
        [
            ("ring_transfers_tuned", "ring transfers 75, certified 76"),
            ("ring_bytes_tuned", "ring wire bytes"),
        ],
    )
    def test_off_by_one_closed_form_is_rejected(
        self, monkeypatch, closed_form, mismatch
    ):
        import repro.analysis.certify as certify

        honest = getattr(certify, closed_form)
        monkeypatch.setattr(
            certify, closed_form, lambda *args: honest(*args) + 1
        )
        failures = crossvalidate_certificate("bcast_opt", 10)
        assert any(f.startswith(mismatch) for f in failures), failures


class TestConcretePredictions:
    def test_roles_match_executable_derivation(self):
        assert crossvalidate_roles(2, 40) == []

    def test_role_send_counts_sum_to_tuned_total(self):
        # The role lemma's per-rank send counts must reproduce the
        # closed form P*(P-1) - (S-P) when summed — independently of
        # any schedule execution.
        for P in range(2, 48):
            total = sum(
                predicted_role(rel, P)[3] for rel in range(P)
            )
            assert total == ring_transfers_tuned(P)
            assert P * (P - 1) - total == savings(P)

    def test_role_extents_are_subtree_chunks(self):
        for P in (2, 5, 8, 16, 33):
            for rel in range(P):
                assert predicted_role(rel, P)[1] == subtree_chunks(rel, P)
            assert sum(predicted_role(r, P)[1] for r in range(P)) == (
                subtree_sum(P)
            )

    def test_native_redundancy_prediction(self):
        # S - P chunk-bearing redundant deliveries at exact divisibility.
        for P in (4, 8, 10):
            assert predicted_redundant_exact(P, P * 1024) == (
                subtree_sum(P) - P
            )


NAMES = sorted(CERTIFICATES)


class TestCrossValidationProperty:
    """Satellite property: certificate-predicted ownership equals the
    concrete verifier's provenance ownership at every step — for
    arbitrary P, non-divisible message sizes and degenerate roots."""

    @given(
        name=st.sampled_from(NAMES),
        nranks=st.integers(min_value=2, max_value=64),
        nbytes=st.one_of(
            st.sampled_from([1, 7, 1000, 65536, 65537]),
            st.integers(min_value=1, max_value=1 << 18),
        ),
        root_kind=st.sampled_from(["zero", "one", "last", "mid"]),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @example(name="bcast_opt", nranks=8, nbytes=65536, root_kind="zero")
    @example(name="bcast_opt", nranks=10, nbytes=1000, root_kind="last")
    @example(name="bcast_native", nranks=8, nbytes=7, root_kind="mid")
    @example(name="bcast_opt", nranks=2, nbytes=1, root_kind="one")
    @example(name="scatter", nranks=13, nbytes=65537, root_kind="last")
    @example(name="allgather_ring", nranks=6, nbytes=1000, root_kind="zero")
    def test_predictions_match_provenance(
        self, name, nranks, nbytes, root_kind
    ):
        root = {
            "zero": 0,
            "one": 1 % nranks,
            "last": nranks - 1,
            "mid": nranks // 2,
        }[root_kind]
        assert crossvalidate_certificate(name, nranks, nbytes, root) == []
