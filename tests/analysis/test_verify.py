"""Tests for the static schedule verifier (repro.analysis.verify)."""

import json

import pytest

from repro.analysis.verify import (
    RendezvousReport,
    check_rendezvous,
    expected_redundant_native,
    verifiable_collectives,
    verify_collective,
    verify_program,
    verify_provenance,
)
from repro.collectives import subtree_chunks
from repro.collectives.schedule import RecordedSend, ScheduleResult, extract_schedule
from repro.errors import ConfigurationError
from repro.mpi.ops import ANY_SOURCE
from repro.util import ChunkSet


def prog_factory(body):
    def factory(ctx):
        return body(ctx)

    return factory


def fake_schedule(nranks, sends):
    """A ScheduleResult built by hand."""
    recorded = [
        RecordedSend(order=i, src=s[0], dst=s[1], nbytes=s[2], tag=s[3], chunks=s[4])
        for i, s in enumerate(sends)
    ]
    return ScheduleResult(sends=recorded, rank_results=[None] * nranks, nranks=nranks)


class TestProvenance:
    def test_clean_relay_passes(self):
        # 0 owns {0,1}; ships both to 1; 1 relays chunk 1 to 2.
        sched = fake_schedule(
            3,
            [
                (0, 1, 8, 0, (0, 1)),
                (1, 2, 4, 0, (1,)),
            ],
        )
        initial = [ChunkSet(2, [0, 1]), ChunkSet(2), ChunkSet(2)]
        violations, redundant, owned = verify_provenance(sched, initial)
        assert violations == [] and redundant == []
        assert sorted(owned[1]) == [0, 1] and sorted(owned[2]) == [1]

    def test_unowned_send_is_provenance_violation(self):
        sched = fake_schedule(2, [(0, 1, 4, 0, (1,))])
        initial = [ChunkSet(2, [0]), ChunkSet(2)]
        violations, _, _ = verify_provenance(sched, initial)
        assert len(violations) == 1
        v = violations[0]
        assert v.kind == "provenance" and v.rank == 0 and v.send_order == 0
        assert "chunks [1]" in v.detail

    def test_fully_owned_transfer_is_redundant(self):
        sched = fake_schedule(2, [(0, 1, 4, 0, (0,))])
        initial = [ChunkSet(2, [0]), ChunkSet(2, [0])]
        violations, redundant, _ = verify_provenance(sched, initial)
        assert violations == []
        assert [r.order for r in redundant] == [0]

    def test_zero_byte_transfer_never_redundant(self):
        sched = fake_schedule(2, [(0, 1, 0, 0, (1,))])
        initial = [ChunkSet(2, [0, 1]), ChunkSet(2, [0, 1])]
        _, redundant, _ = verify_provenance(sched, initial)
        assert redundant == []

    def test_missing_final_chunks_is_completeness_violation(self):
        sched = fake_schedule(2, [(0, 1, 4, 0, (0,))])
        initial = [ChunkSet(2, [0, 1]), ChunkSet(2)]
        expect = [ChunkSet.full(2), ChunkSet.full(2)]
        violations, _, _ = verify_provenance(sched, initial, expect)
        assert [v.kind for v in violations] == ["completeness"]
        assert violations[0].rank == 1 and "[1]" in violations[0].detail

    def test_untagged_sends_are_skipped(self):
        sched = fake_schedule(2, [(0, 1, 4, 0, ())])
        initial = [ChunkSet(2), ChunkSet(2)]
        violations, redundant, _ = verify_provenance(sched, initial)
        assert violations == [] and redundant == []

    def test_rank_count_mismatch_rejected(self):
        sched = fake_schedule(2, [])
        with pytest.raises(ConfigurationError):
            verify_provenance(sched, [ChunkSet(2)])


class TestRendezvous:
    def test_head_to_head_sends_deadlock(self):
        def body(ctx):
            peer = 1 - ctx.rank
            yield from ctx.send(peer, 1024)
            yield from ctx.recv(peer, 1024)

        report = check_rendezvous(extract_schedule(2, prog_factory(body)))
        assert report.deadlocked
        ranks_in_cycle = {e.rank for e in report.cycle}
        assert ranks_in_cycle == {0, 1}
        assert "send(dst=1" in report.describe()

    def test_sendrecv_pairing_is_safe(self):
        def body(ctx):
            peer = 1 - ctx.rank
            if ctx.rank == 0:
                yield from ctx.send(peer, 64)
                yield from ctx.recv(peer, 64)
            else:
                yield from ctx.recv(peer, 64)
                yield from ctx.send(peer, 64)

        report = check_rendezvous(extract_schedule(2, prog_factory(body)))
        assert not report.deadlocked
        assert report.describe() == "rendezvous-safe"

    def test_nonblocking_exchange_is_safe(self):
        def body(ctx):
            peer = 1 - ctx.rank
            s = yield from ctx.isend(peer, 64)
            r = yield from ctx.irecv(peer, 64)
            yield from ctx.waitall([s, r])

        report = check_rendezvous(extract_schedule(2, prog_factory(body)))
        assert not report.deadlocked

    def test_three_rank_cycle_reported_in_order(self):
        def body(ctx):
            nxt = (ctx.rank + 1) % 3
            yield from ctx.send(nxt, 32)
            yield from ctx.recv((ctx.rank - 1) % 3, 32)

        report = check_rendezvous(extract_schedule(3, prog_factory(body)))
        assert report.deadlocked and len(report.cycle) == 3
        # Each edge's target is the next edge's source, cyclically.
        for e, nxt in zip(report.cycle, report.cycle[1:] + report.cycle[:1]):
            assert e.waits_on == nxt.rank

    def test_unreceived_send_blocks_without_a_cycle(self):
        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 16, tag=3)

        report = check_rendezvous(extract_schedule(2, prog_factory(body)))
        assert report.deadlocked and report.cycle == []
        assert report.blocked == ["rank 0: send(dst=1, tag=3, nbytes=16)"]

    def test_blocked_receive_named_by_its_matched_message(self):
        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.recv(2, 64)  # any tag, room for 64 B
            elif ctx.rank == 1:
                yield from ctx.send(2, 8, tag=1)
            else:
                yield from ctx.send(1, 16, tag=2)  # rank 1 never receives
                yield from ctx.recv(1, 64)
                yield from ctx.send(0, 24, tag=5)

        report = check_rendezvous(extract_schedule(3, prog_factory(body)))
        assert report.blocked == [
            "rank 0: recv(src=2, tag=5, nbytes=24)",
            "rank 1: send(dst=2, tag=1, nbytes=8)",
            "rank 2: send(dst=1, tag=2, nbytes=16)",
        ]
        assert [(e.rank, e.waits_on) for e in report.cycle] == [(2, 1), (1, 2)]

    def test_all_registry_collectives_rendezvous_safe(self):
        for name in verifiable_collectives(8):
            rep = verify_collective(name, 8, nbytes=4096)
            assert rep.rendezvous is not None and not rep.rendezvous.deadlocked, name


class TestVerifyProgram:
    def test_seeded_deadlock_flagged_as_violation(self):
        def body(ctx):
            peer = 1 - ctx.rank
            yield from ctx.send(peer, 256)
            yield from ctx.recv(peer, 256)

        report = verify_program(2, prog_factory(body), name="head-to-head")
        assert not report.ok
        assert [v.kind for v in report.violations] == ["deadlock"]
        assert "DEADLOCK cycle" in report.violations[0].detail

    def test_foreign_wait_member_reported_as_error(self):
        shared = {}

        def body(ctx):
            if ctx.rank == 0:
                shared["req"] = yield from ctx.isend(1, 8)
                yield from ctx.recv(1, 8)
            else:
                own = yield from ctx.isend(0, 8)
                yield from ctx.waitall([shared["req"]])  # rank 0's request
                yield from ctx.recv(0, 8)
                yield from ctx.waitall([own])

        report = verify_program(2, prog_factory(body))
        assert report.rendezvous is None
        assert [v.kind for v in report.violations] == ["error"]
        assert "MpiError" in report.violations[0].detail
        assert "not returned by its own isend/irecv" in report.violations[0].detail

    def test_buffered_deadlock_reported_as_error(self):
        def body(ctx):
            peer = 1 - ctx.rank
            yield from ctx.recv(peer, 4)
            yield from ctx.send(peer, 4)

        report = verify_program(2, prog_factory(body))
        assert not report.ok
        assert report.violations[0].kind == "error"
        assert "DeadlockError" in report.violations[0].detail

    def test_redundancy_assertion_mismatch(self):
        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 4, chunks=(0,))
            else:
                yield from ctx.recv(0, 4)

        report = verify_program(
            2,
            prog_factory(body),
            initial_owned=[ChunkSet(2, [0]), ChunkSet(2, [0])],
            expected_redundant=0,
        )
        assert not report.ok
        assert report.violations[0].kind == "redundancy"
        assert report.redundant_count == 1


class TestMatchOrderPremise:
    def test_any_source_receiver_is_a_match_order_violation(self):
        # Ranks 1 and 2 race into rank 0's two wildcard receives: the
        # extraction saw one match order of two.
        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.recv(ANY_SOURCE, 4)
                yield from ctx.recv(ANY_SOURCE, 4)
            else:
                yield from ctx.send(0, 4)

        report = verify_program(3, prog_factory(body), name="wildcard")
        assert not report.ok
        assert [(v.kind, v.rank) for v in report.violations] == [("match-order", 0)]
        assert "[match-order] (rank 0)" in report.describe()
        assert "verdict: FAIL" in report.describe()


class TestPaperNumbers:
    """The acceptance numbers from the paper (Section IV)."""

    def test_native_p8_exactly_12_redundant(self):
        rep = verify_collective("bcast_native", 8, nbytes=65536)
        assert rep.ok
        assert rep.transfers == 63  # 7 scatter + 56 ring
        assert rep.redundant_count == 12 and rep.expected_redundant == 12

    def test_opt_p8_zero_redundant(self):
        rep = verify_collective("bcast_opt", 8, nbytes=65536)
        assert rep.ok
        assert rep.transfers == 51  # 7 scatter + 44 ring
        assert rep.redundant_count == 0 and rep.expected_redundant == 0

    def test_native_p10_exactly_15_redundant(self):
        rep = verify_collective("bcast_native", 10, nbytes=65536)
        assert rep.ok
        assert rep.redundant_count == 15 and rep.expected_redundant == 15

    def test_opt_p10_zero_redundant(self):
        rep = verify_collective("bcast_opt", 10, nbytes=65536)
        assert rep.ok and rep.redundant_count == 0

    @pytest.mark.parametrize("nranks", range(2, 33))
    def test_s_minus_p_property(self, nranks):
        """Native redundancy == S - P, tuned == 0, for P in {2..32}."""
        nbytes = 64 * nranks  # uniform chunks by construction
        native = verify_collective("bcast_native", nranks, nbytes=nbytes)
        tuned = verify_collective("bcast_opt", nranks, nbytes=nbytes)
        s = sum(subtree_chunks(r, nranks) for r in range(nranks))
        assert native.ok and native.redundant_count == s - nranks
        assert tuned.ok and tuned.redundant_count == 0

    def test_expected_redundant_closed_form(self):
        assert expected_redundant_native(8) == 12
        assert expected_redundant_native(10) == 15
        assert expected_redundant_native(1) == 0
        # Empty trailing chunks waive the assertion entirely.
        assert expected_redundant_native(8, nbytes=3) is None


class TestRegistrySweep:
    @pytest.mark.parametrize("nranks", [2, 3, 4, 5, 7, 8, 13, 16])
    def test_all_collectives_verify(self, nranks):
        for name in verifiable_collectives(nranks):
            rep = verify_collective(name, nranks, nbytes=4096)
            assert rep.ok, f"{name} P={nranks}: {[str(v) for v in rep.violations]}"

    @pytest.mark.parametrize("nbytes", [0, 1, 3, 17])
    @pytest.mark.parametrize("root", [0, 3])
    def test_degenerate_sizes_and_roots(self, nbytes, root):
        for name in verifiable_collectives(4):
            rep = verify_collective(name, 4, nbytes=nbytes, root=root)
            assert rep.ok, f"{name}: {[str(v) for v in rep.violations]}"

    def test_pof2_only_collectives_rejected_at_odd_p(self):
        with pytest.raises(ConfigurationError, match="power-of-two"):
            verify_collective("bcast_rdbl", 6)

    def test_unknown_collective_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown collective"):
            verify_collective("bcast_nope", 8)

    def test_verifiable_collectives_filters_by_p(self):
        names = verifiable_collectives(6)
        assert "bcast_native" in names and "bcast_rdbl" not in names
        assert verifiable_collectives() == sorted(verifiable_collectives())


class TestReporting:
    def test_json_roundtrip(self):
        rep = verify_collective("bcast_opt", 4, nbytes=4096)
        data = json.loads(json.dumps(rep.to_dict()))
        assert data["collective"] == "bcast_opt"
        assert data["nranks"] == 4 and data["ok"] is True
        assert data["redundant_count"] == 0
        assert data["rendezvous_deadlock"] is False

    def test_describe_mentions_counts_and_verdict(self):
        rep = verify_collective("bcast_native", 8, nbytes=65536)
        text = rep.describe()
        assert "redundant transfers: 12 (expected 12)" in text
        assert "verdict: OK" in text

    def test_rendezvous_report_no_cycle_text(self):
        rep = RendezvousReport(deadlocked=True, blocked=["rank 0: recv(...)"])
        assert "orphaned" in rep.describe()

    def test_json_output_is_byte_stable(self):
        # Two independent runs must serialize identically: violations
        # are sorted by stable keys, not discovery order.
        first = json.dumps(verify_collective("bcast_opt", 6, nbytes=4096).to_dict())
        second = json.dumps(verify_collective("bcast_opt", 6, nbytes=4096).to_dict())
        assert first == second

    def test_violations_sorted_by_stable_keys(self):
        # Force a redundancy-assertion violation alongside provenance data
        # by lying about the expected count via verify_program.
        from repro.analysis.verify import REGISTRY, verify_program

        spec = REGISTRY["bcast_native"]
        rep = verify_program(
            8,
            spec.build(8, 65536, 0),
            initial_owned=spec.initial_owned(8, 65536, 0),
            expected_final=spec.expected_final(8, 65536, 0),
            expected_redundant=0,
            name="bcast_native",
            nbytes=65536,
        )
        keys = [
            (
                v.kind,
                v.rank if v.rank is not None else -1,
                v.send_order if v.send_order is not None else -1,
                v.detail,
            )
            for v in rep.violations
        ]
        assert keys == sorted(keys)
