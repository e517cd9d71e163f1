"""Tests for the binomial scatter phase (Figures 1 and 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CollectiveError
from repro.collectives import binomial_scatter, span_bytes, span_disp, subtree_chunks
from repro.collectives.scatter import chunk_table
from repro.collectives.schedule import extract_schedule
from repro.mpi import RealBuffer
from repro.util import ChunkSet


def run_scatter(P, nbytes, root=0, real=True):
    bufs = None
    if real:
        bufs = [
            RealBuffer(nbytes, fill=(7 if r == root else 0)) for r in range(P)
        ]

    def factory(ctx):
        def program():
            return (yield from binomial_scatter(ctx, nbytes, root))

        return program()

    schedule = extract_schedule(P, factory, buffers=bufs)
    return schedule, bufs


class TestSpanHelpers:
    def test_span_bytes_whole_buffer(self):
        assert span_bytes(100, 8, 0, 8) == 100

    def test_span_bytes_clamps_tail(self):
        # 9 bytes over 8 chunks: ssize=2; chunks 5..7 are empty.
        assert span_bytes(9, 8, 4, 4) == 1
        assert span_bytes(9, 8, 6, 2) == 0

    def test_span_disp_clamps(self):
        assert span_disp(9, 8, 7) == 9

    def test_span_validation(self):
        with pytest.raises(CollectiveError):
            span_bytes(100, 8, 7, 2)
        with pytest.raises(CollectiveError):
            span_bytes(100, 8, 0, -1)

    def test_spans_are_additive(self):
        for first in range(8):
            for n in range(8 - first):
                assert span_bytes(100, 8, first, n) + span_bytes(
                    100, 8, first + n, 1
                ) == span_bytes(100, 8, first, n + 1)


class TestChunkTable:
    @pytest.mark.parametrize("P", range(1, 71))
    def test_table_matches_span_helpers(self, P):
        for nbytes in sorted({0, P - 1, P + 1, 12289, 2 << 20}):
            disps, counts = chunk_table(nbytes, P)
            assert disps == tuple(span_disp(nbytes, P, c) for c in range(P))
            assert counts == tuple(span_bytes(nbytes, P, c, 1) for c in range(P))

    def test_one_table_shared_per_size(self):
        assert chunk_table(12289, 65) is chunk_table(12289, 65)

    def test_negative_size_rejected(self):
        with pytest.raises(CollectiveError):
            chunk_table(-1, 4)


class TestPaperFigures:
    def test_figure1_p8_transfer_pattern(self):
        """Root 0 sends {4,5,6,7} to rank 4 first; the full tree issues
        P-1 = 7 transfers."""
        schedule, _ = run_scatter(8, 800)
        assert schedule.transfers == 7
        first = schedule.sends[0]
        assert (first.src, first.dst) == (0, 4)
        assert first.chunks == (4, 5, 6, 7)
        assert first.nbytes == 400

    def test_figure2_p10_extra_branch(self):
        """P=10 adds the branch rooted at relative rank 8."""
        schedule, _ = run_scatter(10, 1000)
        assert schedule.transfers == 9
        pairs = {(s.src, s.dst): s.chunks for s in schedule.sends}
        assert pairs[(0, 8)] == (8, 9)

    def test_ownership_matches_subtree(self):
        schedule, _ = run_scatter(8, 800)
        for rel, res in enumerate(schedule.rank_results):
            assert res.first_chunk == rel
            assert res.n_chunks == subtree_chunks(rel, 8)
            assert res.owned == ChunkSet.interval(8, rel, res.n_chunks)

    def test_bytes_land_at_final_displacement(self):
        _, bufs = run_scatter(8, 800)
        for rel, buf in enumerate(bufs):
            ext = subtree_chunks(rel, 8)
            lo, hi = rel * 100, (rel + ext) * 100
            assert (buf.array[lo:hi] == 7).all()
            # Nothing outside the owned span (except on the root).
            if rel != 0:
                assert not buf.array[:lo].any()
                assert not buf.array[hi:].any()


class TestRootsAndEdges:
    @pytest.mark.parametrize("root", [0, 1, 5, 7])
    def test_nonzero_roots(self, root):
        schedule, bufs = run_scatter(8, 800, root=root)
        assert schedule.transfers == 7
        # Relative rank r = (rank - root) mod 8 owns its interval.
        for rank, buf in enumerate(bufs):
            rel = (rank - root) % 8
            ext = subtree_chunks(rel, 8)
            assert (buf.array[rel * 100 : (rel + ext) * 100] == 7).all()

    def test_single_rank(self):
        schedule, bufs = run_scatter(1, 64)
        assert schedule.transfers == 0
        assert schedule.rank_results[0].owned.is_full

    def test_zero_bytes(self):
        schedule, _ = run_scatter(4, 0)
        assert schedule.transfers == 0  # zero-byte sends are skipped

    def test_tiny_buffer_skips_empty_subtrees(self):
        # 3 bytes over 8 ranks: ssize=1, chunks 3..7 empty -> subtrees
        # holding no bytes receive nothing.
        schedule, bufs = run_scatter(8, 3)
        dsts = {s.dst for s in schedule.sends}
        assert dsts == {1, 2}
        assert all(s.nbytes > 0 for s in schedule.sends)

    def test_negative_nbytes_rejected(self):
        with pytest.raises(CollectiveError):
            run_scatter(4, -1, real=False)


@settings(deadline=None, max_examples=40)
@given(
    P=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
def test_property_scatter_correctness(P, data):
    """For random P, root and size: every rank ends with exactly its
    subtree interval, filled with the root's data, and total transferred
    bytes equal the non-root-owned portion weighted by tree depth."""
    root = data.draw(st.integers(min_value=0, max_value=P - 1))
    nbytes = data.draw(st.integers(min_value=0, max_value=4000))
    schedule, bufs = run_scatter(P, nbytes, root=root)
    for rank, buf in enumerate(bufs):
        rel = (rank - root) % P
        res = schedule.rank_results[rank]
        assert res.first_chunk == rel
        assert res.n_chunks == subtree_chunks(rel, P)
        lo = span_disp(nbytes, P, rel)
        hi = lo + span_bytes(nbytes, P, rel, res.n_chunks)
        assert (buf.array[lo:hi] == 7).all()
        assert res.nbytes_owned == hi - lo
    # The root never receives; every other rank receives at most once.
    for s in schedule.sends:
        assert s.dst != root
    recv_counts = {}
    for s in schedule.sends:
        recv_counts[s.dst] = recv_counts.get(s.dst, 0) + 1
    assert all(v == 1 for v in recv_counts.values())
