"""Tests for the MPICH-compatible chunking math (Listing 1 of the paper)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CollectiveError
from repro.util import chunking
from repro.util.chunking import (
    Chunk,
    scatter_size,
    chunk,
    chunks,
    chunk_count,
    chunk_disp,
    total_bytes,
)


class TestScatterSize:
    def test_even_division(self):
        assert scatter_size(800, 8) == 100

    def test_ceiling_division(self):
        # Listing 1: scatter_size = (nbytes + comm_size - 1) / comm_size
        assert scatter_size(10, 3) == 4
        assert scatter_size(1, 8) == 1

    def test_zero_bytes(self):
        assert scatter_size(0, 5) == 0

    def test_rejects_bad_args(self):
        with pytest.raises(CollectiveError):
            scatter_size(10, 0)
        with pytest.raises(CollectiveError):
            scatter_size(-1, 4)


class TestChunkShapes:
    def test_trailing_chunk_short(self):
        # 10 bytes over 3 ranks: 4 + 4 + 2.
        assert [chunk_count(10, 3, i) for i in range(3)] == [4, 4, 2]

    def test_trailing_chunks_empty(self):
        # 9 bytes over 8 ranks: ssize=2 -> 2,2,2,2,1,0,0,0.
        counts = [chunk_count(9, 8, i) for i in range(8)]
        assert counts == [2, 2, 2, 2, 1, 0, 0, 0]

    def test_disp_clamped_to_buffer(self):
        assert chunk_disp(9, 8, 7) == 9

    def test_chunk_record(self):
        c = chunk(10, 3, 2)
        assert c == Chunk(index=2, disp=8, count=2)
        assert c.end == 10
        assert not c.empty

    def test_out_of_range_index(self):
        with pytest.raises(CollectiveError):
            chunk_count(10, 3, 3)
        with pytest.raises(CollectiveError):
            chunk_disp(10, 3, -1)


_chunk_args = given(
    nbytes=st.integers(min_value=0, max_value=10**7),
    nprocs=st.integers(min_value=1, max_value=300),
)


class TestChunkingProperties:
    @_chunk_args
    def test_total_is_exact(self, nbytes, nprocs):
        assert total_bytes(nbytes, nprocs) == nbytes

    @_chunk_args
    def test_chunks_tile_buffer(self, nbytes, nprocs):
        """Non-empty chunks are contiguous, ordered and cover [0, nbytes)."""
        cursor = 0
        for c in chunks(nbytes, nprocs):
            if c.count:
                assert c.disp == cursor
                cursor = c.end
        assert cursor == nbytes

    @_chunk_args
    def test_counts_bounded_by_scatter_size(self, nbytes, nprocs):
        ssize = scatter_size(nbytes, nprocs)
        for c in chunks(nbytes, nprocs):
            assert 0 <= c.count <= ssize

    @_chunk_args
    def test_matches_pseudocode_formula(self, nbytes, nprocs):
        """Counts equal the clamped Listing-1 expression verbatim."""
        ssize = scatter_size(nbytes, nprocs)
        for i in range(nprocs):
            expected = min(ssize, nbytes - i * ssize)
            if expected < 0:
                expected = 0
            assert chunk_count(nbytes, nprocs, i) == expected


def test_module_exports():
    for name in chunking.__all__:
        assert hasattr(chunking, name)
