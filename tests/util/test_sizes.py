"""Unit tests for byte-size parsing/formatting and power-of-two helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.util import (
    KIB,
    MIB,
    GIB,
    parse_size,
    format_size,
    is_power_of_two,
    next_power_of_two,
    prev_power_of_two,
    ceil_log2,
    floor_log2,
)


class TestParseSize:
    def test_plain_int(self):
        assert parse_size(4096) == 4096

    def test_plain_float_truncates(self):
        assert parse_size(1536.7) == 1536

    def test_bare_number_string(self):
        assert parse_size("12288") == 12288

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1KB", KIB),
            ("1KiB", KIB),
            ("1k", KIB),
            ("512KB", 512 * KIB),
            ("2MB", 2 * MIB),
            ("2MiB", 2 * MIB),
            ("1.5MiB", int(1.5 * MIB)),
            ("1GB", GIB),
            ("3g", 3 * GIB),
            ("10b", 10),
            ("  7 KB ", 7 * KIB),
        ],
    )
    def test_units_are_base2(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("bad", ["", "abc", "1TBx", "1 foo", "--3KB"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ConfigurationError):
            parse_size(bad)

    def test_rejects_negative_number(self):
        with pytest.raises(ConfigurationError):
            parse_size(-1)

    def test_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            parse_size(True)


class TestFormatSize:
    @pytest.mark.parametrize(
        "nbytes,expected",
        [
            (0, "0B"),
            (512, "512B"),
            (KIB, "1KiB"),
            (12288, "12KiB"),
            (2 * MIB, "2MiB"),
            (GIB, "1GiB"),
        ],
    )
    def test_exact_units(self, nbytes, expected):
        assert format_size(nbytes) == expected

    def test_fractional(self):
        assert format_size(1536) == "1.5KiB"

    def test_negative(self):
        assert format_size(-2 * MIB) == "-2MiB"

    @given(st.integers(min_value=0, max_value=2**40))
    def test_roundtrip_through_parse(self, n):
        # format -> parse loses at most the formatting precision.
        text = format_size(n, precision=6)
        back = parse_size(text)
        assert abs(back - n) <= max(1, n // 10**5)


class TestPow2Helpers:
    def test_is_power_of_two_basics(self):
        assert is_power_of_two(1)
        assert is_power_of_two(2)
        assert is_power_of_two(256)
        assert not is_power_of_two(0)
        assert not is_power_of_two(3)
        assert not is_power_of_two(-4)

    @given(st.integers(min_value=1, max_value=2**30))
    def test_next_prev_bracket(self, n):
        np2, pp2 = next_power_of_two(n), prev_power_of_two(n)
        assert is_power_of_two(np2) and is_power_of_two(pp2)
        assert pp2 <= n <= np2
        assert np2 < 2 * n
        assert pp2 > n // 2

    @given(st.integers(min_value=1, max_value=2**30))
    def test_logs_consistent(self, n):
        assert 2 ** ceil_log2(n) == next_power_of_two(n)
        assert 2 ** floor_log2(n) == prev_power_of_two(n)
        assert ceil_log2(n) - floor_log2(n) in (0, 1)

    def test_ceil_log2_is_binomial_depth(self):
        # The paper: scatter finishes in ceil(log2 P) steps; 10 procs -> 4.
        assert ceil_log2(10) == 4
        assert ceil_log2(8) == 3

    def test_rejects_bad_inputs(self):
        for fn in (next_power_of_two, prev_power_of_two, ceil_log2, floor_log2):
            with pytest.raises(ConfigurationError):
                fn(0)
