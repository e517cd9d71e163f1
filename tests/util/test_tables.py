"""Tests for ASCII table and key/value rendering."""

import pytest

from repro.errors import ConfigurationError
from repro.util import Table


class TestTable:
    def test_basic_render(self):
        t = Table(["size", "bw"])
        t.add_row("1MiB", 123.456)
        text = t.render()
        lines = text.splitlines()
        assert "size" in lines[0] and "bw" in lines[0]
        assert "123.456" in lines[-1]
        assert "1MiB" in lines[-1]

    def test_title_and_rule(self):
        t = Table(["a"], title="Figure 6(a)")
        t.add_row(1)
        text = t.render()
        assert text.splitlines()[0] == "Figure 6(a)"
        assert set(text.splitlines()[1]) == {"="}

    def test_column_alignment(self):
        t = Table(["x", "verylongheader"])
        t.add_row(1, 2)
        t.add_row(100000, 3)
        header, sep, r1, r2 = t.render().splitlines()
        assert len(header) == len(sep) == len(r1) == len(r2)

    def test_custom_formats(self):
        t = Table(["pct"], formats=["+.1f"])
        t.add_row(12.345)
        assert "+12.3" in t.render()

    def test_callable_format(self):
        t = Table(["n"], formats=[lambda v: f"<{v}>"])
        t.add_row(7)
        assert "<7>" in t.render()

    def test_none_cell_renders_dash(self):
        t = Table(["v"])
        t.add_row(None)
        assert t.render().splitlines()[-1].strip() == "-"

    def test_row_arity_checked(self):
        t = Table(["a", "b"])
        with pytest.raises(ConfigurationError):
            t.add_row(1)

    def test_formats_arity_checked(self):
        with pytest.raises(ConfigurationError):
            Table(["a", "b"], formats=["d"])

    def test_needs_columns(self):
        with pytest.raises(ConfigurationError):
            Table([])

    def test_str_equals_render(self):
        t = Table(["a"])
        t.add_row(1)
        assert str(t) == t.render()

    def test_empty_table_renders_header_only(self):
        text = Table(["col"]).render()
        assert "col" in text
