"""Tests for the plain-text table rendering."""

import pytest

from repro.analysis.tables import format_table
from repro.errors import ConfigurationError


class TestTables:
    def test_basic_table(self):
        text = format_table(
            ("a", "b"), [(1, "x"), (22, "yy")], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert lines[2].startswith("-")
        assert len(lines) == 5

    def test_alignment(self):
        text = format_table(("col",), [("short",), ("much longer",)])
        lines = text.splitlines()
        assert len(lines[1]) == len("much longer")

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            format_table(("a", "b"), [(1,)])

    def test_float_formatting(self):
        text = format_table(("v",), [(1234567.0,), (0.25,), (0.0,)])
        assert "1.235e+06" in text
        assert "0.25" in text

    def test_series(self):
        # Figure series render as titled two-column tables.
        text = format_table(("x", "y"), [(1, 2.0)], title="S")
        assert text.splitlines()[0] == "S"
        assert "x" in text and "y" in text
