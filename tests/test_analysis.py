"""Tests for result-table formatting."""

import pytest

from repro.analysis.tables import format_table


class TestFormatTable:
    def test_basic_alignment(self):
        text = format_table([
            {"name": "a", "value": 1.5},
            {"name": "bb", "value": 22},
        ])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_column_selection_and_order(self):
        text = format_table([{"b": 2, "a": 1}])
        header = text.splitlines()[0]
        assert header.index("b") < header.index("a")

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError):
            format_table([{"a": 1, "b": 2}, {"a": 1}])

    def test_empty_rows(self):
        assert format_table([]) == "(no rows)"
