"""Tests for the table/series reporting helpers."""

import pytest

from repro.report.series import Series, format_series
from repro.report.tables import Table, format_table


class TestTable:
    def test_render_aligns_columns(self):
        table = Table("Demo", ["name", "value"])
        table.add_row("alpha", 1)
        table.add_row("b", 23456)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert set(lines[1]) == {"="}
        header, sep, *rows = lines[2:]
        assert "name" in header and "value" in header
        assert all(len(r) <= len(header) + 10 for r in rows)
        assert "alpha" in rows[0] and "23456" in rows[1]

    def test_row_arity_checked(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError, match="2 columns"):
            table.add_row(1)

    def test_float_formatting(self):
        text = format_table("T", ["x"], [[0.123456], [1.5e-7], [0.0],
                                         [123456.0]])
        assert "0.1235" in text
        assert "1.500e-07" in text
        assert "1.235e+05" in text or "123456" in text

    def test_empty_table_renders(self):
        assert "T" in format_table("T", ["only"], [])

    def test_str_is_render(self):
        table = Table("T", ["a"])
        table.add_row(7)
        assert str(table) == table.render()


class TestSeries:
    def test_add_and_access(self):
        s = Series("loss")
        s.add(1, 0.5)
        s.add(2, 0.25)
        assert s.xs == [1.0, 2.0]
        assert s.ys == [0.5, 0.25]
        assert s.y_at(2) == 0.25

    def test_y_at_missing_raises(self):
        s = Series("loss")
        s.add(1, 0.5)
        with pytest.raises(KeyError):
            s.y_at(3)

    def test_format_series_joins_on_x(self):
        a = Series("a")
        a.add(1, 10)
        a.add(2, 20)
        b = Series("b")
        b.add(2, 200)
        text = format_series("Joined", [a, b], x_label="t")
        assert "Joined" in text and "t" in text
        # Missing points render as NaN.
        assert "nan" in text.lower()
        assert "200" in text
