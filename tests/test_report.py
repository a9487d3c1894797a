"""Tests for the plain-text report renderer."""

from repro.experiments.report import render_table


class TestRenderTable:
    def test_headers_and_rows_aligned(self):
        text = render_table(("a", "bb"), [(1, 2.5), (30, 4.25)])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert len(set(len(l) for l in lines[0:1])) == 1

    def test_title(self):
        text = render_table(("x",), [(1,)], title="My Table")
        assert text.startswith("My Table\n========")

    def test_float_formatting(self):
        text = render_table(("v",), [(1.23456,)])
        assert "1.23" in text and "1.2345" not in text

    def test_string_cells(self):
        text = render_table(("name", "n"), [("hello", 1)])
        assert "hello" in text

    def test_empty_rows(self):
        text = render_table(("a",), [])
        assert "a" in text

