"""Tests for table formatting and the linear fit."""

import pytest

from repro.harness.report import TableFormatter, fit_linear


def test_text_table_alignment():
    t = TableFormatter(["CPUs", "AMO"])
    t.add_row([4, 2.1])
    t.add_row([256, 61.94])
    text = t.to_text()
    lines = text.splitlines()
    assert lines[0].endswith("AMO")
    assert "61.94" in text
    # all rows same width
    assert len({len(line) for line in lines}) == 1


def test_markdown_table_structure():
    t = TableFormatter(["a", "b"], title="T")
    t.add_row([1, 2.5])
    md = t.to_markdown()
    assert "| a | b |" in md
    assert "|---:|---:|" in md
    assert "| 1 | 2.50 |" in md
    assert md.startswith("**T**")


def test_row_arity_checked():
    t = TableFormatter(["a", "b"])
    with pytest.raises(ValueError):
        t.add_row([1])


def test_float_format_override():
    t = TableFormatter(["x"], float_format="{:.0f}")
    t.add_row([3.7])
    assert "4" in t.to_text()


def test_fit_linear_exact():
    a, b, r2 = fit_linear([1, 2, 3, 4], [10, 12, 14, 16])
    assert a == pytest.approx(8.0)
    assert b == pytest.approx(2.0)
    assert r2 == pytest.approx(1.0)


def test_fit_linear_needs_two_points():
    with pytest.raises(ValueError):
        fit_linear([1], [1])


def test_fit_linear_constant_series():
    a, b, r2 = fit_linear([1, 2, 3], [5, 5, 5])
    assert b == pytest.approx(0.0)
    assert r2 == 1.0
