"""Unit tests for :mod:`repro.analysis.report` and the telemetry-report
eventsim line."""

import pytest

from repro.analysis.report import format_table, percent, to_csv
from repro.errors import AnalysisError
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.report import eventsim_engine_from_metrics


class TestFormatTable:
    def test_basic_rendering(self):
        table = format_table(("a", "b"), [("x", "1"), ("long-cell", "2")])
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "long-cell" in lines[3]

    def test_title(self):
        table = format_table(("a",), [("x",)], title="My Title")
        assert table.splitlines()[0] == "My Title"

    def test_columns_aligned(self):
        table = format_table(("col",), [("a",), ("bbb",)])
        lines = table.splitlines()
        assert len(lines[1]) == len(lines[2]) == len(lines[3])

    def test_numbers_stringified(self):
        table = format_table(("n",), [(42,)])
        assert "42" in table

    def test_width_mismatch_raises(self):
        with pytest.raises(AnalysisError):
            format_table(("a", "b"), [("only-one",)])

    def test_empty_headers_raise(self):
        with pytest.raises(AnalysisError):
            format_table((), [])


class TestCsv:
    def test_basic(self):
        csv = to_csv(("a", "b"), [("1", "2"), ("3", "4")])
        assert csv == "a,b\n1,2\n3,4"

    def test_width_mismatch(self):
        with pytest.raises(AnalysisError):
            to_csv(("a",), [("1", "2")])

    def test_comma_in_cell_rejected(self):
        with pytest.raises(AnalysisError):
            to_csv(("a",), [("1,2",)])


class TestPercent:
    def test_positive(self):
        assert percent(0.123) == "+12.3%"

    def test_negative(self):
        assert percent(-0.036) == "-3.6%"

    def test_digits(self):
        assert percent(0.12345, digits=2) == "+12.35%"


class TestEventsimEngineLine:
    def test_lanes_give_one_line(self):
        registry = MetricsRegistry()
        registry.counter("eventsim_batch_lanes_total").inc(675)
        assert eventsim_engine_from_metrics(registry.as_dict()) == (
            "eventsim: 675 lanes via the batched lockstep engine")

    def test_no_eventsim_series_gives_none(self):
        registry = MetricsRegistry()
        registry.counter("sweep_store_hits_total").inc(kind="grid")
        assert eventsim_engine_from_metrics(registry.as_dict()) is None
