"""Unit tests for :mod:`repro.analysis.report` and the telemetry-report
eventsim and sweep-cache lines."""

import pytest

from repro.analysis.report import format_table, percent, to_csv
from repro.errors import AnalysisError
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.report import (
    cache_effectiveness_from_metrics, eventsim_engine_from_metrics,
    format_cache_effectiveness)


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
        registry.counter("sweep_store_hits_total").inc(kind="eventsim")
        assert eventsim_engine_from_metrics(registry.as_dict()) is None


class TestCacheEffectivenessLine:
    def test_lookups_and_store_io(self):
        assert format_cache_effectiveness(
            363, 106, bytes_read=0, bytes_written=44 * 1024) == (
            "sweep cache: 469 lookups, 363 hits / 106 misses — 77% served "
            "without recompute; store I/O 0 KiB read, 44 KiB written")

    def test_unused_cache_without_store_io(self):
        assert format_cache_effectiveness(0, 0) == (
            "sweep cache: 0 lookups, 0 hits / 0 misses — 0% served "
            "without recompute")

    def test_line_from_metrics_export(self):
        registry = MetricsRegistry()
        registry.counter("sweep_cache_hits_total").inc(3)
        registry.counter("sweep_cache_misses_total").inc(1)
        registry.counter("sweep_store_bytes").inc(2048, direction="read")
        assert cache_effectiveness_from_metrics(registry.as_dict()) == (
            "sweep cache: 4 lookups, 3 hits / 1 misses — 75% served "
            "without recompute; store I/O 2 KiB read, 0 KiB written")

    def test_no_cache_series_gives_none(self):
        registry = MetricsRegistry()
        registry.counter("eventsim_batch_lanes_total").inc(675)
        assert cache_effectiveness_from_metrics(registry.as_dict()) is None
