"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults_to_harmonia(self):
        args = build_parser().parse_args(["run", "CoMD"])
        assert args.policy == "harmonia"

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "CoMD", "--policy", "magic"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "14 applications" in out
        assert "Graph500" in out

    def test_run(self, capsys):
        assert main(["run", "XSBench", "--policy", "cg-only"]) == 0
        out = capsys.readouterr().out
        assert "XSBench" in out
        assert "ED2" in out
        assert "residency" in out

    def test_run_unknown_app(self, capsys):
        assert main(["run", "NoSuchApp"]) == 2
        assert "unknown application" in capsys.readouterr().err

    def test_sweep(self, capsys):
        assert main(["sweep", "SRAD.Prepare"]) == 0
        out = capsys.readouterr().out
        assert "min ED2" in out

    def test_sweep_unknown_kernel(self, capsys):
        assert main(["sweep", "No.Such"]) == 2
        assert "unknown kernel" in capsys.readouterr().err

    def test_figure_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "DPM2" in capsys.readouterr().out

    def test_figure_fig07(self, capsys):
        assert main(["figure", "fig07"]) == 0
        assert "occupancy" in capsys.readouterr().out

    def test_figure_fig05(self, capsys):
        assert main(["figure", "fig05"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err


class TestReproduce:
    def test_reproduce_writes_reports(self, tmp_path, capsys):
        assert main(["reproduce", "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "reports written" in out
        assert "sweep cache:" in out  # the cache-effectiveness summary
        written = list(tmp_path.glob("*.txt"))
        assert len(written) >= 20
        # The headline figure must be among them, with its geomeans.
        fig10 = (tmp_path / "fig10_ed2.txt").read_text()
        assert "geomean" in fig10


class TestSweepStoreFlags:
    """--cache-dir / --no-cache and the telemetry-report --metrics line."""

    @pytest.fixture(autouse=True)
    def _detach_after(self):
        from repro.platform.store import attach_store
        yield
        attach_store(None)

    def test_cache_dir_persists_no_grid_records(self, tmp_path, capsys):
        """Grid surfaces stay in memory: a sweep attaches the store but
        writes nothing to it."""
        from repro.platform.store import attached_store
        from repro.platform.sweepcache import shared_cache
        shared_cache().clear()  # cold memory tier, like a fresh process
        store_dir = tmp_path / "store"
        assert main(["sweep", "SRAD.Prepare",
                     "--cache-dir", str(store_dir)]) == 0
        assert attached_store().root == store_dir
        assert list(store_dir.iterdir()) == []

    def test_no_cache_disables_the_store(self, tmp_path, capsys):
        from repro.platform.store import attached_store
        assert main(["sweep", "SRAD.Prepare", "--no-cache"]) == 0
        assert attached_store() is None

    def test_unusable_cache_dir_degrades_with_warning(self, tmp_path,
                                                      capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        assert main(["sweep", "SRAD.Prepare",
                     "--cache-dir", str(blocker)]) == 0
        captured = capsys.readouterr()
        assert "sweep store disabled" in captured.err
        assert "min ED2" in captured.out

    def test_telemetry_report_metrics_line(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(["run", "XSBench", "--policy", "cg-only",
                     "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["telemetry-report", str(trace),
                     "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "sweep cache:" in out
        assert re.search(r"^sweep cache: \d+ lookups, \d+ hits / \d+ misses "
                         r"— \d+% served without recompute", out, re.M)

    def test_telemetry_report_metrics_unreadable(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["run", "XSBench", "--policy", "cg-only",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["telemetry-report", str(trace),
                     "--metrics", str(tmp_path / "absent.json")]) == 2
        assert "unreadable metrics file" in capsys.readouterr().err


def _ledger_module():
    import sys
    from pathlib import Path

    repo_root = Path(__file__).resolve().parent.parent
    if str(repo_root) not in sys.path:
        sys.path.insert(0, str(repo_root))
    from benchmarks import ledger
    return ledger


class TestObservabilityCli:
    """Traced reproduce, span/metrics reports, and bench-report."""

    @pytest.fixture(autouse=True)
    def _detach_after(self):
        from repro.platform.store import attach_store
        yield
        attach_store(None)

    def test_traced_reproduce_nests_everything(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(["reproduce", "--output", str(tmp_path / "out"),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "span trace:" in out and "metrics written to" in out

        from repro.telemetry.spans import load_chrome_trace, span_tree
        records = load_chrome_trace(trace)
        (root,) = span_tree(records)  # a single tree covers the whole run
        assert root.record.name == "reproduce"
        names = {r.name for r in records}
        assert any(name.startswith("pipeline.") for name in names)

        # Spans double as the span report; metrics as Prometheus text.
        capsys.readouterr()
        assert main(["telemetry-report", "--spans", str(trace)]) == 0
        report = capsys.readouterr().out
        assert "critical path" in report.lower()
        assert "reproduce" in report
        assert main(["telemetry-report", "--metrics", str(metrics),
                     "--prometheus"]) == 0
        exposition = capsys.readouterr().out
        assert "# TYPE" in exposition
        assert "sweep_cache_hits_total" in exposition

    def test_telemetry_report_spans_missing_file(self, tmp_path, capsys):
        assert main(["telemetry-report",
                     "--spans", str(tmp_path / "gone.json")]) == 2
        assert "no such span trace" in capsys.readouterr().err

    def test_bench_report_on_committed_ledger(self, capsys):
        assert main(["bench-report"]) == 0
        out = capsys.readouterr().out
        assert "run(s)" in out
        assert "[gated]" in out

    def test_bench_report_empty_ledger_exits_2(self, tmp_path, capsys):
        assert main(["bench-report",
                     "--ledger", str(tmp_path / "none.jsonl")]) == 2
        assert "no entries" in capsys.readouterr().err

    def test_bench_report_check_gates_regressions(self, tmp_path, capsys):
        ledger = _ledger_module()
        path = tmp_path / "ledger.jsonl"
        for speedup in (30.0, 31.0, 29.5, 3.0):  # last run: 10x slower
            ledger.append_entry(path, ledger.LedgerEntry(
                bench="pipeline", recorded_at="2026-08-01T00:00:00+00:00",
                metrics={"warm_speedup": speedup}))
        assert main(["bench-report", "--ledger", str(path)]) == 0
        capsys.readouterr()
        assert main(["bench-report", "--ledger", str(path),
                     "--check"]) == 1
        assert "regression" in capsys.readouterr().out
