"""Tests of the CLI benchmark itself.

Run from the repository root: ``python3 -m pytest clibench/tests -q``.
Each benchmark run here is as short as the runner allows (one timed
invocation after set-up), so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Traced counts each workload must show, per the benchmark's design:
#: only the cold run simulates events and writes the store, only the
#: warm run is served by the manifest, only evaluate draws noise.
EXPECTED_COUNTS = {
    "reproduce-cold": {"eventsim.lanes": 675, "noise.multipliers_for_calls": 0,
                       "manifest.hits": 0, "session.scalar_runs": 47,
                       "eventsim.scalar_runs": 0},
    "reproduce-warm": {"eventsim.lanes": 0, "noise.multipliers_for_calls": 0,
                       "manifest.hits": 26, "store.save_calls": 0,
                       "session.scalar_runs": 0, "eventsim.scalar_runs": 0},
    "evaluate-noisy": {"eventsim.lanes": 0,
                       "noise.multipliers_for_calls": 50432,
                       "manifest.hits": 0, "store.save_calls": 0,
                       "session.scalar_runs": 0, "eventsim.scalar_runs": 0},
}


def printed_metrics(text):
    """``name -> (value, unit)`` of the indented metric lines."""
    return {cells[0]: (float(cells[1]), cells[2])
            for cells in (line.split() for line in text
                          if line.startswith("  "))}


def bench(capsys, *argv):
    """Run the benchmark in-process; (human lines, parsed result line)."""
    status = run.main(["--seed", "7", "--seconds", "0", *argv])
    lines = capsys.readouterr().out.strip().splitlines()
    assert status == 0
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(capsys, workload):
    text, result = bench(capsys, "--workload", workload, "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.SETUP_REPEATS + 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["paper_ed2_max_err_pp"]["value"] == 1.2
    assert result["metrics"]["eventsim_dev_mean_pct"]["value"] == 3.1
    printed = printed_metrics(text)
    for name, unit in run.END_TO_END + run.REPORTED_ONLY:
        assert printed[name][1] == unit
    assert printed["error_rate"][0] == 0.0
    assert printed["paper_ed2_avg_err_pp"][0] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_counts(capsys, workload):
    _, result = bench(capsys, "--workload", workload, "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    values = {n: m["value"] for n, m in result["metrics"].items()}
    for name, count in EXPECTED_COUNTS[workload].items():
        assert values[name] == count, name
    if workload == "reproduce-cold":
        assert values["store.save_calls"] > 0
    assert values["store.invalid_records"] == 0


def test_wrong_reference_digest_fails_every_invocation(capsys, tmp_path,
                                                       monkeypatch):
    reference = json.loads(run.REFERENCE.read_text())
    reference["reproduce"]["fig10_ed2"] = "0" * 64
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", wrong)
    text, result = bench(capsys, "--workload", "reproduce-warm", "--trace",
                         "0")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert printed_metrics(text)["error_rate"] == (1.0, "ratio")


def test_wrappers_are_removed_after_the_traced_run(capsys):
    import repro.cli
    from repro.platform.store import SweepStore
    from repro.runtime.pipeline import ExperimentPipeline

    originals = (ExperimentPipeline.run, SweepStore.__init__)
    probe = tracer.Tracer()
    with probe.installed():
        assert tracer.leftover_wrappers()
        assert ExperimentPipeline.run is not originals[0]
        assert repro.cli.main(["list"]) == 0
    capsys.readouterr()
    assert tracer.leftover_wrappers() == []
    assert (ExperimentPipeline.run, SweepStore.__init__) == originals


def test_exits_nonzero_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH_DIR, tmp_path / "clibench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "clibench/run.py", "--workload", "reproduce-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
