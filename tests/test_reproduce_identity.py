"""Reports are byte-identical in every reproduce execution mode.

The tentpole invariant of the pipeline scheduler: serial, parallel
(``--jobs N``) and warm-incremental (manifest-served) runs must emit
exactly the same report bytes — parallelism and caching are pure
accelerators, never observable in the output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


def run_reproduce(tmp_path, leg, extra):
    out = tmp_path / f"reports-{leg}"
    argv = ["reproduce", "--output", str(out),
            "--cache-dir", str(tmp_path / "store")] + extra
    assert main(argv) == 0
    return out


def report_bytes(directory):
    files = sorted(directory.glob("*.txt"))
    assert files, f"no reports in {directory}"
    return {path.name: path.read_bytes() for path in files}


class TestReproduceByteIdentity:
    @pytest.fixture(autouse=True)
    def _detach_after(self):
        from repro.platform.store import attach_store
        yield
        attach_store(None)

    def test_serial_parallel_and_warm_are_identical(self, tmp_path, capsys):
        serial = run_reproduce(tmp_path, "serial", ["--jobs", "1"])
        parallel = run_reproduce(
            tmp_path, "parallel", ["--jobs", "4", "--no-incremental"])
        profile = tmp_path / "profile.json"
        warm = run_reproduce(
            tmp_path, "warm",
            ["--jobs", "0", "--profile-json", str(profile)])
        capsys.readouterr()

        baseline = report_bytes(serial)
        assert report_bytes(parallel) == baseline
        assert report_bytes(warm) == baseline
        assert len(baseline) == 26

        # The warm leg must have served every report node from the
        # manifest and executed nothing.
        nodes = json.loads(profile.read_text())["nodes"]
        by_status = {}
        for node in nodes:
            by_status.setdefault(node["status"], []).append(node["node"])
        assert len(by_status.get("manifest", [])) == 26
        assert "ran" not in by_status
        assert set(by_status.get("pruned", [])) == {"training", "evaluation"}

    def test_no_incremental_recomputes_despite_manifest(self, tmp_path,
                                                        capsys):
        run_reproduce(tmp_path, "first", ["--jobs", "1"])
        profile = tmp_path / "p2.json"
        run_reproduce(
            tmp_path, "second",
            ["--jobs", "1", "--no-incremental",
             "--profile-json", str(profile)])
        capsys.readouterr()
        nodes = json.loads(profile.read_text())["nodes"]
        assert all(node["status"] == "ran" for node in nodes)


class TestWarmPathImports:
    """A warm ``reproduce`` serves every report without numpy."""

    PROBE = (
        "import sys\n"
        "from repro.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "numpy = sorted(m for m in sys.modules\n"
        "               if m == 'numpy' or m.startswith('numpy.'))\n"
        "print('NUMPY_MODULES', numpy, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )

    def reproduce(self, tmp_path, leg):
        src = Path(__file__).resolve().parent.parent / "src"
        out = tmp_path / f"reports-{leg}"
        completed = subprocess.run(
            [sys.executable, "-c", self.PROBE, "reproduce",
             "--output", str(out), "--cache-dir", str(tmp_path / "store")],
            capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert completed.returncode == 0, completed.stderr
        numpy_line = completed.stderr.strip().splitlines()[-1]
        return out, numpy_line

    def test_warm_run_loads_no_numpy_and_matches_cold(self, tmp_path):
        cold, cold_numpy = self.reproduce(tmp_path, "cold")
        warm, warm_numpy = self.reproduce(tmp_path, "warm")
        assert cold_numpy != "NUMPY_MODULES []"  # the cold run computes
        assert warm_numpy == "NUMPY_MODULES []"
        baseline = report_bytes(cold)
        assert len(baseline) == 26
        assert report_bytes(warm) == baseline
