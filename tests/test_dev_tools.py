"""Smoke runs of the dev scripts under ``tools/`` that drive the model.

Nothing else executes them, and both import the evaluation and runner
APIs, so an API change that breaks either script fails here.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

from repro.workloads.registry import application_names

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.mark.parametrize("script, marker", [
    ("headline.py", "geomean1 "),
    ("diagnose.py", "=== "),
])
def test_script_reports_every_application(script, marker, capsys):
    runpy.run_path(str(TOOLS / script), run_name="__main__")
    out = capsys.readouterr().out
    assert marker in out
    for name in application_names():
        assert name in out
