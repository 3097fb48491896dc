"""Tests for :mod:`repro.experiments.context`."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.experiments.context import ExperimentContext, default_context


class TestContext:
    def test_applications_cached(self, context):
        assert context.applications is context.applications

    def test_application_lookup(self, context):
        assert context.application("BPT").name == "BPT"

    def test_unknown_application(self, context):
        with pytest.raises(KeyError):
            context.application("nope")

    def test_training_cached(self, context):
        assert context.training is context.training

    def test_evaluation_cached(self, context):
        assert context.evaluation is context.evaluation

    def test_policy_factories_fresh(self, context):
        assert context.harmonia_policy() is not context.harmonia_policy()
        assert context.baseline_policy() is not context.baseline_policy()

    def test_policy_names(self, context):
        assert context.harmonia_policy().name == "harmonia"
        assert context.cg_only_policy().name == "cg-only"
        assert context.dvfs_only_policy().name == "dvfs-only"
        assert context.oracle_policy().name == "oracle"
        assert context.baseline_policy().name == "baseline"

    def test_default_context_is_singleton(self):
        assert default_context() is default_context()

    def test_evaluation_covers_all_policies(self, evaluation):
        policies = {c.policy for c in evaluation.comparisons}
        assert policies == {"cg-only", "harmonia", "oracle", "dvfs-only"}


class TestJobsFanOut:
    """The fan-out's policy factories read the training report from
    worker threads while the building thread holds the build lock."""

    def test_parallel_evaluation_finishes(self, context):
        built = []
        worker = threading.Thread(
            target=lambda: built.append(ExperimentContext(jobs=2).evaluation),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=180)
        assert built, "ExperimentContext(jobs=2).evaluation did not finish"
        assert built[0].comparisons == context.evaluation.comparisons

    def test_cli_evaluate_jobs_invariant(self, tmp_path):
        def evaluate(jobs):
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "evaluate",
                 "--seeds", "4", "--noise", "0.05", "--jobs", str(jobs),
                 "--cache-dir", str(tmp_path)],
                capture_output=True, timeout=180,
                env={**os.environ, "PYTHONPATH": str(
                    Path(__file__).resolve().parent.parent / "src")},
            )
            assert completed.returncode == 0, completed.stderr
            return completed.stdout

        assert evaluate(2) == evaluate(1)
