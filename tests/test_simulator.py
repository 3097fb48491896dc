"""Unit tests for :mod:`repro.runtime.simulator`."""

import pytest

from repro.core.baseline import BaselinePolicy
from repro.runtime.simulator import ApplicationRunner
from repro.workloads.registry import get_application


class TestRunner:
    def test_run_produces_all_launches(self, platform, space):
        app = get_application("CoMD")
        runner = ApplicationRunner(platform)
        result = runner.run(app, BaselinePolicy(space))
        assert len(result.trace) == app.total_launches()
        assert result.application == "CoMD"
        assert result.policy == "baseline"

    def test_metrics_match_trace(self, platform, space):
        app = get_application("Sort")
        runner = ApplicationRunner(platform)
        result = runner.run(app, BaselinePolicy(space))
        assert result.metrics.time == pytest.approx(result.trace.total_time())
        energy = sum(r.result.energy for r in result.trace.records)
        assert result.metrics.energy == pytest.approx(energy)

    def test_policy_drives_configs(self, platform, space, context):
        app = get_application("MaxFlops")
        runner = ApplicationRunner(platform)
        harmonia = context.harmonia_policy()
        result = runner.run(app, harmonia)
        configs = {r.config for r in result.trace.records}
        # Harmonia must have moved at least the memory bus off baseline.
        assert len(configs) > 1

    def test_reset_policy_flag(self, platform, space):
        app = get_application("XSBench")
        policy = BaselinePolicy(space)
        runner = ApplicationRunner(platform)
        runner.run(app, policy)
        # After reset_policy=True runs, the policy history starts fresh:
        assert policy.history_for(
            "XSBench.CalculateXS"
        ).last_result is not None  # history from the run itself

    def test_iterations_execute_in_order(self, platform, space):
        app = get_application("LUD")
        result = ApplicationRunner(platform).run(app, BaselinePolicy(space))
        iterations = [r.iteration for r in result.trace.records]
        assert iterations == sorted(iterations)
