"""The vectorized Monte Carlo evaluation engine.

Pins the contract documented in :mod:`repro.runtime.montecarlo`: each
trial of a non-adaptive policy reproduces a full scalar harness run on a
noisy platform with the trial's seed, bands summarize the trials, and the
fan-out path is serial-exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.evaluation import EvaluationHarness, EvaluationSummary
from repro.core.baseline import BaselinePolicy
from repro.core.oracle import OraclePolicy
from repro.errors import AnalysisError
from repro.platform.hd7970 import make_hd7970_platform
from repro.runtime.montecarlo import (
    MonteCarloEngine,
    band,
    geomean_band,
)
from repro.runtime.simulator import ApplicationRunner
from repro.workloads.registry import get_application

NOISE = 0.05
SEEDS = (0, 1, 2, 3)


@pytest.fixture(scope="module")
def engine():
    return MonteCarloEngine(make_hd7970_platform(), NOISE, SEEDS)


@pytest.fixture(scope="module")
def apps():
    return [get_application("MaxFlops"), get_application("BPT")]


class TestMetricBand:
    def test_band_math(self):
        b = band(np.array([1.0, 2.0, 3.0, 4.0]))
        assert b.mean == 2.5
        assert b.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert b.n == 4
        assert b.ci_low < b.mean < b.ci_high
        assert b.half_width == pytest.approx(1.96 * b.std / 2, rel=1e-3)

    def test_single_trial_has_zero_width(self):
        b = band(np.array([7.0]))
        assert b.mean == 7.0
        assert b.std == 0.0
        assert b.ci_low == b.ci_high == 7.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            band(np.array([]))


class TestEngineValidation:
    def test_noisy_platform_rejected(self):
        noisy = make_hd7970_platform(noise_std_fraction=0.05, seed=1)
        with pytest.raises(AnalysisError):
            MonteCarloEngine(noisy, NOISE, 2)

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(AnalysisError):
            MonteCarloEngine(make_hd7970_platform(), 0.0, 2)

    def test_empty_seeds_rejected(self):
        with pytest.raises(AnalysisError):
            MonteCarloEngine(make_hd7970_platform(), NOISE, [])

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(AnalysisError):
            MonteCarloEngine(make_hd7970_platform(), NOISE, [1, 1])

    def test_int_seeds_means_range(self):
        engine = MonteCarloEngine(make_hd7970_platform(), NOISE, 3)
        assert engine.seeds == (0, 1, 2)


class TestRollout:
    def test_trials_match_scalar_noisy_runs(self, engine, apps):
        """Trial s == a full scalar harness run at platform seed s."""
        for app in apps:
            run, = engine.rollout(app, [BaselinePolicy(
                engine.platform.config_space)])
            for idx, seed in enumerate(engine.seeds):
                noisy = make_hd7970_platform(noise_std_fraction=NOISE,
                                             seed=seed)
                scalar = ApplicationRunner(noisy).run(
                    app, BaselinePolicy(noisy.config_space))
                # Totals agree to summation tolerance (per-launch times
                # are bitwise equal; np.sum is pairwise, Python's is not).
                assert run.time_samples[idx] == pytest.approx(
                    scalar.metrics.time, rel=1e-12)
                assert run.energy_samples[idx] == pytest.approx(
                    scalar.metrics.energy, rel=1e-12)
                assert run.ed2_samples[idx] == pytest.approx(
                    scalar.metrics.ed2, rel=1e-12)

    def test_bands_summarize_samples(self, engine, apps):
        run, = engine.rollout(apps[0], [BaselinePolicy(
            engine.platform.config_space)])
        assert run.time.n == len(SEEDS)
        assert run.time.mean == pytest.approx(np.mean(run.time_samples))
        assert run.ed2.std > 0
        assert run.performance.mean == pytest.approx(
            np.mean(1.0 / run.time_samples))

    def test_rollouts_are_reproducible(self, engine, apps):
        a, = engine.rollout(apps[0], [BaselinePolicy(
            engine.platform.config_space)])
        b, = engine.rollout(apps[0], [BaselinePolicy(
            engine.platform.config_space)])
        np.testing.assert_array_equal(a.time_samples, b.time_samples)
        np.testing.assert_array_equal(a.energy_samples, b.energy_samples)

    def test_multi_policy_rollout_equals_single_rollouts(self, engine):
        """Sharing the noise derive across policies changes no sample."""
        app = get_application("Graph500")
        platform = engine.platform

        def policies():
            space = platform.config_space
            return [BaselinePolicy(space), OraclePolicy(platform),
                    BaselinePolicy(space)]

        together = engine.rollout(app, policies())
        assert [run.policy for run in together] == [
            "baseline", "oracle", "baseline"]
        for joint, policy in zip(together, policies()):
            alone, = engine.rollout(app, [policy])
            for field in ("time_samples", "energy_samples",
                          "avg_power_samples", "ed2_samples"):
                np.testing.assert_array_equal(getattr(joint, field),
                                              getattr(alone, field))

    def test_keys_beyond_one_block(self, apps, monkeypatch):
        """Chunked derivation equals one block holding every key."""
        import repro.runtime.montecarlo as montecarlo

        def rollout(block_keys):
            monkeypatch.setattr(montecarlo, "_BLOCK_KEYS", block_keys)
            engine = MonteCarloEngine(make_hd7970_platform(), NOISE, SEEDS)
            space = engine.platform.config_space
            return engine.rollout(apps[1], [BaselinePolicy(space),
                                            OraclePolicy(engine.platform)])

        for small, large in zip(rollout(3), rollout(10**6)):
            np.testing.assert_array_equal(small.ed2_samples,
                                          large.ed2_samples)

    def test_reference_count_must_match(self, engine, apps):
        policy = BaselinePolicy(engine.platform.config_space)
        with pytest.raises(AnalysisError):
            engine.rollout(apps[0], [policy], references=[None, None])
        with pytest.raises(AnalysisError):
            engine.rollout(apps[0], [])


class TestComparison:
    def test_baseline_vs_itself_is_null(self, engine, apps):
        space = engine.platform.config_space
        comparison = engine.compare(apps[0], BaselinePolicy(space),
                                    BaselinePolicy(space))
        assert comparison.ed2_improvement.mean == 0.0
        assert comparison.ed2_improvement.half_width == 0.0
        assert comparison.performance_delta.mean == 0.0

    def test_oracle_beats_baseline(self, engine, apps):
        space = engine.platform.config_space
        comparison = engine.compare(apps[1], BaselinePolicy(space),
                                    OraclePolicy(engine.platform))
        assert comparison.ed2_improvement.mean > 0
        assert comparison.energy_improvement.mean > 0

    def test_geomean_band_aggregates(self, engine, apps):
        space = engine.platform.config_space
        comparisons = [
            engine.compare(app, BaselinePolicy(space),
                           OraclePolicy(engine.platform))
            for app in apps
        ]
        geo = geomean_band(comparisons, "ed2_improvement")
        assert geo.n == len(SEEDS)
        means = [c.ed2_improvement.mean for c in comparisons]
        assert min(means) <= geo.mean <= max(means)
        with pytest.raises(AnalysisError):
            geomean_band(comparisons, "no_such_metric")
        with pytest.raises(AnalysisError):
            geomean_band([], "ed2_improvement")


class TestHarness:
    def test_evaluate_montecarlo_jobs_invariant(self, apps):
        def summarize(jobs):
            platform = make_hd7970_platform()
            harness = EvaluationHarness(
                platform, BaselinePolicy(platform.config_space))
            return harness.evaluate_montecarlo(
                apps,
                baseline_factory=lambda: BaselinePolicy(
                    platform.config_space),
                policy_factories=[lambda: OraclePolicy(platform)],
                seeds=SEEDS,
                noise_std_fraction=NOISE,
                jobs=jobs,
            )

        serial = summarize(1)
        fanned = summarize(3)
        paired = summarize(2)
        for a, b in zip(serial.comparisons, paired.comparisons):
            np.testing.assert_array_equal(a.candidate.ed2_samples,
                                          b.candidate.ed2_samples)
            np.testing.assert_array_equal(a.baseline.ed2_samples,
                                          b.baseline.ed2_samples)
        assert serial.seeds == fanned.seeds == SEEDS
        for a, b in zip(serial.comparisons, fanned.comparisons):
            assert a.application == b.application
            np.testing.assert_array_equal(a.candidate.time_samples,
                                          b.candidate.time_samples)
            np.testing.assert_array_equal(a.baseline.energy_samples,
                                          b.baseline.energy_samples)
        geo_a = serial.geomean("oracle", "ed2_improvement")
        geo_b = fanned.geomean("oracle", "ed2_improvement")
        assert geo_a == geo_b

    def test_summary_lookup(self, apps):
        platform = make_hd7970_platform()
        harness = EvaluationHarness(
            platform, BaselinePolicy(platform.config_space))
        summary = harness.evaluate_montecarlo(
            apps,
            baseline_factory=lambda: BaselinePolicy(platform.config_space),
            policy_factories=[lambda: OraclePolicy(platform)],
            seeds=2,
            noise_std_fraction=NOISE,
        )
        cell = summary.comparison("MaxFlops", "oracle")
        assert cell.application == "MaxFlops"
        assert len(summary.for_policy("oracle")) == 2
        with pytest.raises(AnalysisError):
            summary.for_policy("nonexistent")
        with pytest.raises(AnalysisError):
            summary.comparison("MaxFlops", "nonexistent")


class TestEvaluationReferences:
    """``references=`` reuses an evaluation's deterministic runs."""

    APPS = ("MaxFlops", "BPT")

    def _summarize(self, context, jobs, references=None):
        if jobs > 1:
            _ = context.training
        harness = EvaluationHarness(context.platform,
                                    context.baseline_policy())
        return harness.evaluate_montecarlo(
            [context.application(name) for name in self.APPS],
            baseline_factory=context.baseline_policy,
            policy_factories=[context.cg_only_policy,
                              context.harmonia_policy,
                              context.oracle_policy],
            seeds=SEEDS,
            noise_std_fraction=NOISE,
            jobs=jobs,
            references=references,
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matches_recomputed_references(self, context, jobs):
        recomputed = self._summarize(context, jobs)
        reused = self._summarize(context, jobs, context.evaluation)
        assert len(reused.comparisons) == len(self.APPS) * 3
        for a, b in zip(recomputed.comparisons, reused.comparisons):
            assert (a.application, a.policy) == (b.application, b.policy)
            for run_a, run_b in ((a.baseline, b.baseline),
                                 (a.candidate, b.candidate)):
                for field in ("time_samples", "energy_samples",
                              "avg_power_samples", "ed2_samples"):
                    np.testing.assert_array_equal(getattr(run_a, field),
                                                  getattr(run_b, field))

    def test_run_ci_runs_no_reference_lanes(self, context, monkeypatch):
        from repro.experiments import fig10_13_evaluation
        from repro.runtime.session import BatchSessionRunner

        _ = context.evaluation
        lanes = []
        run_sessions = BatchSessionRunner.run_sessions

        def counting(runner, specs):
            lanes.extend(specs)
            return run_sessions(runner, specs)

        monkeypatch.setattr(BatchSessionRunner, "run_sessions", counting)
        summary = fig10_13_evaluation.run_ci(context, seeds=2)
        assert lanes == []
        assert len(summary.comparisons) == 3 * len(context.applications)

    def test_missing_run_is_named(self, context):
        evaluation = context.evaluation
        runs = {app: dict(per_app) for app, per_app in evaluation.runs.items()}
        del runs["BPT"]["harmonia"]
        partial = EvaluationSummary(comparisons=evaluation.comparisons,
                                    runs=runs)
        with pytest.raises(AnalysisError, match=r"'BPT'.*'harmonia'"):
            self._summarize(context, 1, partial)


class TestCli:
    def test_montecarlo_subcommand(self, capsys):
        from repro.cli import main

        code = main(["montecarlo", "MaxFlops", "--policy", "oracle",
                     "--seeds", "2", "--noise", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Monte Carlo" in out
        assert "MaxFlops" in out

    def test_montecarlo_unknown_app(self, capsys):
        from repro.cli import main

        code = main(["montecarlo", "NoSuchApp", "--seeds", "2"])
        assert code == 2
