"""Differential suite: the batched session engine vs the scalar loop.

The batched controller engine (:mod:`repro.runtime.session`) promises
**bitwise identity** with :class:`~repro.runtime.simulator.
ApplicationRunner` for every policy, on clean and noisy platforms, for
any lane composition and order, on the calibrated applications and on
generated ones. The scalar path is the oracle; the tests run both and
compare traces, metrics and policy end-state exactly — no tolerances.
Policy evaluation itself must never take the scalar path
(:class:`TestOneEngine`).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.evaluation import EvaluationHarness
from repro.core.harmonia import HarmoniaPolicy
from repro.experiments.context import ExperimentContext
from repro.platform.hd7970 import HardwarePlatform, make_hd7970_platform
from repro.runtime.montecarlo import MonteCarloEngine
from repro.runtime.session import BatchSessionRunner, SessionSpec
from repro.runtime.simulator import ApplicationRunner
from repro.sensitivity.binning import SensitivityBins
from repro.telemetry.handle import Telemetry
from tests.strategies import applications


def _variant_policy(context) -> HarmoniaPolicy:
    """A retuned Harmonia variant: different bins, EWMA, phase threshold
    and FG pacing — exercises the group-signature path (it must never
    share a vector observer with the stock policy)."""
    training = context.training
    return HarmoniaPolicy(
        context.platform.config_space,
        training.compute,
        training.bandwidth,
        bins=SensitivityBins(low_edge=0.25, high_edge=0.65),
        monitor_alpha=0.6,
        phase_threshold=0.05,
        fg_patience=1,
        max_dithering=4,
        policy_name="harmonia-variant",
    )


POLICY_BUILDERS = (
    ("baseline", lambda ctx: ctx.baseline_policy()),
    ("cg-only", lambda ctx: ctx.cg_only_policy()),
    ("harmonia", lambda ctx: ctx.harmonia_policy()),
    ("dvfs-only", lambda ctx: ctx.dvfs_only_policy()),
    ("oracle", lambda ctx: ctx.oracle_policy()),
    ("variant", _variant_policy),
)

#: Phase-rich, iteration-heavy and stress workloads — the schedules that
#: exercise phase restarts, FG convergence and CG jumps hardest.
PROBE_APPS = ("Graph500", "miniFE", "MaxFlops", "Sort")


def _apps(context, names=PROBE_APPS):
    by_name = {app.name: app for app in context.applications}
    return [by_name[name] for name in names]


def _assert_runs_equal(scalar, batched):
    assert scalar.application == batched.application
    assert scalar.policy == batched.policy
    assert scalar.metrics == batched.metrics
    assert len(scalar.trace.records) == len(batched.trace.records)
    for expected, actual in zip(scalar.trace.records, batched.trace.records):
        assert expected.iteration == actual.iteration
        assert expected.kernel_name == actual.kernel_name
        assert expected.result == actual.result


def _assert_policy_state_equal(app, scalar_policy, batched_policy):
    """Post-run policy internals must match: the batched engine's numeric
    hand-back leaves exactly the scalar state behind."""
    if not isinstance(scalar_policy, HarmoniaPolicy):
        return
    assert scalar_policy.stats() == batched_policy.stats()
    seen = set()
    for _, kernel, _ in app.launches():
        if kernel.name in seen:
            continue
        seen.add(kernel.name)
        assert (scalar_policy.monitor.current(kernel.name)
                == batched_policy.monitor.current(kernel.name))


class TestPolicyEquivalence:
    @pytest.mark.parametrize("noisy", (False, True),
                             ids=("clean", "noisy"))
    @pytest.mark.parametrize(
        "build", [b for _, b in POLICY_BUILDERS],
        ids=[name for name, _ in POLICY_BUILDERS])
    def test_bitwise_identity(self, context, build, noisy):
        platform = (make_hd7970_platform(noise_std_fraction=0.05, seed=11)
                    if noisy else context.platform)
        for app in _apps(context):
            scalar_policy = build(context)
            batched_policy = build(context)
            scalar = ApplicationRunner(platform).run(app, scalar_policy)
            [batched] = BatchSessionRunner(platform).run_sessions(
                [SessionSpec(application=app, policy=batched_policy)]
            )
            _assert_runs_equal(scalar, batched)
            _assert_policy_state_equal(app, scalar_policy, batched_policy)

    def test_all_applications_harmonia(self, context):
        platform = context.platform
        for app in context.applications:
            scalar = ApplicationRunner(platform).run(
                app, context.harmonia_policy()
            )
            [batched] = BatchSessionRunner(platform).run_sessions(
                [SessionSpec(application=app,
                             policy=context.harmonia_policy())]
            )
            _assert_runs_equal(scalar, batched)


class TestLaneComposition:
    def test_mixed_lanes_match_scalar(self, context):
        """All six policies as concurrent lanes of one application."""
        platform = context.platform
        for app in _apps(context, ("Graph500", "Sort")):
            builders = [b for _, b in POLICY_BUILDERS]
            batched_policies = [b(context) for b in builders]
            outcomes = BatchSessionRunner(platform).run_sessions([
                SessionSpec(application=app, policy=policy)
                for policy in batched_policies
            ])
            for build, outcome in zip(builders, outcomes):
                scalar = ApplicationRunner(platform).run(app, build(context))
                _assert_runs_equal(scalar, outcome)

    def test_lane_permutation_invariance(self, context):
        """A lane's result must not depend on its position or peers."""
        platform = context.platform
        [app] = _apps(context, ("Graph500",))
        builders = [b for _, b in POLICY_BUILDERS]
        forward = BatchSessionRunner(platform).run_sessions([
            SessionSpec(application=app, policy=b(context))
            for b in builders
        ])
        backward = BatchSessionRunner(platform).run_sessions([
            SessionSpec(application=app, policy=b(context))
            for b in reversed(builders)
        ])
        for fwd, bwd in zip(forward, reversed(backward)):
            _assert_runs_equal(fwd, bwd)

    def test_per_lane_noisy_platforms(self, context):
        """Monte Carlo shape: one noisy platform per lane, one app."""
        [app] = _apps(context, ("miniFE",))
        platforms = [make_hd7970_platform(noise_std_fraction=0.05, seed=s)
                     for s in range(5)]
        outcomes = BatchSessionRunner(context.platform).run_sessions([
            SessionSpec(application=app, policy=context.harmonia_policy(),
                        platform=platform)
            for platform in platforms
        ])
        for platform, outcome in zip(platforms, outcomes):
            scalar = ApplicationRunner(platform).run(
                app, context.harmonia_policy()
            )
            _assert_runs_equal(scalar, outcome)

    def test_multiple_applications_in_one_call(self, context):
        apps = _apps(context, ("Sort", "MaxFlops"))
        sessions = [
            SessionSpec(application=app, policy=context.harmonia_policy())
            for app in apps
        ] + [
            SessionSpec(application=apps[0], policy=context.cg_only_policy())
        ]
        outcomes = BatchSessionRunner(context.platform).run_sessions(sessions)
        scalar0 = ApplicationRunner(context.platform).run(
            apps[0], context.harmonia_policy())
        scalar1 = ApplicationRunner(context.platform).run(
            apps[1], context.harmonia_policy())
        scalar2 = ApplicationRunner(context.platform).run(
            apps[0], context.cg_only_policy())
        _assert_runs_equal(scalar0, outcomes[0])
        _assert_runs_equal(scalar1, outcomes[1])
        _assert_runs_equal(scalar2, outcomes[2])


class TestScalarFallbacks:
    """Lanes the engine cannot prove equivalent must still be exact —
    they take the scalar path and the caller can't tell the difference."""

    def test_duplicate_policy_instance_goes_scalar(self, context):
        [app] = _apps(context, ("Sort",))
        shared = context.harmonia_policy()
        outcomes = BatchSessionRunner(context.platform).run_sessions([
            SessionSpec(application=app, policy=shared),
            SessionSpec(application=app, policy=shared),
        ])
        scalar = ApplicationRunner(context.platform).run(
            app, context.harmonia_policy())
        _assert_runs_equal(scalar, outcomes[0])
        _assert_runs_equal(scalar, outcomes[1])

    def test_platform_subclass_goes_scalar(self, context):
        [app] = _apps(context, ("Sort",))

        class _GovernedPlatform(HardwarePlatform):
            pass

        governed = make_hd7970_platform()
        governed.__class__ = _GovernedPlatform
        scalar = ApplicationRunner(governed).run(
            app, context.harmonia_policy())
        [batched] = BatchSessionRunner(governed).run_sessions(
            [SessionSpec(application=app, policy=context.harmonia_policy())]
        )
        _assert_runs_equal(scalar, batched)

    def test_telemetry_enabled_policy_goes_generic(self, context):
        """A policy with live telemetry is not fast-path eligible; it
        still batches at the platform layer and stays exact."""
        [app] = _apps(context, ("Graph500",))
        telemetry = Telemetry()
        scalar = ApplicationRunner(context.platform).run(
            app, context.harmonia_policy(telemetry=Telemetry()))
        [batched] = BatchSessionRunner(context.platform).run_sessions(
            [SessionSpec(application=app,
                         policy=context.harmonia_policy(telemetry=telemetry))]
        )
        _assert_runs_equal(scalar, batched)


class TestHarnessParity:
    """The evaluation harness runs on the batched engine only; its results
    must equal per-lane scalar oracle runs computed here."""

    def _assert_matches_oracle(self, context, summary, apps, builders):
        for app in apps:
            oracle = {}
            for build in builders:
                run = ApplicationRunner(context.platform).run(app, build())
                oracle[run.policy] = run
            assert summary.runs[app.name].keys() == oracle.keys()
            for name, run in oracle.items():
                _assert_runs_equal(run, summary.runs[app.name][name])
            for name, run in oracle.items():
                if name == "baseline":
                    continue
                comparison = summary.comparison(app.name, name)
                assert comparison.baseline == oracle["baseline"].metrics
                assert comparison.candidate == run.metrics

    def test_evaluate_batched_matches_scalar(self, context):
        apps = _apps(context, ("Sort", "miniFE"))
        summary = EvaluationHarness(
            context.platform, context.baseline_policy
        ).evaluate(apps, [context.harmonia_policy])
        self._assert_matches_oracle(
            context, summary, apps,
            (context.baseline_policy, context.harmonia_policy),
        )

    def test_evaluate_fanned_out_matches_scalar(self, context):
        apps = _apps(context, ("Sort", "Graph500"))
        summary = EvaluationHarness(
            context.platform, context.baseline_policy
        ).evaluate(apps, [context.harmonia_policy, context.cg_only_policy],
                   jobs=2)
        self._assert_matches_oracle(
            context, summary, apps,
            (context.baseline_policy, context.harmonia_policy,
             context.cg_only_policy),
        )

    def test_evaluate_montecarlo_batched_matches_scalar(self, context):
        apps = _apps(context, ("Sort", "Graph500"))
        summary = EvaluationHarness(
            context.platform, context.baseline_policy
        ).evaluate_montecarlo(apps, [context.harmonia_policy], seeds=4)
        engine = MonteCarloEngine(context.platform, 0.05, 4)
        for app in apps:
            policies = [context.baseline_policy(), context.harmonia_policy()]
            oracle_base, oracle_cand = engine.rollout(
                app, policies,
                references=[ApplicationRunner(context.platform).run(app, p)
                            for p in policies],
            )
            comparison = summary.comparison(app.name, "harmonia")
            for oracle, run in ((oracle_base, comparison.baseline),
                                (oracle_cand, comparison.candidate)):
                for field in ("time_samples", "energy_samples",
                              "avg_power_samples", "ed2_samples"):
                    np.testing.assert_array_equal(getattr(oracle, field),
                                                  getattr(run, field))


class TestOneEngine:
    """Policy evaluation makes no scalar ``ApplicationRunner.run`` call:
    every lane goes through ``BatchSessionRunner``."""

    @pytest.fixture
    def scalar_runs(self, monkeypatch):
        calls = []
        run = ApplicationRunner.run

        def counting(runner, application, policy, *args, **kwargs):
            calls.append((application.name, policy.name))
            return run(runner, application, policy, *args, **kwargs)

        monkeypatch.setattr(ApplicationRunner, "run", counting)
        return calls

    def test_context_evaluation(self, context, scalar_runs):
        summary = ExperimentContext(platform=context.platform,
                                    jobs=1).evaluation
        assert len(summary.comparisons) == 4 * len(context.applications)
        assert scalar_runs == []

    def test_run_ci(self, context, scalar_runs):
        from repro.experiments import fig10_13_evaluation
        fig10_13_evaluation.run_ci(context, seeds=2)
        assert scalar_runs == []

    def test_evaluate_montecarlo_without_references(self, context,
                                                    scalar_runs):
        apps = _apps(context, ("Sort", "MaxFlops"))
        summary = EvaluationHarness(
            context.platform, context.baseline_policy
        ).evaluate_montecarlo(apps, [context.harmonia_policy,
                                     context.oracle_policy],
                              seeds=2, references=None)
        assert len(summary.comparisons) == 4
        assert scalar_runs == []

    def test_bare_rollout(self, context, scalar_runs):
        [app] = _apps(context, ("Graph500",))
        engine = MonteCarloEngine(context.platform, 0.05, 2)
        runs = engine.rollout(app, [context.baseline_policy(),
                                    context.cg_only_policy(),
                                    context.harmonia_policy()])
        assert [run.policy for run in runs] == [
            "baseline", "cg-only", "harmonia"]
        assert scalar_runs == []


class TestGeneratedApplications:
    """Random 1-3 kernel applications: every baseline, CG-only and
    Harmonia lane of one ``run_sessions`` call equals that lane run alone
    through the scalar oracle, clean and on a seeded noisy platform."""

    @pytest.fixture(scope="class")
    def noisy_platform(self):
        return make_hd7970_platform(noise_std_fraction=0.05, seed=23)

    @settings(deadline=None, max_examples=20)
    @given(app=applications())
    def test_lanes_equal_scalar_runs(self, context, noisy_platform, app):
        builders = (context.baseline_policy, context.cg_only_policy,
                    context.harmonia_policy)
        for platform in (context.platform, noisy_platform):
            policies = [build() for build in builders]
            outcomes = BatchSessionRunner(platform).run_sessions([
                SessionSpec(application=app, policy=policy)
                for policy in policies
            ])
            for build, policy, outcome in zip(builders, policies, outcomes):
                scalar_policy = build()
                scalar = ApplicationRunner(platform).run(app, scalar_policy)
                _assert_runs_equal(scalar, outcome)
                _assert_policy_state_equal(app, scalar_policy, policy)
