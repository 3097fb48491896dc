"""The Figures 10-13 policy-comparison harness.

Runs every application under every policy, normalizes to the baseline, and
produces exactly the rows the paper's result figures plot: per-application
ED² / energy / power improvements and performance deltas, plus the two
geometric means ("Geomean 2 ... excludes those two stress benchmarks").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import AnalysisError
from repro.core.policy import PowerPolicy
from repro.platform.hd7970 import HardwarePlatform
from repro.runtime.metrics import RunMetrics, geomean, improvement
from repro.runtime.montecarlo import (
    MetricBand,
    MonteCarloComparison,
    MonteCarloEngine,
    geomean_band,
)
from repro.runtime.parallel import fan_out
from repro.runtime.simulator import ApplicationRunner, RunResult
from repro.workloads.application import Application
from repro.workloads.registry import STRESS_BENCHMARKS

#: A zero-argument constructor of a fresh policy instance, used to give
#: each parallel worker its own stateful policy.
PolicyFactory = Callable[[], PowerPolicy]


@dataclass(frozen=True)
class ApplicationComparison:
    """One application's outcome under one policy, vs. the baseline."""

    application: str
    policy: str
    baseline: RunMetrics
    candidate: RunMetrics

    @property
    def ed2_improvement(self) -> float:
        """Fractional ED² improvement over the baseline (Figure 10)."""
        return improvement(self.baseline.ed2, self.candidate.ed2)

    @property
    def energy_improvement(self) -> float:
        """Fractional energy improvement over the baseline (Figure 11)."""
        return improvement(self.baseline.energy, self.candidate.energy)

    @property
    def power_saving(self) -> float:
        """Fractional average-power saving over the baseline (Figure 12)."""
        return improvement(self.baseline.avg_power, self.candidate.avg_power)

    @property
    def performance_delta(self) -> float:
        """Relative performance change (Figure 13); negative = slowdown."""
        return self.baseline.time / self.candidate.time - 1.0

    @property
    def ed_improvement(self) -> float:
        """Fractional ED improvement (the Section 3.4 companion metric)."""
        return improvement(self.baseline.ed, self.candidate.ed)


@dataclass(frozen=True)
class EvaluationSummary:
    """All policies x all applications, with the paper's two geomeans."""

    comparisons: Tuple[ApplicationComparison, ...]
    runs: Mapping[str, Mapping[str, RunResult]]

    def for_policy(self, policy: str) -> Tuple[ApplicationComparison, ...]:
        """All per-application comparisons of one policy."""
        rows = tuple(c for c in self.comparisons if c.policy == policy)
        if not rows:
            raise AnalysisError(f"no comparisons for policy {policy!r}")
        return rows

    def comparison(self, application: str, policy: str) -> ApplicationComparison:
        """One application x policy cell."""
        for c in self.comparisons:
            if c.application == application and c.policy == policy:
                return c
        raise AnalysisError(f"no comparison for {application!r} x {policy!r}")

    def _geomean_of(self, policy: str, attribute: str,
                    exclude_stress: bool) -> float:
        rows = self.for_policy(policy)
        if exclude_stress:
            rows = tuple(r for r in rows if r.application not in STRESS_BENCHMARKS)
        if attribute == "performance_delta":
            # delta = baseline_time / candidate_time - 1; the ratio
            # (1 + delta) is positive by construction.
            return geomean(1.0 + r.performance_delta for r in rows) - 1.0
        # Improvement metrics are (baseline - candidate) / baseline; the
        # geomean must run over the positive candidate/baseline ratios —
        # a candidate can be arbitrarily worse than baseline (ratio > 2),
        # where naive geomean over (1 + improvement) would go negative.
        return 1.0 - geomean(1.0 - getattr(r, attribute) for r in rows)

    def geomean(self, policy: str, attribute: str,
                exclude_stress: bool = False) -> float:
        """Geomean of any comparison attribute for one policy."""
        return self._geomean_of(policy, attribute, exclude_stress)

    def geomean_ed2(self, policy: str, exclude_stress: bool = False) -> float:
        """Geomean ED² improvement (Geomean 1, or Geomean 2 if excluding
        the MaxFlops/DeviceMemory stress benchmarks)."""
        return self._geomean_of(policy, "ed2_improvement", exclude_stress)

    def geomean_energy(self, policy: str, exclude_stress: bool = False) -> float:
        """Geomean energy improvement."""
        return self._geomean_of(policy, "energy_improvement", exclude_stress)

    def geomean_power(self, policy: str, exclude_stress: bool = False) -> float:
        """Geomean power saving."""
        return self._geomean_of(policy, "power_saving", exclude_stress)

    def geomean_performance(self, policy: str,
                            exclude_stress: bool = False) -> float:
        """Geomean performance delta."""
        return self._geomean_of(policy, "performance_delta", exclude_stress)


@dataclass(frozen=True)
class MonteCarloSummary:
    """All policies x all applications under repeated-trial noise.

    The Monte Carlo analogue of :class:`EvaluationSummary`: every cell is
    a seed-paired :class:`~repro.runtime.montecarlo.MonteCarloComparison`
    whose improvement metrics carry mean/std/95% CI bands instead of
    point values.
    """

    comparisons: Tuple[MonteCarloComparison, ...]
    seeds: Tuple[int, ...]
    noise_std_fraction: float

    def for_policy(self, policy: str) -> Tuple[MonteCarloComparison, ...]:
        """All per-application comparisons of one policy."""
        rows = tuple(c for c in self.comparisons if c.policy == policy)
        if not rows:
            raise AnalysisError(f"no comparisons for policy {policy!r}")
        return rows

    def comparison(self, application: str,
                   policy: str) -> MonteCarloComparison:
        """One application x policy cell."""
        for c in self.comparisons:
            if c.application == application and c.policy == policy:
                return c
        raise AnalysisError(f"no comparison for {application!r} x {policy!r}")

    def geomean(self, policy: str, attribute: str,
                exclude_stress: bool = False) -> MetricBand:
        """Banded geomean of a comparison attribute for one policy.

        The geomean runs over applications within each trial seed and is
        banded across seeds, so the CI reflects what repeated measurement
        campaigns of the whole suite would report.
        """
        rows = self.for_policy(policy)
        if exclude_stress:
            rows = tuple(r for r in rows
                         if r.application not in STRESS_BENCHMARKS)
        if not rows:
            raise AnalysisError("no applications left after exclusion")
        return geomean_band(rows, attribute)


def _reference_run(summary: EvaluationSummary, application: str,
                   policy: str) -> RunResult:
    """The deterministic run of one (application, policy) pair."""
    run = summary.runs.get(application, {}).get(policy)
    if run is None:
        raise AnalysisError(
            f"reference evaluation has no run of {application!r} "
            f"under policy {policy!r}"
        )
    return run


class EvaluationHarness:
    """Runs the full policy-comparison matrix."""

    def __init__(self, platform: HardwarePlatform,
                 baseline_policy: PowerPolicy):
        self._platform = platform
        self._runner = ApplicationRunner(platform)
        self._baseline = baseline_policy

    def evaluate(self, applications: Sequence[Application],
                 policies: Sequence[PowerPolicy],
                 batched: bool = True) -> EvaluationSummary:
        """Run baseline + candidates over all applications.

        Args:
            applications: workloads to evaluate.
            policies: candidate policies (the baseline is implicit).
            batched: advance each application's baseline + candidates in
                lockstep via the batched session engine
                (:mod:`repro.runtime.session`). Bitwise-identical to the
                scalar loop; lanes the engine cannot prove equivalent
                fall back automatically. ``False`` forces the scalar
                path (the differential-testing oracle).
        """
        if not applications:
            raise AnalysisError("no applications to evaluate")
        comparisons: List[ApplicationComparison] = []
        runs: Dict[str, Dict[str, RunResult]] = {}
        session_runner = None
        if batched:
            from repro.runtime.session import BatchSessionRunner, SessionSpec
            session_runner = BatchSessionRunner(self._platform)
        for application in applications:
            if session_runner is not None:
                lane_policies = [self._baseline, *policies]
                outcomes = session_runner.run_sessions([
                    SessionSpec(application=application, policy=policy)
                    for policy in lane_policies
                ])
                base_run, policy_runs = outcomes[0], outcomes[1:]
            else:
                base_run = self._runner.run(application, self._baseline)
                policy_runs = [self._runner.run(application, policy)
                               for policy in policies]
            per_app: Dict[str, RunResult] = {self._baseline.name: base_run}
            for policy, run in zip(policies, policy_runs):
                per_app[policy.name] = run
                comparisons.append(ApplicationComparison(
                    application=application.name,
                    policy=policy.name,
                    baseline=base_run.metrics,
                    candidate=run.metrics,
                ))
            runs[application.name] = per_app
        return EvaluationSummary(comparisons=tuple(comparisons), runs=runs)

    def evaluate_parallel(
        self,
        applications: Sequence[Application],
        baseline_factory: PolicyFactory,
        policy_factories: Sequence[PolicyFactory],
        jobs: int = 1,
        batched: bool = True,
    ) -> EvaluationSummary:
        """Run the matrix with applications fanned out over threads.

        Policies carry per-run history (:class:`~repro.core.policy.
        HistoryMixin`), so sharing one instance across concurrent
        applications would race. Instead each application gets fresh
        instances from the factories — equivalent to the serial harness,
        which resets every policy between applications — and results are
        assembled in application order, so the summary is identical to
        :meth:`evaluate` on a deterministic platform.

        Args:
            applications: workloads to evaluate.
            baseline_factory: constructor of fresh baseline policies.
            policy_factories: constructors of fresh candidate policies.
            jobs: maximum concurrent application evaluations.
            batched: advance each application's policies in lockstep via
                the batched session engine (bitwise-identical; ``False``
                forces the scalar loop).
        """
        if not applications:
            raise AnalysisError("no applications to evaluate")

        def evaluate_app(application: Application):
            baseline = baseline_factory()
            policies = [factory() for factory in policy_factories]
            if batched:
                from repro.runtime.session import (
                    BatchSessionRunner, SessionSpec,
                )
                engine = BatchSessionRunner(self._platform)
                outcomes = engine.run_sessions([
                    SessionSpec(application=application, policy=policy)
                    for policy in (baseline, *policies)
                ])
                base_run, policy_runs = outcomes[0], outcomes[1:]
            else:
                runner = ApplicationRunner(self._platform)
                base_run = runner.run(application, baseline)
                policy_runs = [runner.run(application, policy)
                               for policy in policies]
            per_app: Dict[str, RunResult] = {self._baseline.name: base_run}
            comps: List[ApplicationComparison] = []
            for policy, run in zip(policies, policy_runs):
                per_app[policy.name] = run
                comps.append(ApplicationComparison(
                    application=application.name,
                    policy=policy.name,
                    baseline=base_run.metrics,
                    candidate=run.metrics,
                ))
            return per_app, comps

        outcomes = fan_out(evaluate_app, applications, jobs=jobs)
        comparisons: List[ApplicationComparison] = []
        runs: Dict[str, Dict[str, RunResult]] = {}
        for application, (per_app, comps) in zip(applications, outcomes):
            runs[application.name] = per_app
            comparisons.extend(comps)
        return EvaluationSummary(comparisons=tuple(comparisons), runs=runs)

    def evaluate_montecarlo(
        self,
        applications: Sequence[Application],
        baseline_factory: PolicyFactory,
        policy_factories: Sequence[PolicyFactory],
        seeds: "int | Sequence[int]" = 16,
        noise_std_fraction: float = 0.05,
        jobs: int = 1,
        batched: bool = True,
        references: Optional[EvaluationSummary] = None,
    ) -> MonteCarloSummary:
        """Run the matrix under repeated-trial measurement noise.

        Each (application, policy) pair is rolled out once on the
        deterministic platform and re-measured across every trial seed by
        the vectorized :class:`~repro.runtime.montecarlo.MonteCarloEngine`
        — the launch-keyed noise model guarantees each trial matches the
        scalar noisy run at the same platform seed. Baseline and
        candidate share seeds, so the reported improvement bands are
        paired. Applications fan out over ``jobs`` threads with fresh
        policy instances, serial-exact like :meth:`evaluate_parallel`.

        Args:
            applications: workloads to evaluate.
            baseline_factory: constructor of fresh baseline policies.
            policy_factories: constructors of fresh candidate policies.
            seeds: trial platform seeds — an int N means ``range(N)``.
            noise_std_fraction: per-trial execution-time noise fraction.
            jobs: maximum concurrent application evaluations.
            batched: compute all policies' deterministic reference runs
                per application in lockstep via the batched session
                engine before handing them to the vectorized noise
                reduction (bitwise-identical; ``False`` forces scalar
                reference runs).
            references: an evaluation of the same applications and
                policies on this platform (``context.evaluation``). Its
                deterministic runs are the reference runs, so none is
                recomputed; ``batched`` is then unused.

        Raises:
            AnalysisError: if ``references`` lacks a run of one of the
                (application, policy) pairs.
        """
        if not applications:
            raise AnalysisError("no applications to evaluate")
        engine = MonteCarloEngine(self._platform, noise_std_fraction, seeds)

        def evaluate_app(application: Application):
            baseline = baseline_factory()
            policies = [factory() for factory in policy_factories]
            lane_policies = (baseline, *policies)
            lane_runs = None
            if references is not None:
                lane_runs = [_reference_run(references, application.name,
                                            policy.name)
                             for policy in lane_policies]
            elif batched:
                from repro.runtime.session import (
                    BatchSessionRunner, SessionSpec,
                )
                session_runner = BatchSessionRunner(self._platform)
                lane_runs = session_runner.run_sessions([
                    SessionSpec(application=application, policy=policy)
                    for policy in lane_policies
                ])
            base_run, *cand_runs = engine.rollout(
                application, lane_policies, references=lane_runs
            )
            return [
                MonteCarloComparison(
                    application=application.name,
                    policy=cand_run.policy,
                    baseline=base_run,
                    candidate=cand_run,
                )
                for cand_run in cand_runs
            ]

        outcomes = fan_out(evaluate_app, applications, jobs=jobs)
        comparisons: List[MonteCarloComparison] = []
        for comps in outcomes:
            comparisons.extend(comps)
        return MonteCarloSummary(
            comparisons=tuple(comparisons),
            seeds=engine.seeds,
            noise_std_fraction=noise_std_fraction,
        )
