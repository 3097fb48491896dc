"""Shared experiment stack: platform, predictors, evaluation matrix.

Building the test bed is cheap, but training the Section 4 predictors and
running the four-policy evaluation matrix over all fourteen applications
is not free; every experiment that needs them shares one cached instance.

Nothing is built, or even imported, before first use: a ``reproduce``
served entirely from the result manifest takes the context's
:attr:`~ExperimentContext.calibration` and
:attr:`~ExperimentContext.config_space` for its fingerprint and never
loads the model stack.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from repro.analysis.evaluation import EvaluationSummary
    from repro.core.baseline import BaselinePolicy
    from repro.core.harmonia import HarmoniaPolicy
    from repro.core.oracle import OraclePolicy
    from repro.core.variants import ComputeDvfsOnlyPolicy
    from repro.gpu.config import ConfigSpace
    from repro.platform.calibration import PlatformCalibration
    from repro.platform.hd7970 import HardwarePlatform
    from repro.sensitivity.predictor import TrainingReport
    from repro.workloads.application import Application


class ExperimentContext:
    """Lazily-built shared stack for all paper experiments."""

    def __init__(self, platform: Optional[HardwarePlatform] = None,
                 jobs: int = 1):
        """
        Args:
            platform: the test bed; defaults to a deterministic HD7970,
                built on first use.
            jobs: thread fan-out for the expensive stages (training-set
                construction and the evaluation matrix). Results are
                independent of the job count; 1 keeps everything serial
                and 0 means "auto" (one worker per core).
        """
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0 (0 = auto), got {jobs}")
        from repro.runtime.parallel import resolve_jobs
        self._platform = platform
        self._jobs = resolve_jobs(jobs)
        self._applications: Optional[List[Application]] = None
        self._training: Optional[TrainingReport] = None
        self._summary: Optional[EvaluationSummary] = None
        # Pipeline nodes share one context across worker threads; the
        # lazy builds below must each happen exactly once. Reentrant:
        # the evaluation build reads the training property.
        self._build_lock = threading.RLock()

    @property
    def jobs(self) -> int:
        """Thread fan-out used by the expensive stages."""
        return self._jobs

    @property
    def platform(self) -> HardwarePlatform:
        """The simulated HD7970 test bed (built once, on first use)."""
        # Lock-free once built, like ``training``: fan-out workers read it
        # while the thread that fanned out holds the build lock — which
        # read it first, so it is built by then.
        platform = self._platform
        if platform is not None:
            return platform
        with self._build_lock:
            if self._platform is None:
                from repro.platform.hd7970 import make_hd7970_platform
                self._platform = make_hd7970_platform()
            return self._platform

    @property
    def calibration(self) -> PlatformCalibration:
        """The test bed's calibration, read without building the platform."""
        if self._platform is not None:
            return self._platform.calibration
        from repro.platform.calibration import default_calibration
        return default_calibration()

    @property
    def config_space(self) -> ConfigSpace:
        """The test bed's configuration grid, read without building the
        platform."""
        if self._platform is not None:
            return self._platform.config_space
        from repro.gpu.config import ConfigSpace
        return ConfigSpace(self.calibration.arch)

    @property
    def applications(self) -> List[Application]:
        """The paper's 14 applications (built once)."""
        with self._build_lock:
            if self._applications is None:
                from repro.workloads.registry import all_applications
                self._applications = all_applications()
            return self._applications

    def application(self, name: str) -> Application:
        """Look up one of the cached applications by name."""
        for app in self.applications:
            if app.name == name:
                return app
        raise KeyError(name)

    @property
    def training(self) -> TrainingReport:
        """The Section 4 predictor-training pipeline output (cached)."""
        # Lock-free once built: policy factories read this from fan-out
        # worker threads while the thread that fanned out may still hold
        # the build lock (the evaluation build does), and the report is
        # published whole, after training finished.
        training = self._training
        if training is not None:
            return training
        with self._build_lock:
            if self._training is None:
                from repro.sensitivity.predictor import train_predictors
                self._training = train_predictors(
                    self.platform, self.applications, jobs=self._jobs
                )
            return self._training

    # --- policies -----------------------------------------------------------

    def baseline_policy(self) -> BaselinePolicy:
        """A fresh PowerTune baseline policy."""
        from repro.core.baseline import BaselinePolicy
        return BaselinePolicy(self.platform.config_space)

    def harmonia_policy(self, telemetry=None) -> HarmoniaPolicy:
        """A fresh Harmonia (FG+CG) policy with trained predictors."""
        from repro.core.harmonia import HarmoniaPolicy
        training = self.training
        return HarmoniaPolicy(
            self.platform.config_space, training.compute, training.bandwidth,
            telemetry=telemetry,
        )

    def cg_only_policy(self, telemetry=None) -> HarmoniaPolicy:
        """A fresh CG-only policy."""
        from repro.core.variants import make_cg_only_policy
        training = self.training
        return make_cg_only_policy(
            self.platform.config_space, training.compute, training.bandwidth,
            telemetry=telemetry,
        )

    def dvfs_only_policy(self, telemetry=None) -> ComputeDvfsOnlyPolicy:
        """A fresh compute-DVFS-only policy (Section 7.2)."""
        from repro.core.variants import ComputeDvfsOnlyPolicy
        training = self.training
        return ComputeDvfsOnlyPolicy(
            self.platform.config_space, training.compute, training.bandwidth,
            telemetry=telemetry,
        )

    def oracle_policy(self) -> OraclePolicy:
        """A fresh exhaustive ED² oracle."""
        from repro.core.oracle import OraclePolicy
        return OraclePolicy(self.platform)

    # --- the Figures 10-13 matrix -----------------------------------------------------------

    @property
    def evaluation(self) -> EvaluationSummary:
        """Baseline vs CG vs Harmonia vs oracle vs DVFS-only, cached."""
        with self._build_lock:
            return self._evaluation_locked()

    def _evaluation_locked(self) -> EvaluationSummary:
        if self._summary is None:
            from repro.analysis.evaluation import EvaluationHarness
            # Train before fanning out: the policy factories may run in
            # worker threads, must all see the one shared report, and
            # must find it built — this thread holds the build lock
            # until the fan-out returns.
            _ = self.training
            harness = EvaluationHarness(self.platform, self.baseline_policy)
            self._summary = harness.evaluate(
                self.applications,
                [
                    self.cg_only_policy,
                    self.harmonia_policy,
                    self.oracle_policy,
                    self.dvfs_only_policy,
                ],
                jobs=self._jobs,
            )
        return self._summary


@lru_cache(maxsize=1)
def default_context() -> ExperimentContext:
    """The process-wide shared context (deterministic platform)."""
    return ExperimentContext()
