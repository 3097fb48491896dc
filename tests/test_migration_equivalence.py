"""The batch migration is exactly result-preserving.

Every scalar ``run_kernel`` loop that moved onto cached sweep surfaces
(the application runner, the Pareto frontier scoring, the oracle-gap
search, the characterization curves, the event-driven validation) must
reproduce the old loop's values bitwise — deterministic *and* noisy
platforms, because the launch-keyed cache-then-perturb draws make the
indexed surface element identical to the scalar call it replaced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.pareto import distance_to_frontier, pareto_frontier
from repro.analysis.sweep import ConfigSweep
from repro.experiments.oracle_gap import PerfConstrainedOracle
from repro.experiments.characterization import _curve
from repro.platform.hd7970 import make_hd7970_platform
from repro.platform.store import SweepStore
from repro.platform.sweepcache import SweepCache, shared_cache
from repro.runtime.metrics import ed2
from repro.workloads.registry import all_kernels, get_application


def _results_equal(a, b):
    assert a.kernel_name == b.kernel_name
    assert a.config == b.config
    assert a.time == b.time
    assert a.breakdown == b.breakdown
    assert a.counters == b.counters
    assert a.power == b.power
    assert a.achieved_bandwidth == b.achieved_bandwidth
    assert a.occupancy == b.occupancy
    assert a.bandwidth_limit == b.bandwidth_limit


class TestLaunchEqualsRunKernel:
    def test_deterministic(self, fresh_platform):
        space = fresh_platform.config_space
        for kernel in all_kernels()[:5]:
            for config in (space.max_config(), space.min_config(),
                           fresh_platform.baseline_config()):
                _results_equal(
                    fresh_platform.run_kernel(kernel.base, config),
                    fresh_platform.launch(kernel.base, config),
                )

    def test_noisy_platform_takes_scalar_path(self):
        platform = make_hd7970_platform(noise_std_fraction=0.05, seed=7)
        spec = all_kernels()[0].base
        config = platform.baseline_config()
        for iteration in (0, 1, 5):
            _results_equal(
                platform.run_kernel(spec, config, iteration=iteration),
                platform.launch(spec, config, iteration=iteration),
            )

    def test_full_grid_deterministic(self, fresh_platform):
        spec = all_kernels()[3].base
        for config in fresh_platform.config_space:
            _results_equal(
                fresh_platform.run_kernel(spec, config),
                fresh_platform.launch(spec, config),
            )

    def test_launch_validates_config(self, fresh_platform):
        from repro.errors import ConfigurationError
        spec = all_kernels()[0].base
        bad = fresh_platform.baseline_config().replace(n_cu=3)
        with pytest.raises(ConfigurationError):
            fresh_platform.launch(spec, bad)


class TestParetoEquivalence:
    def test_distance_matches_scalar_run(self, fresh_platform):
        spec = all_kernels()[0].base
        frontier = pareto_frontier(ConfigSweep(fresh_platform, spec))
        config = fresh_platform.baseline_config()
        via_surface = distance_to_frontier(frontier, config,
                                           platform=fresh_platform)
        via_scalar = distance_to_frontier(
            frontier, config,
            result=fresh_platform.run_kernel(spec, config),
        )
        assert via_surface == via_scalar


class TestOracleGapEquivalence:
    def test_noisy_search_matches_scalar_loop(self):
        platform = make_hd7970_platform(noise_std_fraction=0.05, seed=11)
        spec = all_kernels()[1].base
        tolerance = 0.01
        oracle = PerfConstrainedOracle(platform, perf_tolerance=tolerance)
        picked = oracle.best_config_for_spec(spec)

        # The pre-migration scalar loop, verbatim: run every grid point
        # through run_kernel and keep the first strict ED2 minimum among
        # the near-baseline configs.
        baseline = platform.run_kernel(spec, platform.baseline_config())
        limit = baseline.time * (1.0 + tolerance)
        best_config, best_metric = None, float("inf")
        for config in platform.config_space:
            result = platform.run_kernel(spec, config)
            if result.time > limit:
                continue
            metric = ed2(result.energy, result.time)
            if metric < best_metric:
                best_config, best_metric = config, metric
        assert picked == best_config


class TestCharacterizationEquivalence:
    @pytest.mark.parametrize("tunable", ["n_cu", "f_cu", "f_mem"])
    def test_noisy_curve_matches_scalar_loop(self, tunable):
        platform = make_hd7970_platform(noise_std_fraction=0.05, seed=3)
        spec = all_kernels()[2].base
        curve = _curve(platform, spec, tunable)

        space = platform.config_space
        top = space.max_config()
        values = {"n_cu": space.cu_counts,
                  "f_cu": space.compute_frequencies,
                  "f_mem": space.memory_frequencies}[tunable]
        times = [platform.run_kernel(spec, top.replace(**{tunable: v})).time
                 for v in values]
        reference = 1.0 / times[-1]
        expected = tuple((float(v), (1.0 / t) / reference)
                         for v, t in zip(values, times))
        assert curve.points == expected


class TestEventSimEquivalence:
    def test_warm_surface_matches_cold(self, tmp_path, platform):
        """Store-served event-driven times are bitwise the simulator's."""
        from repro.experiments.ext_model_validation import (
            EVENTSIM_KIND, _batch_simulate, _load_event_times,
            _sample_configs)
        from repro.memory.controller import MemoryControllerModel
        from repro.perf.eventsim import EventDrivenModel

        calibration = platform.calibration
        spec = all_kernels()[0].base
        configs = _sample_configs(platform.config_space)[:6]

        store = SweepStore(tmp_path / "s")
        assert _load_event_times(store, calibration, spec, configs) is None
        (cold,) = _batch_simulate(calibration, [spec], configs)
        store.save_record(
            EVENTSIM_KIND, (calibration, spec, tuple(configs)),
            {"time": cold},
            meta={"kernel_name": spec.name},
        )
        warm = _load_event_times(store, calibration, spec, configs)
        assert isinstance(warm, np.ndarray)
        assert np.array_equal(cold, warm)
        controller = MemoryControllerModel(
            arch=calibration.arch, timing=calibration.gddr5_timing
        )
        event_model = EventDrivenModel(
            calibration.arch, controller, calibration.clock_domain_model()
        )
        scalar = np.array([event_model.run(spec, c).time for c in configs],
                          dtype=np.float64)
        assert np.array_equal(warm, scalar)


class TestRunnerEquivalence:
    def test_application_run_matches_scalar_loop(self):
        """A full application run through the surface-serving launch path
        equals the old per-launch run_kernel loop, launch for launch."""
        from repro.core.baseline import BaselinePolicy
        from repro.core.policy import LaunchContext
        from repro.runtime.simulator import ApplicationRunner

        platform = make_hd7970_platform()
        application = get_application("XSBench")
        runner = ApplicationRunner(platform)
        outcome = runner.run(application,
                             BaselinePolicy(platform.config_space))

        # The pre-migration runner loop, verbatim: scalar run_kernel per
        # launch, same policy state machine.
        replica = BaselinePolicy(platform.config_space)
        records = list(outcome.trace.records)
        index = 0
        for iteration, kernel, spec in application.launches():
            context = LaunchContext(kernel_name=kernel.name,
                                    iteration=iteration, spec=spec)
            config = replica.config_for(context)
            expected = platform.run_kernel(spec, config, iteration=iteration)
            replica.observe(context, expected)
            _results_equal(records[index].result, expected)
            index += 1
        assert index == len(records)
