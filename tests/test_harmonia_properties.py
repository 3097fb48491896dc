"""Property-based tests for the full Harmonia policy on random kernels.

Random (but valid) kernel descriptors and launch sequences drive the whole
controller stack against the real platform. Invariants:

* every requested configuration is on the grid,
* the policy never crashes on any observable kernel behaviour,
* a stable kernel's configuration reaches a fixed point,
* the settled configuration never performs much worse than baseline.
"""

from hypothesis import given, settings

from repro.core.harmonia import HarmoniaPolicy
from repro.core.policy import LaunchContext
from tests.strategies import kernel_specs


def drive(context, spec, iterations=25):
    """Run a fresh Harmonia policy on a single-kernel loop."""
    platform = context.platform
    training = context.training
    policy = HarmoniaPolicy(platform.config_space, training.compute,
                            training.bandwidth)
    configs = []
    results = []
    for iteration in range(iterations):
        launch = LaunchContext(kernel_name=spec.name, iteration=iteration,
                               spec=spec)
        config = policy.config_for(launch)
        assert config in platform.config_space
        result = platform.run_kernel(spec, config)
        policy.observe(launch, result)
        configs.append(config)
        results.append(result)
    return policy, configs, results


class TestRandomKernels:
    @settings(deadline=None, max_examples=25)
    @given(spec=kernel_specs())
    def test_never_crashes_and_stays_on_grid(self, context, spec):
        drive(context, spec, iterations=20)

    @settings(deadline=None, max_examples=20)
    @given(spec=kernel_specs())
    def test_stable_kernel_settles(self, context, spec):
        _, configs, _ = drive(context, spec, iterations=30)
        # The last stretch must be a fixed configuration.
        tail = configs[-4:]
        assert all(c == tail[0] for c in tail)

    @settings(deadline=None, max_examples=20)
    @given(spec=kernel_specs())
    def test_settled_performance_close_to_baseline(self, context, spec):
        platform = context.platform
        _, configs, results = drive(context, spec, iterations=30)
        baseline = platform.run_kernel(spec, platform.baseline_config())
        settled = results[-1]
        # The FG guard bounds the settled slowdown; allow generous slack
        # for the binning edge cases the paper itself documents.
        assert settled.time < baseline.time * 1.45

    @settings(deadline=None, max_examples=20)
    @given(spec=kernel_specs())
    def test_settled_power_not_above_baseline(self, context, spec):
        platform = context.platform
        _, _, results = drive(context, spec, iterations=30)
        baseline = platform.run_kernel(spec, platform.baseline_config())
        assert results[-1].power.card <= baseline.power.card * 1.01
