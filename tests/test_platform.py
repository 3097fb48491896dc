"""Unit tests for :mod:`repro.platform` (the test-bed facade)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gpu.config import HardwareConfig
from repro.platform.calibration import default_calibration
from repro.platform.hd7970 import HardwarePlatform, make_hd7970_platform
from repro.units import GHZ, MHZ
from repro.workloads.registry import all_kernels, get_kernel

SPEC = get_kernel("MaxFlops.MaxFlops").base


class TestFacade:
    def test_baseline_is_boost(self, platform):
        # Section 7: baseline always runs at boost for all applications.
        config = platform.baseline_config()
        assert config.n_cu == 32
        assert config.f_cu == pytest.approx(1 * GHZ)
        assert config.f_mem == pytest.approx(1375 * MHZ)

    def test_run_kernel_returns_complete_result(self, platform):
        result = platform.run_kernel(SPEC, platform.baseline_config())
        assert result.kernel_name == SPEC.name
        assert result.time > 0
        assert result.power.card > result.power.gpu
        assert result.energy == pytest.approx(result.power.card * result.time)
        assert 0 < result.occupancy <= 1

    def test_rejects_off_grid_config(self, platform):
        with pytest.raises(ConfigurationError):
            platform.run_kernel(SPEC, HardwareConfig(5, 1 * GHZ, 1375 * MHZ))

    def test_deterministic_without_noise(self, platform):
        a = platform.run_kernel(SPEC, platform.baseline_config())
        b = platform.run_kernel(SPEC, platform.baseline_config())
        assert a.time == b.time

    def test_performance_property(self, platform):
        result = platform.run_kernel(SPEC, platform.baseline_config())
        assert result.performance == pytest.approx(1.0 / result.time)


class TestNoise:
    def test_noise_perturbs_time(self):
        clean = HardwarePlatform()
        noisy = HardwarePlatform(noise_std_fraction=0.02, seed=11)
        a = clean.run_kernel(SPEC, clean.baseline_config())
        b = noisy.run_kernel(SPEC, noisy.baseline_config())
        assert a.time != b.time

    def test_noise_is_launch_keyed(self):
        # Stateless keyed RNG: the same launch always draws the same
        # multiplier; distinct iterations and configs draw fresh ones.
        noisy = HardwarePlatform(noise_std_fraction=0.02, seed=11)
        config = noisy.baseline_config()
        a = noisy.run_kernel(SPEC, config, iteration=0)
        b = noisy.run_kernel(SPEC, config, iteration=0)
        assert a.time == b.time
        c = noisy.run_kernel(SPEC, config, iteration=1)
        assert c.time != a.time
        d = noisy.run_kernel(SPEC, config.replace(n_cu=24), iteration=0)
        assert d.time != a.time

    def test_noise_is_seeded(self):
        a = HardwarePlatform(noise_std_fraction=0.02, seed=11)
        b = HardwarePlatform(noise_std_fraction=0.02, seed=11)
        c = HardwarePlatform(noise_std_fraction=0.02, seed=12)
        t_a = a.run_kernel(SPEC, a.baseline_config()).time
        assert t_a == b.run_kernel(SPEC, b.baseline_config()).time
        assert t_a != c.run_kernel(SPEC, c.baseline_config()).time

    def test_noise_keeps_time_positive(self):
        noisy = HardwarePlatform(noise_std_fraction=0.8, seed=5)
        for iteration in range(50):
            result = noisy.run_kernel(SPEC, noisy.baseline_config(),
                                      iteration=iteration)
            assert result.time > 0
        # At 80% noise some draws must have hit the documented floor and
        # been counted.
        assert noisy.noise_clip_count > 0

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            HardwarePlatform(noise_std_fraction=-0.1)


class TestClockMonotonicity:
    """Metamorphic: a faster clock never makes a launch slower.

    Checked on every grid neighbour pair of all 25 kernels' surfaces.
    (More CUs may slow a launch — the L2-thrash term — so the CU axis is
    not pinned.)
    """

    @pytest.mark.parametrize("axis, knob", [(1, "f_cu"), (2, "f_mem")])
    def test_time_never_rises_with_a_higher_clock(self, platform, axis,
                                                  knob):
        space = platform.config_space
        axes = (space.cu_counts, space.compute_frequencies,
                space.memory_frequencies)
        index = np.array([[[space.index_of(HardwareConfig(n_cu, f_cu, f_mem))
                            for f_mem in axes[2]] for f_cu in axes[1]]
                          for n_cu in axes[0]])
        for kernel in all_kernels():
            times = platform.launch_surface(kernel.base).time[index]
            rises = np.argwhere(np.diff(times, axis=axis) > 0)
            assert rises.size == 0, (
                f"{kernel.name}: time rises with a higher {knob} above "
                f"n_cu={axes[0][rises[0][0]]}, f_cu={axes[1][rises[0][1]]}, "
                f"f_mem={axes[2][rises[0][2]]}"
            )


class TestCalibrationAnchors:
    """Power-magnitude anchors from the paper's figures."""

    def test_figure1_memory_is_major_consumer(self, platform):
        # Figure 1: for a memory-intensive workload, memory is a major
        # share of card power.
        spec = get_kernel("XSBench.CalculateXS").base
        result = platform.run_kernel(spec, platform.baseline_config())
        assert result.power.memory / result.power.card > 0.25

    def test_compute_heavy_is_gpu_dominated(self, platform):
        result = platform.run_kernel(SPEC, platform.baseline_config())
        assert result.power.gpu / result.power.card > 0.6

    def test_other_power_constant(self, platform):
        # Section 6: fan pinned at max RPM -> OtherPwr constant.
        a = platform.run_kernel(SPEC, platform.baseline_config())
        b = platform.run_kernel(
            SPEC, platform.config_space.min_config()
        )
        assert a.power.other == pytest.approx(b.power.other)

    def test_card_power_within_tdp(self, platform):
        # PowerTune caps the board at 250 W.
        for config in (platform.baseline_config(),
                       platform.config_space.min_config()):
            result = platform.run_kernel(SPEC, config)
            assert result.power.card < 250.0

    def test_factory_returns_default_calibration(self):
        platform = make_hd7970_platform()
        assert platform.calibration == default_calibration()
