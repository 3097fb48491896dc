"""The stateless launch-keyed noise RNG: determinism under any execution.

The tentpole contract: a launch's noise multiplier is a pure function of
``(platform seed, kernel spec, iteration, config)``. These tests pin the
consequences — draws are bitwise reproducible regardless of launch order,
interleaving, thread fan-out, or sweep-cache state — plus the documented
clamp floor and its clip accounting.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.platform import noise
from repro.platform.hd7970 import make_hd7970_platform
from repro.platform.noise import (
    NOISE_FLOOR,
    LaunchKeyedNoise,
    derive_block,
    philox_keys,
    spec_entropy,
)
from repro.platform.sweepcache import SweepCache
from repro.workloads.registry import all_kernels, get_application

SPEC = all_kernels()[0].base
OTHER = all_kernels()[1].base
SPECS = tuple(kernel.base for kernel in all_kernels()[:6])
SRC = Path(__file__).resolve().parent.parent / "src"


def oracle_multipliers(std, seed, spec, iteration, grid_size):
    """The per-stream formula the batched derivation replaced."""
    generator = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        [seed, iteration, spec_entropy(spec)]
    )))
    raw = 1.0 + generator.normal(0.0, std, size=grid_size)
    return np.maximum(NOISE_FLOOR, raw), raw < NOISE_FLOOR


class TestLaunchKeyedNoise:
    def test_spec_entropy_is_stable_and_distinct(self):
        assert spec_entropy(SPEC) == spec_entropy(SPEC)
        assert spec_entropy(SPEC) != spec_entropy(OTHER)

    def test_draws_are_pure_functions_of_the_key(self):
        a = LaunchKeyedNoise(0.05, seed=3, grid_size=10)
        b = LaunchKeyedNoise(0.05, seed=3, grid_size=10)
        m_a, _ = a.multipliers_for(SPEC, 4)
        m_b, _ = b.multipliers_for(SPEC, 4)
        np.testing.assert_array_equal(m_a, m_b)

    def test_each_key_component_matters(self):
        model = LaunchKeyedNoise(0.05, seed=3, grid_size=10)
        base, _ = model.multipliers_for(SPEC, 0)
        other_iter, _ = model.multipliers_for(SPEC, 1)
        other_spec, _ = model.multipliers_for(OTHER, 0)
        other_seed, _ = LaunchKeyedNoise(0.05, 4, 10).multipliers_for(SPEC, 0)
        assert np.any(base != other_iter)
        assert np.any(base != other_spec)
        assert np.any(base != other_seed)

    def test_scalar_indexes_the_batch_vector(self):
        model = LaunchKeyedNoise(0.05, seed=3, grid_size=10)
        vector, clipped = model.multipliers_for(SPEC, 2)
        for i in range(10):
            value, clip = model.multiplier_at(SPEC, 2, i)
            assert value == vector[i]
            assert clip == clipped[i]

    def test_clamp_floor(self):
        # Heavy noise: some raw draws land below the floor and get clamped.
        model = LaunchKeyedNoise(2.0, seed=0, grid_size=2048)
        multipliers, clipped = model.multipliers_for(SPEC, 0)
        assert np.any(clipped)
        assert np.all(multipliers >= NOISE_FLOOR)
        assert np.all(multipliers[clipped] == NOISE_FLOOR)

    def test_negative_iteration_rejected(self):
        model = LaunchKeyedNoise(0.05, seed=3, grid_size=10)
        with pytest.raises(ValueError):
            model.multipliers_for(SPEC, -1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            LaunchKeyedNoise(0.05, seed=-1, grid_size=10).multipliers_for(
                SPEC, 0)

    def test_memo_is_bounded(self):
        model = LaunchKeyedNoise(0.05, seed=3, grid_size=4)
        for iteration in range(LaunchKeyedNoise.MEMO_SIZE + 10):
            model.multipliers_for(SPEC, iteration)
        assert len(model._memo) == LaunchKeyedNoise.MEMO_SIZE


ENTROPY_EDGES = (0, 1, 2**32 - 1, 2**32, 2**64, 2**96, 2**127,
                 2**128 - 1)


class TestPhiloxKeys:
    """The vectorized keying against numpy's own ``SeedSequence``."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**66),
            st.integers(min_value=0, max_value=2**40),
            st.one_of(
                st.sampled_from(ENTROPY_EDGES),
                # Leading-zero words: high bits only, or a short value.
                st.integers(min_value=0, max_value=2**32 - 1).map(
                    lambda v: v << 96),
                st.integers(min_value=0, max_value=2**128 - 1),
            ),
        ),
        min_size=1, max_size=24,
    ))
    def test_matches_seed_sequence(self, rows):
        keys = philox_keys(rows)
        assert keys.dtype == np.uint64 and keys.shape == (len(rows), 2)
        for row, key in zip(rows, keys):
            expected = np.random.SeedSequence(list(row)).generate_state(
                2, np.uint64)
            np.testing.assert_array_equal(key, expected)

    def test_rows_of_mixed_word_lengths_share_a_batch(self):
        rows = [(0, 0, 0), (2**64 + 5, 2**40, 2**127), (7, 1, 2**96),
                (1, 2**32, 1), (2**32, 0, 2**128 - 1)]
        for row, key in zip(rows, philox_keys(rows)):
            np.testing.assert_array_equal(
                key,
                np.random.SeedSequence(list(row)).generate_state(
                    2, np.uint64))

    def test_empty_and_negative(self):
        assert philox_keys([]).shape == (0, 2)
        with pytest.raises(ValueError):
            philox_keys([(0, -1, 5)])


class TestDerivationOracle:
    """Every derivation path equals the per-stream SeedSequence formula."""

    @pytest.mark.parametrize("std", [0.05, 0.5])
    def test_platform_model_matches_oracle(self, std):
        clipped_any = False
        for seed in (0, 3, 2**40):
            model = LaunchKeyedNoise(std, seed, grid_size=448)
            for spec in SPECS:
                for iteration in (0, 1, 9, 2**33):
                    multipliers, clipped = model.multipliers_for(
                        spec, iteration)
                    want_m, want_c = oracle_multipliers(
                        std, seed, spec, iteration, 448)
                    np.testing.assert_array_equal(multipliers, want_m)
                    np.testing.assert_array_equal(clipped, want_c)
                    clipped_any = clipped_any or bool(clipped.any())
        # At std=0.5 the NOISE_FLOOR clamp must have fired somewhere.
        assert clipped_any == (std == 0.5)

    def test_block_matches_oracle(self):
        seeds = (0, 1, 5, 2**64 + 1)
        keys = [(spec, iteration) for spec in SPECS[:3]
                for iteration in (0, 2, 2**35)]
        multipliers, clipped = derive_block(0.5, 64, seeds, keys)
        assert multipliers.shape == clipped.shape == (len(keys), 4, 64)
        for k, (spec, iteration) in enumerate(keys):
            for s, seed in enumerate(seeds):
                want_m, want_c = oracle_multipliers(
                    0.5, seed, spec, iteration, 64)
                np.testing.assert_array_equal(multipliers[k, s], want_m)
                np.testing.assert_array_equal(clipped[k, s], want_c)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(min_value=0, max_value=2**64),
                                st.integers(min_value=0, max_value=2**40),
                                st.integers(min_value=0,
                                            max_value=2**128 - 1)),
                      min_size=1, max_size=6),
        width=st.integers(min_value=1, max_value=64),
        leftover=st.integers(min_value=0, max_value=7),
    )
    def test_rekeyed_rows_equal_fresh_generators(self, rows, width, leftover):
        """Each re-keyed row is a fresh ``Generator(Philox(SeedSequence))``
        draw, whatever state the shared generator was left in."""
        noise._standard_normals(philox_keys([(0,)]), np.empty((1, 1)))
        bit_generator, generator = noise._draw_pair
        # Leave the shared generator mid-stream: a buffered 32-bit half
        # (has_uint32), a part-used output buffer and an advanced counter.
        generator.integers(0, 2**32, size=2 * leftover + 1, dtype=np.uint32)
        bit_generator.random_raw(leftover)
        out = np.empty((len(rows), width))
        noise._standard_normals(philox_keys(rows), out)
        for row, got in zip(rows, out):
            fresh = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(list(row))))
            np.testing.assert_array_equal(got, fresh.standard_normal(width))

    def test_shared_generator_under_thread_contention(self):
        """Concurrent derives re-key the one generator without mixing
        streams: more threads than cores, a tiny switch interval."""
        seeds = range(4)
        keys = [[(spec, iteration) for iteration in range(4)]
                for spec in SPECS]
        serial = [derive_block(0.05, 448, seeds, key)[0] for key in keys]
        mismatches = []

        def work(i):
            for _ in range(20):
                got = derive_block(0.05, 448, seeds, keys[i])[0]
                if not np.array_equal(got, serial[i]):
                    mismatches.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,), daemon=True)
                       for i in range(len(keys))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


def test_cli_import_does_not_load_numpy_random():
    """The shared generator is built on first draw, not at import — and
    importing the CLI loads no numpy module at all."""
    probe = ("import sys, repro.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'numpy' or m.startswith('numpy.')))")
    completed = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


class TestExecutionOrderInvariance:
    def test_launch_order_does_not_matter(self):
        launches = [
            (spec, config, iteration)
            for spec in (SPEC, OTHER)
            for iteration in (0, 1, 2)
            for config in tuple(make_hd7970_platform().config_space)[::97]
        ]
        forward = make_hd7970_platform(noise_std_fraction=0.05, seed=9)
        reverse = make_hd7970_platform(noise_std_fraction=0.05, seed=9)
        times_fwd = {
            key: forward.run_kernel(key[0], key[1], iteration=key[2]).time
            for key in launches
        }
        times_rev = {
            key: reverse.run_kernel(key[0], key[1], iteration=key[2]).time
            for key in reversed(launches)
        }
        assert times_fwd == times_rev

    def test_interleaving_scalar_and_batch_does_not_matter(self):
        scalar_first = make_hd7970_platform(noise_std_fraction=0.05, seed=9)
        batch_first = make_hd7970_platform(noise_std_fraction=0.05, seed=9)
        config = scalar_first.baseline_config()

        t_scalar = scalar_first.run_kernel(SPEC, config).time
        b_after = scalar_first.run_kernel_batch(SPEC)

        b_first = batch_first.run_kernel_batch(SPEC)
        t_after = batch_first.run_kernel(SPEC, config).time

        assert t_scalar == t_after
        np.testing.assert_array_equal(b_after.time, b_first.time)

    def test_jobs_fanout_does_not_matter(self):
        from repro.analysis.evaluation import EvaluationHarness
        from repro.core.baseline import BaselinePolicy
        from repro.core.oracle import OraclePolicy

        applications = [get_application("MaxFlops"), get_application("BPT")]

        def evaluate(jobs):
            platform = make_hd7970_platform(noise_std_fraction=0.05, seed=9)
            harness = EvaluationHarness(
                platform, lambda: BaselinePolicy(platform.config_space)
            )
            return harness.evaluate(
                applications, [lambda: OraclePolicy(platform)], jobs=jobs
            )

        serial = evaluate(1)
        fanned = evaluate(4)
        assert serial.comparisons == fanned.comparisons
        for app in serial.runs:
            for policy in serial.runs[app]:
                a = serial.runs[app][policy].metrics
                b = fanned.runs[app][policy].metrics
                assert a.time == b.time
                assert a.energy == b.energy

    def test_cache_state_does_not_matter(self):
        # Miss path: a fresh cache computes the clean surface.
        cold = make_hd7970_platform(noise_std_fraction=0.05, seed=9)
        cold_cache = SweepCache()
        miss = cold.grid_sweep(SPEC, cache=cold_cache, iteration=1)
        assert cold_cache.stats() == (0, 1)

        # Hit path: a pre-warmed cache serves the same clean surface.
        warm = make_hd7970_platform(noise_std_fraction=0.05, seed=9)
        warm_cache = SweepCache()
        warm.grid_sweep(SPEC, cache=warm_cache, iteration=0)
        hit = warm.grid_sweep(SPEC, cache=warm_cache, iteration=1)
        assert warm_cache.stats() == (1, 1)

        np.testing.assert_array_equal(miss.time, hit.time)
        np.testing.assert_array_equal(miss.energy, hit.energy)


class TestClipAccounting:
    def test_scalar_and_batch_count_the_same_clips(self):
        scalar = make_hd7970_platform(noise_std_fraction=2.0, seed=1)
        batch = make_hd7970_platform(noise_std_fraction=2.0, seed=1)
        configs = tuple(scalar.config_space)
        for config in configs:
            scalar.run_kernel(SPEC, config)
        batch.run_kernel_batch(SPEC, configs)
        assert scalar.noise_clip_count == batch.noise_clip_count > 0

    def test_clips_feed_the_telemetry_counter(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        platform = make_hd7970_platform(noise_std_fraction=2.0, seed=1,
                                        telemetry=telemetry)
        platform.run_kernel_batch(SPEC)
        counter = telemetry.metrics.counter("noise_floor_clips_total")
        assert counter.value(kernel=SPEC.name) == platform.noise_clip_count
        assert platform.noise_clip_count > 0

    def test_clean_platform_never_clips(self):
        platform = make_hd7970_platform()
        platform.run_kernel(SPEC, platform.baseline_config())
        platform.run_kernel_batch(SPEC)
        assert platform.noise_clip_count == 0
