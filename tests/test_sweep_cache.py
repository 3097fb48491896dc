"""The shared sweep cache: keying, statistics, bounds, consumers."""

from __future__ import annotations

import threading

import pytest

from repro.core.oracle import OraclePolicy
from repro.platform.hd7970 import make_hd7970_platform, make_pitcairn_platform
from repro.platform.sweepcache import SweepCache, shared_cache
from repro.runtime.metrics import ed2
from repro.workloads.registry import all_kernels


@pytest.fixture()
def cache():
    return SweepCache(maxsize=8)


def test_miss_then_hit(fresh_platform, cache):
    spec = all_kernels()[0].base
    first = fresh_platform.grid_sweep(spec, cache=cache)
    second = fresh_platform.grid_sweep(spec, cache=cache)
    assert second is first
    assert cache.stats() == (1, 1)
    assert cache.hit_rate == 0.5
    assert len(cache) == 1


def test_keys_separate_kernels_and_calibrations(cache):
    hd = make_hd7970_platform()
    pit = make_pitcairn_platform()
    spec_a, spec_b = all_kernels()[0].base, all_kernels()[1].base

    hd.grid_sweep(spec_a, cache=cache)
    hd.grid_sweep(spec_b, cache=cache)
    pit.grid_sweep(spec_a, cache=cache)
    assert cache.stats() == (0, 3)
    assert len(cache) == 3
    # Same calibration value -> same key, even across platform instances.
    make_hd7970_platform().grid_sweep(spec_a, cache=cache)
    assert cache.stats() == (1, 3)


def test_calibration_variant_misses(cache):
    """A changed calibration constant is a different key by value."""
    plain = make_hd7970_platform()
    scaled = make_hd7970_platform(memory_voltage_scaling=True)
    spec = all_kernels()[0].base
    plain.grid_sweep(spec, cache=cache)
    scaled.grid_sweep(spec, cache=cache)
    assert cache.stats() == (0, 2)
    assert plain.sweep_cache_key(spec) != scaled.sweep_cache_key(spec)


def test_clear_and_eviction(fresh_platform):
    small = SweepCache(maxsize=2)
    specs = [k.base for k in all_kernels()[:3]]
    for spec in specs:
        fresh_platform.grid_sweep(spec, cache=small)
    assert len(small) == 2  # LRU evicted the oldest grid
    small.clear()
    assert len(small) == 0
    fresh_platform.grid_sweep(specs[0], cache=small)
    assert small.stats() == (0, 4)


def test_thread_safety_under_concurrent_sweeps(fresh_platform):
    cache = SweepCache()
    specs = [k.base for k in all_kernels()[:6]]
    errors = []

    def worker():
        try:
            for spec in specs:
                fresh_platform.grid_sweep(spec, cache=cache)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(cache) == len(specs)


def test_publish_emits_lookup_counters(fresh_platform, cache):
    from repro.telemetry.handle import Telemetry

    spec = all_kernels()[0].base
    fresh_platform.grid_sweep(spec, cache=cache)
    fresh_platform.grid_sweep(spec, cache=cache)
    telemetry = Telemetry()
    cache.publish(telemetry)
    metrics = telemetry.metrics
    assert metrics.counter("sweep_cache_hits_total", "").value() == 1.0
    assert metrics.counter("sweep_cache_misses_total", "").value() == 1.0


def test_shared_cache_is_process_wide():
    assert shared_cache() is shared_cache()


def test_oracle_searches_cached_surface(fresh_platform):
    """The oracle's pick equals an argmin over the cached batch surface,
    and its exact per-spec cache still survives reset."""
    spec = all_kernels()[2].base
    oracle = OraclePolicy(fresh_platform)
    best = oracle.best_config_for_spec(spec)

    surface = fresh_platform.grid_sweep(spec)
    exhaustive = min(
        range(len(surface)),
        key=lambda i: ed2(float(surface.energy[i]), float(surface.time[i])),
    )
    assert best == surface.configs[exhaustive]

    oracle.reset()
    assert oracle.best_config_for_spec(spec) == best
