"""The persistent content-addressed sweep store: digests, round trips,
robustness against corruption, concurrency, and the two-tier cache."""

from __future__ import annotations

import dataclasses
import io
import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.platform.store as store_module
from repro.platform.hd7970 import make_hd7970_platform, make_pitcairn_platform
from repro.platform.store import (
    GRID_KIND,
    SweepStore,
    batch_from_record,
    batch_to_record,
    canonical_encode,
    content_digest,
    resolve_store_dir,
)
from repro.platform.sweepcache import SweepCache
from repro.telemetry.handle import Telemetry
from repro.workloads.registry import all_kernels


@pytest.fixture()
def store(tmp_path):
    return SweepStore(tmp_path / "store")


def _grid_key(platform, spec):
    return platform.sweep_cache_key(spec)


# --- canonical encoding and digests ---------------------------------------------


class TestCanonicalEncoding:
    def test_digest_is_stable_hex(self, platform):
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        first = content_digest(key)
        assert first == content_digest(key)
        assert len(first) == 64
        assert set(first) <= set("0123456789abcdef")

    def test_bool_is_not_int(self):
        assert canonical_encode(True) != canonical_encode(1)
        assert canonical_encode(False) != canonical_encode(0)

    def test_floats_are_exact(self):
        # repr-close but unequal floats must encode differently.
        a = 0.1
        b = np.nextafter(0.1, 1.0)
        assert canonical_encode(a) != canonical_encode(b)
        assert canonical_encode(0.0) != canonical_encode(-0.0)

    def test_unencodable_types_raise(self):
        with pytest.raises(TypeError):
            canonical_encode({1, 2})
        with pytest.raises(TypeError):
            canonical_encode(object())

    def test_calibration_change_changes_digest(self):
        spec = all_kernels()[0].base
        plain = make_hd7970_platform()
        scaled = make_hd7970_platform(memory_voltage_scaling=True)
        pitcairn = make_pitcairn_platform()
        digests = {
            content_digest(_grid_key(p, spec))
            for p in (plain, scaled, pitcairn)
        }
        assert len(digests) == 3
        # Same calibration by value -> same digest across instances.
        assert content_digest(_grid_key(make_hd7970_platform(), spec)) \
            == content_digest(_grid_key(plain, spec))

    def test_kernel_characteristic_change_changes_digest(self, platform):
        spec = all_kernels()[0].base
        base = content_digest(_grid_key(platform, spec))
        for change in (
            {"valu_insts_per_item": spec.valu_insts_per_item * 1.0000001},
            {"l2_hit_rate": spec.l2_hit_rate + 1e-9},
            {"workgroup_size": spec.workgroup_size * 2},
            {"name": spec.name + "'"},
        ):
            changed = dataclasses.replace(spec, **change)
            assert content_digest(_grid_key(platform, changed)) != base

    def test_grid_axis_change_changes_digest(self, platform):
        spec = all_kernels()[0].base
        cal, _, axes = _grid_key(platform, spec)
        base = content_digest((cal, spec, axes))
        cus, f_cus, f_mems = axes
        assert content_digest((cal, spec, (cus[:-1], f_cus, f_mems))) != base
        assert content_digest(
            (cal, spec, (cus, f_cus[:-1] + (f_cus[-1] * 1.000001,), f_mems))
        ) != base


class TestResolveStoreDir:
    def test_explicit_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(store_module.CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_store_dir(str(tmp_path / "flag")) == tmp_path / "flag"

    def test_env_beats_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv(store_module.CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_store_dir() == tmp_path / "env"

    def test_default_under_home_cache(self, monkeypatch):
        monkeypatch.delenv(store_module.CACHE_DIR_ENV, raising=False)
        assert resolve_store_dir() == Path.home() / ".cache" / "repro-harmonia"


# --- round trips -----------------------------------------------------------------


class TestRoundTrip:
    def test_record_round_trip_is_bitwise(self, platform):
        batch = platform.grid_sweep(all_kernels()[0].base)
        rebuilt = batch_from_record(*batch_to_record(batch))
        _assert_batches_bitwise_equal(batch, rebuilt)

    def test_store_round_trip_is_bitwise(self, store, platform):
        for kernel in all_kernels()[:4]:
            batch = platform.grid_sweep(kernel.base)
            key = _grid_key(platform, kernel.base)
            assert store.save_batch(key, batch)
            loaded = store.load_batch(key)
            assert loaded is not None
            _assert_batches_bitwise_equal(batch, loaded)

    def test_derived_surfaces_survive(self, store, platform):
        spec = all_kernels()[2].base
        batch = platform.grid_sweep(spec)
        key = _grid_key(platform, spec)
        store.save_batch(key, batch)
        loaded = store.load_batch(key)
        np.testing.assert_array_equal(batch.card_power, loaded.card_power)
        np.testing.assert_array_equal(batch.energy, loaded.energy)
        np.testing.assert_array_equal(batch.ed2, loaded.ed2)
        assert batch.configs == loaded.configs
        assert batch.bandwidth_limit == loaded.bandwidth_limit
        assert batch.occupancy == loaded.occupancy

    def test_no_tempfiles_left_behind(self, store, platform):
        spec = all_kernels()[0].base
        store.save_batch(_grid_key(platform, spec), platform.grid_sweep(spec))
        leftovers = [p for p in store.root.iterdir()
                     if ".tmp" in p.name]
        assert leftovers == []


def _assert_batches_bitwise_equal(a, b):
    assert a.kernel_name == b.kernel_name
    np.testing.assert_array_equal(a.time, b.time)
    np.testing.assert_array_equal(a.compute_time, b.compute_time)
    np.testing.assert_array_equal(a.memory_time, b.memory_time)
    np.testing.assert_array_equal(a.achieved_bandwidth, b.achieved_bandwidth)
    np.testing.assert_array_equal(a.gpu_power, b.gpu_power)
    np.testing.assert_array_equal(a.memory_power, b.memory_power)
    assert a.launch_overhead == b.launch_overhead
    assert a.other_power == b.other_power
    assert a.counters.valu_utilization == b.counters.valu_utilization
    np.testing.assert_array_equal(a.counters.valu_busy, b.counters.valu_busy)
    np.testing.assert_array_equal(a.counters.ic_activity,
                                  b.counters.ic_activity)


# --- robustness ------------------------------------------------------------------


class TestRobustness:
    def test_absent_record_is_plain_miss(self, store, platform):
        key = _grid_key(platform, all_kernels()[0].base)
        assert store.load_batch(key) is None
        stats = store.stats()
        assert stats.misses == 1
        assert stats.invalid_records == 0

    def test_truncated_record_recomputes_and_rewrites(self, store, platform):
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        batch = platform.grid_sweep(spec)
        store.save_batch(key, batch)
        path = store.path_for(GRID_KIND, key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        assert store.load_batch(key) is None
        assert store.stats().invalid_records == 1
        # The caller's recompute-and-rewrite heals the record.
        store.save_batch(key, batch)
        healed = store.load_batch(key)
        assert healed is not None
        _assert_batches_bitwise_equal(batch, healed)

    def test_corrupted_record_is_invalid_miss(self, store, platform):
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        store.save_batch(key, platform.grid_sweep(spec))
        path = store.path_for(GRID_KIND, key)
        path.write_bytes(b"\x00" * 100)
        assert store.load_batch(key) is None
        assert store.stats().invalid_records == 1

    def test_foreign_schema_is_miss(self, store, platform, monkeypatch):
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        batch = platform.grid_sweep(spec)
        monkeypatch.setattr(store_module, "STORE_SCHEMA_VERSION", 999)
        store.save_batch(key, batch)
        monkeypatch.undo()
        assert store.load_batch(key) is None
        assert store.stats().invalid_records == 1

    def test_wrong_kind_record_is_miss(self, store, platform):
        """A record copied under another kind's address fails the
        digest self-check."""
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        store.save_batch(key, platform.grid_sweep(spec))
        impostor = store.path_for("other", key)
        impostor.write_bytes(store.path_for(GRID_KIND, key).read_bytes())
        assert store.load_record("other", key) is None
        assert store.stats().invalid_records == 1

    def test_write_failure_degrades_silently(self, store, platform,
                                             monkeypatch):
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        batch = platform.grid_sweep(spec)

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(store_module.os, "replace", boom)
        assert store.save_batch(key, batch) is False
        monkeypatch.undo()
        assert store.load_batch(key) is None  # nothing was published

    def test_semantically_broken_record_demoted_to_miss(self, tmp_path,
                                                        platform):
        """A well-formed record whose arrays do not form a grid is an
        invalid miss in the stats and in every telemetry counter, on the
        eager and the mmap load path alike."""
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        for mmap in (False, True):
            telemetry = Telemetry()
            store = SweepStore(tmp_path / f"store-{mmap}",
                               telemetry=telemetry)
            store.save_record(GRID_KIND, key,
                              {"time": np.zeros(3, dtype=np.float64)})
            assert store.load_batch(key, mmap=mmap) is None
            stats = store.stats()
            assert stats.hits == 0
            assert stats.misses == 1
            assert stats.invalid_records == 1
            assert stats.bytes_read == 0
            metrics = telemetry.metrics
            assert metrics.counter("sweep_store_hits_total", "").value(
                kind=GRID_KIND) == 0.0
            assert metrics.counter("sweep_store_misses_total", "").value(
                kind=GRID_KIND) == 1.0
            assert metrics.counter("sweep_store_bytes", "").value(
                direction="read") == 0.0


# --- generic array records -------------------------------------------------------


class TestGenericRecords:
    def test_get_or_compute_arrays(self, store):
        calls = []

        def compute():
            calls.append(1)
            return {"time": np.arange(5, dtype=np.float64)}

        first = store.get_or_compute_arrays("eventsim", ("k",), compute)
        second = store.get_or_compute_arrays("eventsim", ("k",), compute)
        assert len(calls) == 1
        np.testing.assert_array_equal(first["time"], second["time"])

    def test_kinds_are_separate_namespaces(self, store):
        key = ("same",)
        store.save_record("a", key, {"x": np.ones(2)})
        assert store.load_record("b", key) is None
        assert store.load_record("a", key) is not None


# --- statistics and telemetry ----------------------------------------------------


class TestAccounting:
    def test_stats_count_bytes(self, store, platform):
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        store.save_batch(key, platform.grid_sweep(spec))
        store.load_batch(key)
        stats = store.stats()
        assert stats.hits == 1
        assert stats.bytes_written > 0
        assert stats.bytes_read == stats.bytes_written

    def test_telemetry_counters_and_spans(self, tmp_path, platform):
        telemetry = Telemetry()
        store = SweepStore(tmp_path / "s", telemetry=telemetry)
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        store.load_batch(key)  # miss
        store.save_batch(key, platform.grid_sweep(spec))
        store.load_batch(key)  # hit

        metrics = telemetry.metrics
        assert metrics.counter(
            "sweep_store_hits_total", "",
        ).value(kind=GRID_KIND) == 1.0
        assert metrics.counter(
            "sweep_store_misses_total", "",
        ).value(kind=GRID_KIND) == 1.0
        read = metrics.counter("sweep_store_bytes", "").value(
            direction="read")
        written = metrics.counter("sweep_store_bytes", "").value(
            direction="write")
        assert read == written > 0


# --- concurrency -----------------------------------------------------------------


class TestConcurrency:
    def test_racing_thread_writers_converge(self, store, platform):
        spec = all_kernels()[0].base
        key = _grid_key(platform, spec)
        batch = platform.grid_sweep(spec)
        errors = []

        def worker():
            try:
                for _ in range(5):
                    assert store.save_batch(key, batch)
                    loaded = store.load_batch(key)
                    if loaded is not None:
                        np.testing.assert_array_equal(batch.time, loaded.time)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        records = [p for p in store.root.iterdir() if ".tmp" not in p.name]
        assert len(records) == 1
        final = store.load_batch(key)
        _assert_batches_bitwise_equal(batch, final)

    def test_two_processes_converge(self, tmp_path, platform):
        """Two separate interpreters writing the same key publish one
        valid record, bitwise equal to an in-process sweep."""
        root = tmp_path / "shared-store"
        script = (
            "import sys\n"
            "from repro.platform.hd7970 import make_hd7970_platform\n"
            "from repro.platform.store import SweepStore\n"
            "from repro.workloads.registry import all_kernels\n"
            "platform = make_hd7970_platform()\n"
            "spec = all_kernels()[0].base\n"
            "store = SweepStore(sys.argv[1])\n"
            "key = platform.sweep_cache_key(spec)\n"
            "assert store.save_batch(key, platform.grid_sweep(spec))\n"
            "assert store.load_batch(key) is not None\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(root)],
                env={**_clean_env(), "PYTHONPATH": "src"},
                cwd=Path(__file__).resolve().parent.parent,
            )
            for _ in range(2)
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0

        spec = all_kernels()[0].base
        store = SweepStore(root)
        loaded = store.load_batch(platform.sweep_cache_key(spec))
        assert loaded is not None
        _assert_batches_bitwise_equal(platform.grid_sweep(spec), loaded)


def _clean_env():
    import os
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


# --- the two-tier cache ----------------------------------------------------------


class TestTwoTierCache:
    def test_write_through_and_cross_instance_warm_start(self, tmp_path,
                                                         fresh_platform):
        spec = all_kernels()[0].base
        store = SweepStore(tmp_path / "s")
        first = SweepCache(store=store)
        batch = fresh_platform.grid_sweep(spec, cache=first)
        assert first.stats().memory == (0, 1)
        assert first.stats().store == (0, 1)  # cold store missed first

        # A second cache instance (a "second process") never computes.
        second = SweepCache(store=store)
        served = second.get_or_compute(
            fresh_platform.sweep_cache_key(spec),
            compute=lambda: pytest.fail("store should have served this"),
        )
        _assert_batches_bitwise_equal(batch, served)
        assert second.stats().memory == (0, 1)
        assert second.stats().store == (1, 0)
        # The store hit was promoted into the memory tier.
        second.get_or_compute(
            fresh_platform.sweep_cache_key(spec),
            compute=lambda: pytest.fail("memory should have served this"),
        )
        assert second.stats().memory == (1, 1)

    def test_get_consults_store(self, tmp_path, fresh_platform):
        spec = all_kernels()[1].base
        store = SweepStore(tmp_path / "s")
        key = fresh_platform.sweep_cache_key(spec)
        store.save_batch(key, fresh_platform.grid_sweep(spec))
        cache = SweepCache(store=store)
        assert cache.get(key) is not None
        assert cache.stats().store == (1, 0)
        assert cache.get(key) is not None  # now from memory
        assert cache.stats().memory == (1, 1)

    def test_detach_store_runs_memory_only(self, tmp_path, fresh_platform):
        spec = all_kernels()[0].base
        store = SweepStore(tmp_path / "s")
        cache = SweepCache(store=store)
        cache.detach_store()
        fresh_platform.grid_sweep(spec, cache=cache)
        assert cache.stats().store == (0, 0)
        assert not any(store.root.iterdir())

    def test_memory_clear_then_store_serves(self, tmp_path, fresh_platform):
        spec = all_kernels()[0].base
        cache = SweepCache(store=SweepStore(tmp_path / "s"))
        batch = fresh_platform.grid_sweep(spec, cache=cache)
        cache.clear()
        again = fresh_platform.grid_sweep(spec, cache=cache)
        _assert_batches_bitwise_equal(batch, again)
        assert cache.stats().store == (1, 1)

    def test_corrupted_store_record_recomputed_and_healed(
            self, tmp_path, fresh_platform):
        spec = all_kernels()[0].base
        store = SweepStore(tmp_path / "s")
        cache = SweepCache(store=store)
        key = fresh_platform.sweep_cache_key(spec)
        batch = fresh_platform.grid_sweep(spec, cache=cache)
        path = store.path_for(GRID_KIND, key)
        # A zip archive holding the record's own arrays (the ``np.savez``
        # layout) is not a raw container, so it is as invalid as garbage.
        arrays, meta = store.load_record(GRID_KIND, key)
        zipped = io.BytesIO()
        np.savez(zipped, __meta__=np.array(json.dumps(meta)), **arrays)
        for invalid, payload in enumerate((b"garbage", zipped.getvalue()),
                                          start=1):
            path.write_bytes(payload)
            cache.clear()

            again = fresh_platform.grid_sweep(spec, cache=cache)
            _assert_batches_bitwise_equal(batch, again)
            assert store.stats().invalid_records == invalid
            # ... and the write-through healed the record on disk.
            healed = store.load_batch(key)
            assert healed is not None
            _assert_batches_bitwise_equal(batch, healed)

    def test_publish_emits_per_tier_counters(self, tmp_path, fresh_platform):
        spec = all_kernels()[0].base
        cache = SweepCache(store=SweepStore(tmp_path / "s"))
        fresh_platform.grid_sweep(spec, cache=cache)
        fresh_platform.grid_sweep(spec, cache=cache)
        telemetry = Telemetry()
        cache.publish(telemetry)
        hits = telemetry.metrics.counter("sweep_cache_hits_total", "")
        misses = telemetry.metrics.counter("sweep_cache_misses_total", "")
        assert hits.value(tier="memory") == 1.0
        assert misses.value(tier="memory") == 1.0
        assert misses.value(tier="store") == 1.0
        assert hits.value(tier="store") == 0.0


# --- zero-copy (memory-mapped) loads ----------------------------------------------


class TestMmapLoads:
    def test_mmap_round_trip_is_bitwise(self, store, fresh_platform):
        spec = all_kernels()[0].base
        batch = fresh_platform.grid_sweep(spec)
        key = _grid_key(fresh_platform, spec)
        store.save_batch(key, batch)
        loaded = store.load_batch(key, mmap=True)
        assert isinstance(loaded.time, np.memmap)
        assert isinstance(loaded.gpu_power, np.memmap)
        _assert_batches_bitwise_equal(batch, loaded)
        assert store.stats().mmap_hits == 1
        assert store.stats().hits == 1

    def test_release_hook_materializes_and_is_idempotent(
            self, store, fresh_platform):
        spec = all_kernels()[1].base
        key = _grid_key(fresh_platform, spec)
        batch = fresh_platform.grid_sweep(spec)
        store.save_batch(key, batch)
        loaded = store.load_batch(key, mmap=True)
        before = np.array(loaded.time)
        loaded.release_mmap()
        assert not isinstance(loaded.time, np.memmap)
        np.testing.assert_array_equal(loaded.time, before)
        _assert_batches_bitwise_equal(batch, loaded)
        loaded.release_mmap()  # second demote is a no-op

    def test_eager_loads_carry_no_release_hook(self, store, fresh_platform):
        spec = all_kernels()[0].base
        key = _grid_key(fresh_platform, spec)
        store.save_batch(key, fresh_platform.grid_sweep(spec))
        loaded = store.load_batch(key)  # mmap not requested
        assert not isinstance(loaded.time, np.memmap)
        assert not hasattr(loaded, "release_mmap")
        assert store.stats().mmap_hits == 0

    def test_absent_and_corrupt_records_stay_misses(
            self, store, fresh_platform):
        spec = all_kernels()[0].base
        key = _grid_key(fresh_platform, spec)
        assert store.load_batch(key, mmap=True) is None
        store.save_batch(key, fresh_platform.grid_sweep(spec))
        store.path_for(GRID_KIND, key).write_bytes(b"garbage")
        assert store.load_batch(key, mmap=True) is None
        stats = store.stats()
        assert stats.misses == 2
        assert stats.invalid_records == 1
        assert stats.mmap_hits == 0

    def test_mmap_hit_emits_counter(self, tmp_path, fresh_platform):
        telemetry = Telemetry()
        store = SweepStore(tmp_path / "s", telemetry=telemetry)
        spec = all_kernels()[0].base
        key = _grid_key(fresh_platform, spec)
        store.save_batch(key, fresh_platform.grid_sweep(spec))
        store.load_batch(key, mmap=True)
        counter = telemetry.metrics.counter(
            "sweep_store_mmap_hits_total", "")
        assert counter.value(kind=GRID_KIND) == 1.0

    def test_cache_eviction_demotes_mapped_entry(
            self, tmp_path, fresh_platform):
        specs = [k.base for k in all_kernels()[:2]]
        store = SweepStore(tmp_path / "s")
        for spec in specs:
            store.save_batch(_grid_key(fresh_platform, spec),
                             fresh_platform.grid_sweep(spec))
        cache = SweepCache(maxsize=1, store=store)
        first = cache.get(_grid_key(fresh_platform, specs[0]))
        assert isinstance(first.time, np.memmap)
        held = np.array(first.time)
        cache.get(_grid_key(fresh_platform, specs[1]))  # evicts first
        assert not isinstance(first.time, np.memmap)
        np.testing.assert_array_equal(first.time, held)

    def test_cache_clear_demotes_mapped_entries(
            self, tmp_path, fresh_platform):
        spec = all_kernels()[0].base
        store = SweepStore(tmp_path / "s")
        store.save_batch(_grid_key(fresh_platform, spec),
                         fresh_platform.grid_sweep(spec))
        cache = SweepCache(store=store)
        entry = cache.get(_grid_key(fresh_platform, spec))
        assert isinstance(entry.time, np.memmap)
        cache.clear()
        assert not isinstance(entry.time, np.memmap)

    def test_mmap_loads_off_reads_eagerly(self, tmp_path, fresh_platform):
        spec = all_kernels()[0].base
        store = SweepStore(tmp_path / "s")
        store.save_batch(_grid_key(fresh_platform, spec),
                         fresh_platform.grid_sweep(spec))
        cache = SweepCache(store=store, mmap_loads=False)
        entry = cache.get(_grid_key(fresh_platform, spec))
        assert not isinstance(entry.time, np.memmap)
        assert store.stats().mmap_hits == 0
