"""The persistent content-addressed store: digests, round trips,
robustness against corruption, and concurrency, on the two record kinds
it keeps — event-driven validation surfaces and result manifest
entries."""

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
from repro.experiments.ext_model_validation import (
    _load_event_times, _sample_configs)
from repro.platform.hd7970 import make_hd7970_platform, make_pitcairn_platform
from repro.platform.store import (
    EVENTSIM_KIND,
    RESULT_KIND,
    SweepStore,
    attach_store,
    attached_store,
    canonical_encode,
    content_digest,
    resolve_store_dir,
)
from repro.runtime.pipeline import ResultManifest
from repro.telemetry.handle import Telemetry
from repro.workloads.registry import all_kernels


@pytest.fixture()
def store(tmp_path):
    return SweepStore(tmp_path / "store")


def _grid_key(platform, spec):
    return platform.sweep_cache_key(spec)


# --- the two record kinds ----------------------------------------------------------


class EventsimRecord:
    """One kernel's event-driven validation record: the production key
    (calibration, spec, config sample) and a float64 ``time`` surface
    over the sample, read back through the production decoder."""

    def __init__(self, platform, index=0):
        self.calibration = platform.calibration
        self.spec = all_kernels()[index].base
        self.configs = _sample_configs(platform.config_space)
        rng = np.random.default_rng(index)
        self.time = rng.random(len(self.configs)) * 1e-3

    @property
    def key(self):
        return (self.calibration, self.spec, tuple(self.configs))

    def save(self, store):
        return store.save_record(EVENTSIM_KIND, self.key,
                                 {"time": self.time},
                                 meta={"kernel_name": self.spec.name})

    def load(self, store):
        return _load_event_times(store, self.calibration, self.spec,
                                 self.configs)

    def path(self, store):
        return store.path_for(EVENTSIM_KIND, self.key)


class ResultRecord:
    """One result manifest entry: a node's report text in the header."""

    key = (1, "f" * 64, "fig10_ed2", 1, ("fig10",), ())
    text = "Figure 10: ED2 improvement\ngeomean 1  +12.0%  — ü"

    def save(self, store):
        return ResultManifest(store).save(self.key, "fig10_ed2", self.text)

    def load(self, store):
        return ResultManifest(store).load(self.key)

    def path(self, store):
        return store.path_for(RESULT_KIND, self.key)


@pytest.fixture()
def eventsim(platform):
    return EventsimRecord(platform)


def _each_kind(platform, tmp_path):
    """``(record, empty store)`` for each kept record kind in turn."""
    for kind, record in ((EVENTSIM_KIND, EventsimRecord(platform)),
                         (RESULT_KIND, ResultRecord())):
        yield record, SweepStore(tmp_path / kind)


def _assert_served(record, value):
    assert value is not None
    if isinstance(record, EventsimRecord):
        assert value.dtype == np.float64
        assert value.tobytes() == record.time.tobytes()
    else:
        assert value == record.text


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
    def test_record_round_trip_is_bitwise(self, store):
        """Arrays of any dtype and special float values, and the JSON
        metadata, survive the raw container bit for bit."""
        time = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                         np.nextafter(1.0, 2.0), 1e-3], dtype=np.float64)
        arrays = {"time": time,
                  "counts": np.arange(6, dtype=np.int64).reshape(2, 3),
                  "names": np.array(["a", "bc"])}
        meta = {"kernel_name": "MaxFlops", "nested": {"x": [1, 2.5, None]}}
        assert store.save_record(EVENTSIM_KIND, ("k",), arrays, meta=meta)
        loaded, loaded_meta = store.load_record(EVENTSIM_KIND, ("k",))
        assert set(loaded) == set(arrays)
        for name, array in arrays.items():
            assert loaded[name].dtype == array.dtype
            assert loaded[name].shape == array.shape
            assert loaded[name].tobytes() == array.tobytes()
        assert {k: loaded_meta[k] for k in meta} == meta
        assert loaded_meta["kind"] == EVENTSIM_KIND

    def test_store_round_trip_is_bitwise(self, store, platform):
        for index in range(4):
            record = EventsimRecord(platform, index)
            assert record.save(store)
            _assert_served(record, record.load(store))
        result = ResultRecord()
        assert result.save(store)
        _assert_served(result, result.load(store))

    def test_no_tempfiles_left_behind(self, store, eventsim):
        eventsim.save(store)
        ResultRecord().save(store)
        leftovers = [p for p in store.root.iterdir()
                     if ".tmp" in p.name]
        assert leftovers == []


# --- robustness ------------------------------------------------------------------


class TestRobustness:
    def test_absent_record_is_plain_miss(self, platform, tmp_path):
        for record, store in _each_kind(platform, tmp_path):
            assert record.load(store) is None
            stats = store.stats()
            assert stats.misses == 1
            assert stats.invalid_records == 0

    def test_truncated_record_recomputes_and_rewrites(self, platform,
                                                      tmp_path):
        """A record cut at every byte offset is an invalid miss, never a
        partial hit; the caller's rewrite heals it."""
        for record, store in _each_kind(platform, tmp_path):
            assert record.save(store)
            path = record.path(store)
            full = path.read_bytes()
            for offset in range(len(full)):
                path.write_bytes(full[:offset])
                assert record.load(store) is None, offset
            stats = store.stats()
            assert stats.invalid_records == len(full)
            assert stats.hits == 0
            # The caller's recompute-and-rewrite heals the record.
            assert record.save(store)
            _assert_served(record, record.load(store))

    def test_corrupted_record_is_invalid_miss(self, platform, tmp_path):
        """Garbage and a zip archive (the ``np.savez`` layout) of the
        record's own contents both lack the container magic."""
        for record, store in _each_kind(platform, tmp_path):
            record.save(store)
            path = record.path(store)
            kind = path.name.split("-")[0]
            arrays, meta = store.load_record(kind, record.key)
            zipped = io.BytesIO()
            np.savez(zipped, __meta__=np.array(json.dumps(meta)), **arrays)
            for invalid, payload in enumerate(
                    (b"\x00" * 100, zipped.getvalue()), start=1):
                path.write_bytes(payload)
                assert record.load(store) is None
                assert store.stats().invalid_records == invalid

    def test_foreign_schema_is_miss(self, platform, tmp_path, monkeypatch):
        for record, store in _each_kind(platform, tmp_path):
            monkeypatch.setattr(store_module, "STORE_SCHEMA_VERSION", 999)
            record.save(store)
            monkeypatch.undo()
            assert record.load(store) is None
            assert store.stats().invalid_records == 1

    def test_wrong_kind_record_is_miss(self, store, eventsim):
        """A record copied under another kind's address fails the
        digest self-check."""
        eventsim.save(store)
        impostor = store.path_for(RESULT_KIND, eventsim.key)
        impostor.write_bytes(eventsim.path(store).read_bytes())
        assert store.load_record(RESULT_KIND, eventsim.key) is None
        assert store.stats().invalid_records == 1

    def test_write_failure_degrades_silently(self, platform, tmp_path,
                                             monkeypatch):
        def boom(*args, **kwargs):
            raise OSError("disk full")

        for record, store in _each_kind(platform, tmp_path):
            monkeypatch.setattr(store_module.os, "replace", boom)
            assert record.save(store) is False
            monkeypatch.undo()
            assert record.load(store) is None  # nothing was published
            assert list(store.root.iterdir()) == []

    def test_semantically_broken_record_demoted_to_miss(self, tmp_path,
                                                        platform):
        """A well-formed record its decoder rejects is an invalid miss
        in the stats and in every telemetry counter."""
        broken = (
            (EVENTSIM_KIND, {"time": np.zeros(3, dtype=np.float64)}, {}),
            (EVENTSIM_KIND, {"time": np.zeros(27, dtype=np.float32)}, {}),
            (EVENTSIM_KIND, {"other": np.zeros(27)}, {}),
            (RESULT_KIND, {}, {"node": "fig10_ed2", "report": 12}),
            (RESULT_KIND, {}, {"node": "fig10_ed2"}),
        )
        for case, (kind, arrays, meta) in enumerate(broken):
            record = (EventsimRecord(platform) if kind == EVENTSIM_KIND
                      else ResultRecord())
            telemetry = Telemetry()
            store = SweepStore(tmp_path / f"store-{case}",
                               telemetry=telemetry)
            store.save_record(kind, record.key, arrays, meta=meta)
            assert record.load(store) is None, case
            stats = store.stats()
            assert stats.hits == 0
            assert stats.misses == 1
            assert stats.invalid_records == 1
            assert stats.bytes_read == 0
            metrics = telemetry.metrics
            assert metrics.counter("sweep_store_hits_total", "").value(
                kind=kind) == 0.0
            assert metrics.counter("sweep_store_misses_total", "").value(
                kind=kind) == 1.0
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


# --- the process's store -----------------------------------------------------------


class TestAttachedStore:
    def test_attach_then_detach(self, store):
        previous = attached_store()
        try:
            attach_store(store)
            assert attached_store() is store
            attach_store(None)
            assert attached_store() is None
        finally:
            attach_store(previous)

    def test_grid_surfaces_are_never_persisted(self, store, fresh_platform):
        """With a store attached, full-grid sweeps stay in memory."""
        previous = attached_store()
        try:
            attach_store(store)
            fresh_platform.grid_sweep(all_kernels()[0].base)
        finally:
            attach_store(previous)
        assert list(store.root.iterdir()) == []
        assert store.stats() == (0, 0, 0, 0, 0)


# --- statistics and telemetry ----------------------------------------------------


class TestAccounting:
    def test_stats_count_bytes(self, store, eventsim):
        eventsim.save(store)
        eventsim.load(store)
        stats = store.stats()
        assert stats.hits == 1
        assert stats.bytes_written > 0
        assert stats.bytes_read == stats.bytes_written

    def test_telemetry_counters_and_spans(self, tmp_path, eventsim):
        telemetry = Telemetry()
        store = SweepStore(tmp_path / "s", telemetry=telemetry)
        eventsim.load(store)  # miss
        eventsim.save(store)
        eventsim.load(store)  # hit

        metrics = telemetry.metrics
        assert metrics.counter(
            "sweep_store_hits_total", "",
        ).value(kind=EVENTSIM_KIND) == 1.0
        assert metrics.counter(
            "sweep_store_misses_total", "",
        ).value(kind=EVENTSIM_KIND) == 1.0
        read = metrics.counter("sweep_store_bytes", "").value(
            direction="read")
        written = metrics.counter("sweep_store_bytes", "").value(
            direction="write")
        assert read == written > 0


# --- concurrency -----------------------------------------------------------------


class TestConcurrency:
    def test_racing_thread_writers_converge(self, platform, tmp_path):
        for record, store in _each_kind(platform, tmp_path):
            errors = []

            def worker():
                try:
                    for _ in range(5):
                        assert record.save(store)
                        loaded = record.load(store)
                        if loaded is not None:
                            _assert_served(record, loaded)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert store.stats().invalid_records == 0
            records = [p for p in store.root.iterdir()
                       if ".tmp" not in p.name]
            assert len(records) == 1
            _assert_served(record, record.load(store))

    def test_two_processes_converge(self, tmp_path, platform):
        """Two separate interpreters writing the same keys publish one
        valid record per key, bitwise equal to the in-process values."""
        root = tmp_path / "shared-store"
        script = (
            "import sys\n"
            "sys.path.insert(0, 'tests')\n"
            "from repro.platform.hd7970 import make_hd7970_platform\n"
            "from repro.platform.store import SweepStore\n"
            "from test_store import EventsimRecord, ResultRecord\n"
            "store = SweepStore(sys.argv[1])\n"
            "for record in (EventsimRecord(make_hd7970_platform()),\n"
            "               ResultRecord()):\n"
            "    for _ in range(20):\n"
            "        assert record.save(store)\n"
            "        assert record.load(store) is not None\n"
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

        store = SweepStore(root)
        assert sorted(p.name.split("-")[0] for p in root.iterdir()) == [
            EVENTSIM_KIND, RESULT_KIND]
        for record in (EventsimRecord(platform), ResultRecord()):
            _assert_served(record, record.load(store))


def _clean_env():
    import os
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
