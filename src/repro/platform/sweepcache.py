"""Cross-experiment cache of whole-grid sweep results.

The oracle (:mod:`repro.core.oracle`), the sensitivity measurement
(:mod:`repro.sensitivity.measurement`), the analysis sweeps
(:mod:`repro.analysis.sweep`) and the characterization experiment
(:mod:`repro.experiments.characterization`) each evaluate the same kernels
over the same ~450-point configuration grid. Before this cache existed,
every consumer re-ran its own sweep — the Figure 10-13 evaluation pipeline
evaluated each kernel's grid three or four times over.

A :class:`SweepCache` maps::

    (PlatformCalibration, KernelSpec, (cu_counts, compute_freqs, mem_freqs))
        -> BatchRunResult

All three key components are frozen, value-hashable dataclasses/tuples, so
keying is *by value*: two platforms built from the same calibration share
entries, and changing any calibration constant, kernel characteristic or
grid axis naturally misses — no explicit invalidation protocol is needed.

The cache lives in memory only. Surfaces are never persisted: the
batched model computes a kernel's whole grid in about the time the
on-disk store would take to save it, and faster than a load plus decode
(see "What the store keeps" in ``docs/performance.md``).

Only **deterministic** surfaces are cached. Noisy platforms still use
the cache:
:meth:`repro.platform.hd7970.HardwarePlatform.grid_sweep` looks up (or
computes) the noise-free surface and applies the launch-keyed noise
*after* the lookup as a vectorized draw (cache-then-perturb, see
:mod:`repro.platform.noise`), so no particular noise realization is ever
frozen into an entry and every consumer's draws stay keyed by
``(seed, spec, iteration, config)``.

The cache is bounded (LRU) and thread-safe, because the parallel fan-out
in :mod:`repro.runtime.parallel` evaluates several applications' kernels
concurrently against the shared instance from :func:`shared_cache`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Hashable, NamedTuple, Optional

if TYPE_CHECKING:
    from repro.gpu.config import ConfigSpace
    from repro.perf.batch import BatchRunResult
    from repro.perf.kernelspec import KernelSpec
    from repro.platform.calibration import PlatformCalibration


def sweep_cache_key(calibration: PlatformCalibration, space: ConfigSpace,
                    spec: KernelSpec) -> Hashable:
    """The cache key of ``spec``'s full-grid sweep on a platform built
    from ``calibration`` over ``space``: all three by value.

    Needs no platform instance, so the ``reproduce`` fingerprint can be
    taken without building the model stack.
    """
    return (
        calibration,
        spec,
        (space.cu_counts, space.compute_frequencies,
         space.memory_frequencies),
    )


class CacheStats(NamedTuple):
    """Lookup statistics of a :class:`SweepCache`."""

    hits: int
    misses: int

    @property
    def lookups(self) -> int:
        """Total lookups against the cache."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without recompute (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


class SweepCache:
    """Bounded, thread-safe LRU of :class:`BatchRunResult` grids.

    Attributes:
        maxsize: maximum number of cached grids; each entry holds a dozen
            float arrays over ~450 configs (a few tens of KB), so the
            default comfortably covers every kernel x calibration pair the
            repro evaluates.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, BatchRunResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        # Single-flight: one in-flight marker per key being computed, so
        # concurrent lookups of the same key wait for the leader instead
        # of duplicating the compute.
        self._inflight: dict = {}

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], BatchRunResult]
    ) -> BatchRunResult:
        """Return the cached grid for ``key``, computing it on a miss.

        ``compute`` runs outside the lock, so a slow surface does not
        block concurrent lookups of other kernels.

        Misses are **single-flight**: when two threads race on one key,
        the first becomes the leader and computes; the rest wait and are
        then served from memory as ordinary hits. Besides not wasting a
        duplicate grid evaluation, this keeps the hit/miss counters
        exactly scheduling-independent — a ``--jobs N`` run reports the
        same counts as the serial run, which the cross-worker metric
        aggregation tests rely on.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return entry
                waiter = self._inflight.get(key)
                if waiter is None:
                    self._misses += 1
                    event = threading.Event()
                    self._inflight[key] = event
                    break
            # Another thread is computing this key: wait, then re-check
            # (the leader may have failed — then this thread leads).
            waiter.wait()
        try:
            # The whole miss path is one "fill" span. Which caller leads
            # a *shared* fill is scheduling-dependent, so traces are
            # compared with fill subtrees detached
            # (tree_signature(..., detach=...)) — everything inside the
            # fill is deterministic.
            from repro.telemetry.spans import ambient_telemetry
            with ambient_telemetry().span("sweep_cache.fill"):
                result = compute()
            with self._lock:
                self._entries[key] = result
                self._entries.move_to_end(key)
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
            return result
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            event.set()

    def get(self, key: Hashable) -> Optional[BatchRunResult]:
        """The cached grid for ``key``, or None (counts as hit/miss);
        never computes."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
            return entry

    def clear(self) -> None:
        """Drop every cached grid (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # --- statistics ------------------------------------------------------------

    def stats(self) -> CacheStats:
        """``(hits, misses)`` since construction."""
        with self._lock:
            return CacheStats(self._hits, self._misses)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without recompute (0 when unused)."""
        return self.stats().hit_rate

    def publish(self, telemetry) -> None:
        """Export the lookup counts as telemetry counters.

        Sets ``sweep_cache_hits_total`` / ``sweep_cache_misses_total``
        from the current totals; call once, at the end of a run, before
        exporting the metrics registry.
        """
        stats = self.stats()
        hits = telemetry.metrics.counter(
            "sweep_cache_hits_total", "sweep cache lookups served",
        )
        misses = telemetry.metrics.counter(
            "sweep_cache_misses_total", "sweep cache lookup misses",
        )
        if stats.hits:
            hits.inc(stats.hits)
        if stats.misses:
            misses.inc(stats.misses)


_SHARED = SweepCache()


def shared_cache() -> SweepCache:
    """The process-wide sweep cache shared by all consumers."""
    return _SHARED
