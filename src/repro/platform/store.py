"""Disk-backed, content-addressed store of deterministic records.

The store amortizes work *across* processes: ``reproduce``, ``evaluate``,
each benchmark and each CI shard reuse what the previous invocation
persisted. It keeps two record kinds — the event-driven validation
surfaces (:data:`EVENTSIM_KIND`), which cost far more to simulate than
to load, and the experiment pipeline's result manifest entries
(:data:`RESULT_KIND`), which let a warm ``reproduce`` serve every report
without running any experiment. Full-grid sweep surfaces are *not*
persisted: the batched model computes one faster than the store could
save or load it, so they live only in the in-memory
:mod:`repro.platform.sweepcache`.

Keys are **content-addressed**: a record's filename is the SHA-256 digest
of a canonical serialization of its key — e.g. the frozen
:class:`~repro.platform.calibration.PlatformCalibration`, the frozen
:class:`~repro.perf.kernelspec.KernelSpec` and a config sample, walked
field by field with floats rendered via :meth:`float.hex` so the encoding
is exact and stable across processes (Python's builtin ``hash()`` is
salted per process and useless here). Changing *any* calibration
constant, kernel characteristic, or config changes the digest, so
invalidation is by value: stale records are simply never addressed again.

Records are single files holding named arrays plus one JSON metadata
header carrying the schema version, the kind and the digest
(self-check). Records are written as a **raw npy container** (a magic
prefix, the JSON header, then length-prefixed named ``.npy`` members
back to back) — the zip machinery of ``np.savez`` costs more than the
payload for small records. The filename keeps its historical ``.npz``
suffix, so content addresses and cache keys stay stable; a file at a
record's path that does not start with the container magic (e.g. a zip
archive) is an invalid record. A record may have no array members at
all (the result manifest keeps its report text in the header); numpy is
imported only to write or read a member, so serving such records never
loads it. Properties:

* **atomic** — writes go to a unique tempfile in the store directory and
  are published with :func:`os.replace`, so concurrent ``--jobs`` workers
  and parallel CI shards never observe a torn record; racing writers of
  the same key each publish a complete record and the last one wins
  (contents are deterministic, so the duplicates are identical);
* **self-validating** — corrupted, truncated, foreign-format or
  foreign-schema records (and records a caller's decoder rejects) are
  treated as misses: the caller recomputes and rewrites, the store never
  raises out of a read;
* **deterministic only** — exclusively noise-free results are persisted.

The process's store — the one the CLI opens from ``--cache-dir`` — is
registered with :func:`attach_store` and read back with
:func:`attached_store`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import json
import os
import threading
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, NamedTuple, Optional, Tuple)

if TYPE_CHECKING:
    import numpy as np

#: Bump whenever the record layout changes; older records then read as
#: misses and are transparently recomputed and rewritten.
STORE_SCHEMA_VERSION = 1

#: Record kind of experiment-pipeline result-manifest entries (the exact
#: formatted report text of one DAG node; see
#: :class:`repro.runtime.pipeline.ResultManifest`).
RESULT_KIND = "result"

#: Record kind of event-driven validation surfaces (one float64 ``time``
#: array per (calibration, spec, config-sample) key; producer:
#: :mod:`repro.experiments.ext_model_validation`, via the batched lockstep
#: engine, which is bitwise equivalent to the scalar event simulator).
EVENTSIM_KIND = "eventsim"

#: Environment variable overriding the default store directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Leading magic of raw-container records; a file without it is not a
#: record. The trailing newline keeps accidental text-mode corruption
#: detectable, like the npy magic it wraps.
_RAW_MAGIC = b"\x93RPROSTORE\x01\n"

#: Per-process sequence for unique tempfile names on the write path
#: (``<final>.<pid>.<seq>.tmp``): ``itertools.count`` is atomic under
#: the GIL, the pid separates concurrent processes, and uniqueness is
#: all the name must provide — atomicity comes from :func:`os.replace`.
_TMP_SEQ = itertools.count()

def resolve_store_dir(override: Optional[str] = None) -> Path:
    """The store directory: explicit override, else ``$REPRO_CACHE_DIR``,
    else ``~/.cache/repro-harmonia``."""
    if override:
        return Path(override).expanduser()
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-harmonia"


# --- canonical key serialization -------------------------------------------------


def canonical_encode(value: Any) -> str:
    """A stable, exact text rendering of a (nested) sweep-store key.

    Frozen dataclasses render as ``ClassName(field=..., ...)`` in field
    declaration order; floats render via :meth:`float.hex` (every bit
    pattern gets a distinct, platform-independent spelling — ``repr``
    round-trips too, but hex makes the exactness explicit); tuples/lists
    recurse. ``hash()`` is deliberately avoided: it is salted per process
    for strings and would not address the same record twice.

    Raises:
        TypeError: for values that have no canonical form (the key would
            silently collide otherwise).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ", ".join(
            f"{f.name}={canonical_encode(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, bool):  # before int: bool is an int subclass
        return "true" if value else "false"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(canonical_encode(item) for item in value) + ")"
    if value is None:
        return "null"
    raise TypeError(
        f"cannot canonically encode {type(value).__name__!r} in a store key"
    )


#: Digests of recently fingerprinted (hashable) keys. Encoding a key
#: walks the whole calibration dataclass; a ``reproduce`` run addresses
#: a hundred-plus records under a handful of calibrations, so the memo
#: turns all but the first walk per key into a dict hit.
_DIGEST_MEMO: Dict[Any, str] = {}


def content_digest(key: Any) -> str:
    """Hex SHA-256 fingerprint of a key's canonical serialization."""
    try:
        cached = _DIGEST_MEMO.get(key)
    except TypeError:  # unhashable key (e.g. contains a list): no memo
        return hashlib.sha256(
            canonical_encode(key).encode("utf-8")).hexdigest()
    if cached is None:
        cached = hashlib.sha256(
            canonical_encode(key).encode("utf-8")).hexdigest()
        if len(_DIGEST_MEMO) >= 4096:
            _DIGEST_MEMO.clear()
        _DIGEST_MEMO[key] = cached
    return cached


# --- the raw container -----------------------------------------------------------


def _write_raw_record(buf, meta: Dict[str, Any],
                      arrays: Dict[str, np.ndarray]) -> None:
    """Serialize one record into ``buf`` in the raw container format.

    Layout: ``_RAW_MAGIC``, 8-byte little-endian JSON header length, the
    JSON header, then per member an 8-byte name length, the UTF-8 name,
    and the standard ``.npy`` serialization of the array.
    """
    meta_bytes = json.dumps(meta).encode("utf-8")
    buf.write(_RAW_MAGIC)
    buf.write(len(meta_bytes).to_bytes(8, "little"))
    buf.write(meta_bytes)
    for name, array in arrays.items():
        name_bytes = name.encode("utf-8")
        buf.write(len(name_bytes).to_bytes(8, "little"))
        buf.write(name_bytes)
        _write_array(buf, array)


def _write_array(buf, array) -> None:
    """One member's ``.npy`` serialization (numpy loads on first member)."""
    import numpy as np

    np.lib.format.write_array(buf, np.asarray(array), allow_pickle=False)


def _read_array(fh) -> np.ndarray:
    """One member's array; ``fh`` sits at its ``.npy`` serialization."""
    import numpy as np

    return np.lib.format.read_array(fh, allow_pickle=False)


def _read_exact(fh, count: int) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ValueError("truncated raw record")
    return data


def _read_record(path) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Read one record as ``(arrays, meta)``.

    Raises on a missing magic or any torn, truncated or foreign layout —
    the caller accounts that as an invalid miss.
    """
    with open(path, "rb") as fh:
        if fh.read(len(_RAW_MAGIC)) != _RAW_MAGIC:
            raise ValueError("not a raw-container record")
        meta_len = int.from_bytes(_read_exact(fh, 8), "little")
        meta = json.loads(_read_exact(fh, meta_len))
        arrays: Dict[str, np.ndarray] = {}
        while True:
            head = fh.read(8)
            if not head:
                return arrays, meta
            if len(head) != 8:
                raise ValueError("truncated raw record")
            name = _read_exact(fh, int.from_bytes(head, "little"))
            arrays[name.decode("utf-8")] = _read_array(fh)


def _as_record(arrays: Dict[str, np.ndarray],
               meta: Dict[str, Any]
               ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """The generic-record decoding: the arrays and metadata as read."""
    return arrays, meta


# --- the store -------------------------------------------------------------------


class StoreStats(NamedTuple):
    """Cumulative operation counts of one :class:`SweepStore`."""

    hits: int
    misses: int
    invalid_records: int
    bytes_read: int
    bytes_written: int


class SweepStore:
    """Content-addressed raw-container records under one directory.

    Args:
        root: the store directory (created on first use).
        telemetry: optional telemetry handle; live operations feed the
            ``sweep_store_hits_total`` / ``sweep_store_misses_total``
            counters (labelled by record kind), the ``sweep_store_bytes``
            counter (labelled by transfer direction) and the
            ``sweep_store.load`` / ``sweep_store.save`` profile spans.

    Raises:
        OSError: when the directory cannot be created — the only error
            that escapes; every read/write problem afterwards degrades to
            a miss or a skipped write.
    """

    def __init__(self, root, telemetry=None):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        from repro.telemetry.handle import coalesce
        self._telemetry = coalesce(telemetry)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._invalid = 0
        self._bytes_read = 0
        self._bytes_written = 0

    @property
    def root(self) -> Path:
        """The store directory."""
        return self._root

    def set_telemetry(self, telemetry) -> None:
        """Attach (or detach, with None) a telemetry handle."""
        from repro.telemetry.handle import coalesce
        self._telemetry = coalesce(telemetry)

    def _tel(self):
        """The handle to record into: own if live, else the ambient one.

        A store constructed without telemetry still participates in a
        traced run (``reproduce --trace``): operations issued under an
        open span fall back to that span's handle, so store spans and
        counters land in the run's tree instead of vanishing.
        """
        telemetry = self._telemetry
        if telemetry.enabled:
            return telemetry
        from repro.telemetry.spans import ambient_telemetry
        return ambient_telemetry()

    def stats(self) -> StoreStats:
        """Cumulative hit/miss/byte counts since construction."""
        with self._lock:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                invalid_records=self._invalid,
                bytes_read=self._bytes_read,
                bytes_written=self._bytes_written,
            )

    def path_for(self, kind: str, key: Any) -> Path:
        """The record file a (kind, key) pair addresses."""
        return self._root / f"{kind}-{content_digest((kind, key))}.npz"

    # --- generic records ---------------------------------------------------------

    def save_record(self, kind: str, key: Any,
                    arrays: Dict[str, np.ndarray],
                    meta: Optional[Dict[str, Any]] = None) -> bool:
        """Atomically persist one record; False when the write failed.

        The record lands under its content digest via tempfile +
        :func:`os.replace`, so readers only ever see complete records.
        Write failures (full/read-only disk) are swallowed: the store is
        an accelerator, never a correctness dependency.
        """
        digest = content_digest((kind, key))
        final = self._root / f"{kind}-{digest}.npz"
        record_meta = dict(meta or ())
        record_meta["schema"] = STORE_SCHEMA_VERSION
        record_meta["kind"] = kind
        record_meta["digest"] = digest
        telemetry = self._tel()
        tmp = None
        try:
            with telemetry.span("sweep_store.save", kind=kind):
                buf = io.BytesIO()
                _write_raw_record(buf, record_meta, arrays)
                written = buf.tell()
                tmp = f"{final}.{os.getpid()}.{next(_TMP_SEQ)}.tmp"
                with open(tmp, "wb") as fh:
                    fh.write(buf.getbuffer())
                os.replace(tmp, final)
                tmp = None
        except Exception:
            return False
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        with self._lock:
            self._bytes_written += written
        telemetry.metrics.counter(
            "sweep_store_bytes", "bytes moved through the sweep store",
        ).inc(written, direction="write")
        return True

    def load_record(
        self, kind: str, key: Any,
        decode: Callable[[Dict[str, np.ndarray], Dict[str, Any]],
                         Any] = _as_record,
    ) -> Any:
        """Load one record as ``(arrays, meta)``, or None on a miss.

        Missing files, torn/corrupted/truncated records, foreign formats
        or schema versions and digest mismatches all count as misses —
        the caller recomputes and rewrites.

        Args:
            kind: the record kind.
            key: the record's content-address key.
            decode: ``decode(arrays, meta) -> value`` served in place of
                the raw pair; a record it rejects by raising is an invalid
                miss. The hit (and its bytes) is accounted once, after
                ``decode`` accepted the record, so a rejected record is an
                invalid miss in :class:`StoreStats` and in telemetry alike.
        """
        digest = content_digest((kind, key))
        path = self._root / f"{kind}-{digest}.npz"
        telemetry = self._tel()
        value = None
        invalid = False
        size = 0
        try:
            with telemetry.span("sweep_store.load", kind=kind):
                size = os.stat(path).st_size
                arrays, meta = _read_record(path)
                if (meta.get("schema") != STORE_SCHEMA_VERSION
                        or meta.get("kind") != kind
                        or meta.get("digest") != digest):
                    raise ValueError("foreign or mismatched record")
                value = decode(arrays, meta)
        except FileNotFoundError:
            pass
        except Exception:
            invalid = True
        hit = value is not None
        with self._lock:
            if hit:
                self._hits += 1
                self._bytes_read += size
            else:
                self._misses += 1
                self._invalid += invalid
        metrics = telemetry.metrics
        if not hit:
            metrics.counter(
                "sweep_store_misses_total", "sweep store lookups not served",
            ).inc(kind=kind)
            return None
        metrics.counter(
            "sweep_store_hits_total", "sweep store records served",
        ).inc(kind=kind)
        metrics.counter(
            "sweep_store_bytes", "bytes moved through the sweep store",
        ).inc(size, direction="read")
        return value

    # The CLI benchmark's tracer (clibench/tracer.py) still wraps this
    # former mmap entry point by name; drop the alias with that target.
    load_record_mmap = load_record

    def get_or_compute_arrays(
        self, kind: str, key: Any,
        compute: Callable[[], Dict[str, np.ndarray]],
        meta: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, np.ndarray]:
        """Serve a generic array record, computing and persisting on miss."""
        loaded = self.load_record(kind, key)
        if loaded is not None:
            return loaded[0]
        arrays = compute()
        self.save_record(kind, key, arrays, meta=meta)
        return arrays


# --- the process's store ---------------------------------------------------------

_ATTACHED: Optional[SweepStore] = None


def attach_store(store: Optional[SweepStore]) -> None:
    """Make ``store`` the process's store (None runs without one).

    The CLI attaches the store it opened from ``--cache-dir``; producers
    of persisted records (the event-driven validation surfaces) read it
    back with :func:`attached_store`.
    """
    global _ATTACHED
    _ATTACHED = store


def attached_store() -> Optional[SweepStore]:
    """The process's store, or None when none is attached."""
    return _ATTACHED
