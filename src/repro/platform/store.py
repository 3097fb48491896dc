"""Disk-backed, content-addressed store of deterministic sweep surfaces.

The in-memory sweep cache (:mod:`repro.platform.sweepcache`) amortizes
whole-grid surfaces *within* one process; this store amortizes them
*across* processes — ``reproduce``, ``evaluate``, each benchmark and each
CI shard warm-start from the surfaces the previous invocation computed.

Keys are **content-addressed**: a record's filename is the SHA-256 digest
of a canonical serialization of its key — the frozen
:class:`~repro.platform.calibration.PlatformCalibration`, the frozen
:class:`~repro.perf.kernelspec.KernelSpec`, and the grid axes, walked
field by field with floats rendered via :meth:`float.hex` so the encoding
is exact and stable across processes (Python's builtin ``hash()`` is
salted per process and useless here). Changing *any* calibration
constant, kernel characteristic, or grid axis changes the digest, so
invalidation is by value: stale records are simply never addressed again.

Records are single files holding the surface arrays plus one JSON
metadata header carrying the schema version, the digest (self-check),
and the config-invariant scalars encoded with ``float.hex`` for bitwise
round-trips. Records are written as a **raw npy container** (a magic
prefix, the JSON header, then length-prefixed named ``.npy`` members
back to back) — the zip machinery of ``np.savez`` costs more than the
payload for the small records a cold ``reproduce`` writes by the
hundreds. The filename keeps its historical ``.npz`` suffix, so content
addresses and cache keys stay stable; a file at a record's path that
does not start with the container magic (e.g. a zip archive) is an
invalid record. A record may have no array members at all (the result
manifest keeps its report text in the header); numpy is imported only
to write or read a member, so serving such records never loads it.
Properties:

* **atomic** — writes go to a unique tempfile in the store directory and
  are published with :func:`os.replace`, so concurrent ``--jobs`` workers
  and parallel CI shards never observe a torn record; racing writers of
  the same key each publish a complete record and the last one wins
  (contents are deterministic, so the duplicates are identical);
* **self-validating** — corrupted, truncated, foreign-format or
  foreign-schema records (and grid records whose arrays do not form a
  grid) are treated as misses: the caller recomputes and rewrites, the
  store never raises out of a read;
* **deterministic only** — exclusively noise-free surfaces are persisted
  (the cache-then-perturb contract keeps noise keyed on read).

Only the store *layout* is defined here; the two-tier lookup policy lives
in :class:`~repro.platform.sweepcache.SweepCache`.
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
    TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Tuple)

from repro.gpu.config import HardwareConfig

if TYPE_CHECKING:
    import numpy as np

    from repro.perf.batch import BatchRunResult

#: Bump whenever the record layout changes; older records then read as
#: misses and are transparently recomputed and rewritten.
STORE_SCHEMA_VERSION = 1

#: Record kind of full-grid :class:`BatchRunResult` surfaces.
GRID_KIND = "grid"

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

#: Minimum member payload worth memory-mapping; smaller members are read
#: eagerly (a map costs a syscall and a page of address space, and tiny
#: members fit in the buffer the header read already filled).
MMAP_MIN_BYTES = 16 * 1024

#: Leading magic of raw-container records; a file without it is not a
#: record. The trailing newline keeps accidental text-mode corruption
#: detectable, like the npy magic it wraps.
_RAW_MAGIC = b"\x93RPROSTORE\x01\n"

#: Per-process sequence for unique tempfile names on the write path
#: (``<final>.<pid>.<seq>.tmp``): ``itertools.count`` is atomic under
#: the GIL, the pid separates concurrent processes, and uniqueness is
#: all the name must provide — atomicity comes from :func:`os.replace`.
_TMP_SEQ = itertools.count()

#: Row order of the stacked per-config float64 surfaces in a grid record.
_GRID_ARRAYS = (
    "time", "compute_time", "memory_time", "overlap_residue",
    "achieved_bandwidth", "gpu_power", "memory_power",
    "valu_busy", "mem_unit_busy", "mem_unit_stalled",
    "write_unit_stalled", "ic_activity", "cfg_f_cu", "cfg_f_mem",
)

#: Config-invariant scalars kept in the JSON metadata via ``float.hex``.
_GRID_SCALARS = (
    "launch_overhead", "other_power", "valu_utilization", "norm_vgpr",
    "norm_sgpr", "valu_insts_millions", "vfetch_insts_millions",
    "vwrite_insts_millions",
)


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


# --- BatchRunResult <-> record ---------------------------------------------------


def batch_to_record(
    batch: BatchRunResult,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Serialize a deterministic grid surface to (arrays, metadata).

    Only the independent surfaces are stored; derived quantities
    (``card_power``, ``energy``, ``ed``/``ed2``) are recomputed by the
    :class:`BatchRunResult` constructor on load with the same float
    operations, so the round trip is bitwise identical.
    """
    import numpy as np

    counters = batch.counters
    columns = {
        "time": batch.time,
        "compute_time": batch.compute_time,
        "memory_time": batch.memory_time,
        "overlap_residue": batch.overlap_residue,
        "achieved_bandwidth": batch.achieved_bandwidth,
        "gpu_power": batch.gpu_power,
        "memory_power": batch.memory_power,
        "valu_busy": counters.valu_busy,
        "mem_unit_busy": counters.mem_unit_busy,
        "mem_unit_stalled": counters.mem_unit_stalled,
        "write_unit_stalled": counters.write_unit_stalled,
        "ic_activity": counters.ic_activity,
        "cfg_f_cu": np.array([c.f_cu for c in batch.configs],
                             dtype=np.float64),
        "cfg_f_mem": np.array([c.f_mem for c in batch.configs],
                              dtype=np.float64),
    }
    # One stacked 2D array instead of 14 npz members: each member costs
    # a zip entry plus a header parse on load, and record loads are the
    # warm-start hot path. np.stack copies values verbatim, so the
    # round trip stays bitwise.
    arrays: Dict[str, np.ndarray] = {
        "stack": np.stack([columns[name] for name in _GRID_ARRAYS]),
        "cfg_n_cu": np.array([c.n_cu for c in batch.configs], dtype=np.int64),
        "bandwidth_limit": np.array(batch.bandwidth_limit, dtype=str),
    }
    occupancy = batch.occupancy
    meta: Dict[str, Any] = {
        "kernel_name": batch.kernel_name,
        "scalars": {
            "launch_overhead": batch.launch_overhead.hex(),
            "other_power": batch.other_power.hex(),
            "valu_utilization": counters.valu_utilization.hex(),
            "norm_vgpr": counters.norm_vgpr.hex(),
            "norm_sgpr": counters.norm_sgpr.hex(),
            "valu_insts_millions": counters.valu_insts_millions.hex(),
            "vfetch_insts_millions": counters.vfetch_insts_millions.hex(),
            "vwrite_insts_millions": counters.vwrite_insts_millions.hex(),
        },
        "occupancy": {
            "waves_per_simd": occupancy.waves_per_simd,
            "limits": dataclasses.asdict(occupancy.limits),
        },
    }
    return arrays, meta


#: Reconstructed config tuples, keyed by the raw bytes of the config
#: columns. Every grid record of one platform shares the same ~450-point
#: grid, so one reconstruction serves all of a process's record loads.
_CONFIGS_MEMO: Dict[Tuple[bytes, bytes, bytes], Tuple[HardwareConfig, ...]] = {}


def _configs_from_arrays(
    n_cu: np.ndarray, f_cu: np.ndarray, f_mem: np.ndarray
) -> Tuple[HardwareConfig, ...]:
    memo_key = (n_cu.tobytes(), f_cu.tobytes(), f_mem.tobytes())
    configs = _CONFIGS_MEMO.get(memo_key)
    if configs is None:
        configs = tuple(
            HardwareConfig(n_cu=int(n), f_cu=float(f), f_mem=float(m))
            for n, f, m in zip(n_cu, f_cu, f_mem)
        )
        if len(_CONFIGS_MEMO) >= 64:
            _CONFIGS_MEMO.clear()
        _CONFIGS_MEMO[memo_key] = configs
    return configs


def batch_from_record(
    arrays: Dict[str, np.ndarray], meta: Dict[str, Any]
) -> BatchRunResult:
    """Rebuild a :class:`BatchRunResult` from a loaded record.

    Raises:
        Exception: any malformation (missing arrays, length mismatches,
            bad scalar encodings) — the store turns it into a miss.
    """
    import numpy as np

    from repro.gpu.occupancy import OccupancyLimits, OccupancyResult
    from repro.perf.batch import (
        BatchCounters, BatchModelOutput, BatchRunResult)

    stack = arrays["stack"]
    if (stack.ndim != 2 or stack.shape[0] != len(_GRID_ARRAYS)
            or stack.dtype != np.float64):
        raise ValueError("malformed grid stack")
    n = int(stack.shape[1])
    columns = dict(zip(_GRID_ARRAYS, stack))
    if arrays["cfg_n_cu"].shape != (n,) or arrays["bandwidth_limit"].shape != (n,):
        raise ValueError("malformed grid record")

    scalars = {
        name: float.fromhex(meta["scalars"][name]) for name in _GRID_SCALARS
    }
    counters = BatchCounters(
        valu_busy=columns["valu_busy"],
        mem_unit_busy=columns["mem_unit_busy"],
        mem_unit_stalled=columns["mem_unit_stalled"],
        write_unit_stalled=columns["write_unit_stalled"],
        ic_activity=columns["ic_activity"],
        valu_utilization=scalars["valu_utilization"],
        norm_vgpr=scalars["norm_vgpr"],
        norm_sgpr=scalars["norm_sgpr"],
        valu_insts_millions=scalars["valu_insts_millions"],
        vfetch_insts_millions=scalars["vfetch_insts_millions"],
        vwrite_insts_millions=scalars["vwrite_insts_millions"],
    )
    occupancy = OccupancyResult(
        waves_per_simd=int(meta["occupancy"]["waves_per_simd"]),
        limits=OccupancyLimits(
            **{k: int(v) for k, v in meta["occupancy"]["limits"].items()}
        ),
    )
    model = BatchModelOutput(
        compute_time=columns["compute_time"],
        memory_time=columns["memory_time"],
        overlap_residue=columns["overlap_residue"],
        launch_overhead=scalars["launch_overhead"],
        time=columns["time"],
        achieved_bandwidth=columns["achieved_bandwidth"],
        occupancy=occupancy,
        bandwidth_limit=tuple(str(s) for s in arrays["bandwidth_limit"]),
        counters=counters,
    )
    configs = _configs_from_arrays(
        arrays["cfg_n_cu"], columns["cfg_f_cu"], columns["cfg_f_mem"]
    )
    return BatchRunResult(
        kernel_name=str(meta["kernel_name"]),
        configs=configs,
        model=model,
        gpu_power=columns["gpu_power"],
        memory_power=columns["memory_power"],
        other_power=scalars["other_power"],
    )


# --- the raw container, eager and zero-copy (memory-mapped) reads ----------------
#
# Every member's ``.npy`` payload sits contiguously in the record file,
# so a large member can be mapped directly: parse its npy header and
# hand the bytes after it to :class:`numpy.memmap`. Pages then enter the
# process lazily from the OS page cache, shared across processes,
# instead of being copied into private heap buffers on every load.


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


def _read_raw_meta(fh) -> Dict[str, Any]:
    """The JSON header of a raw record; ``fh`` sits just past the magic."""
    meta_len = int.from_bytes(_read_exact(fh, 8), "little")
    return json.loads(_read_exact(fh, meta_len))


def _read_exact(fh, count: int) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ValueError("truncated raw record")
    return data


def _iter_raw_members(fh):
    """Yield ``(name, fh)`` pairs with ``fh`` positioned at each member's
    ``.npy`` serialization; the consumer must advance past the payload."""
    while True:
        head = fh.read(8)
        if not head:
            return
        if len(head) != 8:
            raise ValueError("truncated raw record")
        name_len = int.from_bytes(head, "little")
        yield _read_exact(fh, name_len).decode("utf-8"), fh


def _read_raw_record(fh) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Eagerly read one record; ``fh`` sits just past the magic."""
    meta = _read_raw_meta(fh)
    arrays: Dict[str, np.ndarray] = {}
    for name, member in _iter_raw_members(fh):
        arrays[name] = _read_array(member)
    return arrays, meta


def _read_raw_record_mmap(
    path, fh
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any], int]:
    """Read a record, memory-mapping members worth mapping.

    Large members become read-only :class:`numpy.memmap` views, small
    ones are read eagerly, and ``mapped`` counts the views served.
    ``fh`` sits just past the magic.
    """
    import numpy as np

    meta = _read_raw_meta(fh)
    arrays: Dict[str, np.ndarray] = {}
    mapped = 0
    for name, member in _iter_raw_members(fh):
        header_at = member.tell()
        version = np.lib.format.read_magic(member)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(
                member)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(
                member)
        else:
            raise ValueError(f"unsupported npy format version {version}")
        nbytes = int(dtype.itemsize) * int(np.prod(shape, dtype=np.int64))
        if nbytes >= MMAP_MIN_BYTES and not dtype.hasobject:
            arrays[name] = np.memmap(
                path, dtype=dtype, mode="r", offset=member.tell(),
                shape=shape, order="F" if fortran else "C")
            mapped += 1
            member.seek(nbytes, os.SEEK_CUR)
        else:
            member.seek(header_at)
            arrays[name] = _read_array(member)
    return arrays, meta, mapped


def _read_record(
    path, mmap: bool,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any], int]:
    """Read one record, optionally memory-mapping its large members.

    Returns ``(arrays, meta, mapped)`` where ``mapped`` counts the
    members served as :class:`numpy.memmap` views. A record the mapped
    read cannot serve (e.g. a filesystem that refuses to map) is read
    again eagerly. Raises on a missing magic or any torn, truncated or
    foreign layout — the caller accounts that as an invalid miss.
    """
    with open(path, "rb") as fh:
        if fh.read(len(_RAW_MAGIC)) != _RAW_MAGIC:
            raise ValueError("not a raw-container record")
        if mmap:
            try:
                return _read_raw_record_mmap(path, fh)
            except (OSError, ValueError):
                fh.seek(len(_RAW_MAGIC))
        arrays, meta = _read_raw_record(fh)
    return arrays, meta, 0


def _materialize_batch(batch: BatchRunResult) -> None:
    """Copy a batch's array surfaces out of mapped file pages into RAM."""
    import numpy as np

    for name in ("time", "compute_time", "memory_time", "overlap_residue",
                 "achieved_bandwidth", "gpu_power", "memory_power",
                 "card_power", "energy"):
        value = getattr(batch, name)
        if isinstance(value, np.ndarray):
            setattr(batch, name, np.array(value))
    counters = batch.counters
    batch.counters = dataclasses.replace(
        counters,
        valu_busy=np.array(counters.valu_busy),
        mem_unit_busy=np.array(counters.mem_unit_busy),
        mem_unit_stalled=np.array(counters.mem_unit_stalled),
        write_unit_stalled=np.array(counters.write_unit_stalled),
        ic_activity=np.array(counters.ic_activity),
    )


def _attach_mmap_release(batch: BatchRunResult,
                         mapped: List[np.ndarray]) -> None:
    """Give a map-backed batch a ``release_mmap`` copy-on-demote hook.

    The sweep cache invokes the hook when it demotes (evicts) the entry:
    the batch's surfaces are copied into process memory first — callers
    holding the batch keep working on identical values — and the
    underlying maps are then closed so the file handles and address
    space are returned. A close is skipped (left to garbage collection)
    when external views of the map are still alive.
    """
    buffers = [mm._mmap for mm in mapped
               if getattr(mm, "_mmap", None) is not None]

    def release_mmap() -> None:
        _materialize_batch(batch)
        mapped.clear()
        while buffers:
            buffer = buffers.pop()
            try:
                buffer.close()
            except BufferError:
                pass
        batch.release_mmap = lambda: None

    batch.release_mmap = release_mmap


def _as_record(arrays: Dict[str, np.ndarray],
               meta: Dict[str, Any]
               ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """The generic-record decoding: the arrays and metadata as read."""
    return arrays, meta


def _decode_batch(arrays: Dict[str, np.ndarray],
                  meta: Dict[str, Any]) -> BatchRunResult:
    """A grid record as a batch, with a release hook if it is mapped."""
    import numpy as np

    batch = batch_from_record(arrays, meta)
    mapped = [array for array in arrays.values()
              if isinstance(array, np.memmap)]
    if mapped:
        _attach_mmap_release(batch, mapped)
    return batch


# --- the store -------------------------------------------------------------------


class StoreStats(NamedTuple):
    """Cumulative operation counts of one :class:`SweepStore`."""

    hits: int
    misses: int
    invalid_records: int
    bytes_read: int
    bytes_written: int
    #: records served zero-copy with memory-mapped array members
    mmap_hits: int = 0


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
        self._mmap_hits = 0

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
                mmap_hits=self._mmap_hits,
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
                miss.
        """
        return self._load(kind, key, mmap=False, decode=decode)

    def load_record_mmap(
        self, kind: str, key: Any
    ) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, Any]]]:
        """Load one record with large array members memory-mapped.

        Same contract as :meth:`load_record`, but members big enough to
        be worth it are served as read-only :class:`numpy.memmap` views
        of the record file — zero-copy: the bytes stay in the OS page
        cache and are never duplicated into private buffers. A
        filesystem that refuses to map falls back to the eager reader,
        so callers never observe a behavioural difference.
        """
        return self._load(kind, key, mmap=True, decode=_as_record)

    def _load(self, kind: str, key: Any, mmap: bool,
              decode: Callable[[Dict[str, np.ndarray], Dict[str, Any]], Any]
              ) -> Any:
        """Read, validate and ``decode`` one record; None on any miss.

        The hit (and its bytes) is accounted once, after ``decode``
        accepted the record, so a record that fails to decode is an
        invalid miss in :class:`StoreStats` and in telemetry alike.
        """
        digest = content_digest((kind, key))
        path = self._root / f"{kind}-{digest}.npz"
        telemetry = self._tel()
        value = None
        invalid = False
        size = mapped = 0
        try:
            with telemetry.span("sweep_store.load", kind=kind):
                size = os.stat(path).st_size
                arrays, meta, mapped = _read_record(path, mmap)
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
                self._mmap_hits += bool(mapped)
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
        if mapped:
            metrics.counter(
                "sweep_store_mmap_hits_total",
                "sweep store records served zero-copy via mmap",
            ).inc(kind=kind)
        return value

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

    # --- grid surfaces -----------------------------------------------------------

    def save_batch(self, key: Any, batch: BatchRunResult) -> bool:
        """Persist one deterministic full-grid surface."""
        arrays, meta = batch_to_record(batch)
        return self.save_record(GRID_KIND, key, arrays, meta=meta)

    def load_batch(self, key: Any,
                   mmap: bool = False) -> Optional[BatchRunResult]:
        """Load one grid surface, or None on any kind of miss.

        A record whose arrays do not form a grid is an invalid miss.

        Args:
            key: the grid's content-address key.
            mmap: serve the surface arrays as zero-copy memory maps of
                the record file (with eager fallback). The returned
                batch then carries a ``release_mmap`` copy-on-demote
                hook the sweep cache invokes on eviction.
        """
        return self._load(GRID_KIND, key, mmap=mmap, decode=_decode_batch)
