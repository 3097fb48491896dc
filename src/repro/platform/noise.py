"""Stateless, launch-keyed measurement noise.

The platform used to draw run-to-run noise from one sequential
``np.random.default_rng`` stream, so a launch's multiplier depended on how
many launches happened before it — scalar and batched evaluation could
never agree, noisy surfaces could not be cached, and ``--jobs`` fan-out
reordered the draws. :class:`LaunchKeyedNoise` replaces that stream with a
counter-based derivation: the multiplier of a launch is a pure function of

    (platform seed, kernel spec, iteration, grid index of the config)

via ``np.random.SeedSequence`` -> ``np.random.Philox``. One Philox stream
is keyed per ``(seed, spec, iteration)`` and yields a normal draw for every
grid position in one vectorized call; a scalar launch simply indexes that
vector. The same launch therefore always sees the same multiplier — under
any execution order, interleaving, thread count, or batch/scalar split —
and scalar and batched noise are bitwise identical by construction.

Every caller derives streams through :func:`derive_normals`: the
platform's :class:`LaunchKeyedNoise` asks (via :func:`derive_block`) for
a block of one stream, the Monte Carlo engine for every ``(spec,
iteration)`` of an application times every trial seed, gathering the
launches it needs before scaling them with :func:`to_multipliers`. The
block's Philox keys come from :func:`philox_keys`, a
vectorized re-implementation of ``SeedSequence``'s fixed mixing hash
(bitwise equal to ``SeedSequence(row).generate_state(2, np.uint64)``, the
key ``Philox(SeedSequence(row))`` uses), and the draws from one shared
Philox generator re-keyed per stream by assigning its state.

Multipliers are clamped at :data:`NOISE_FLOOR`: a Gaussian draw can push
``1 + draw`` arbitrarily close to (or below) zero, and a non-positive
launch time breaks every downstream metric (energy, ED², performance).
The floor caps the modelled speed-up at 20x, far outside the run-to-run
variance the paper averages away; clips are reported so heavy-noise
studies can see when the tail is being truncated.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import threading
from collections import OrderedDict
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.perf.kernelspec import KernelSpec

#: Lower bound on the noise multiplier: a launch is never reported more
#: than 20x faster than the model time, and never non-positive.
NOISE_FLOOR = 0.05

# ``np.random.SeedSequence``'s mixing constants (numpy/random/
# bit_generator.pyx; the stream is pinned by NEP 19).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


@functools.lru_cache(maxsize=1024)
def spec_entropy(spec: KernelSpec) -> int:
    """A stable 128-bit integer key of a kernel spec's *values*.

    Built from a canonical field-by-field rendering hashed with BLAKE2b,
    so it is reproducible across processes and Python hash randomization
    (unlike ``hash(spec)``), and any changed characteristic — including a
    phase-evolved copy of the same kernel — keys a different noise stream.
    Memoized per spec: an evaluation keys thousands of streams from a few
    dozen specs.
    """
    payload = "|".join(
        f"{field.name}={getattr(spec, field.name)!r}"
        for field in dataclasses.fields(spec)
    )
    digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=16).digest()
    return int.from_bytes(digest, "little")


@functools.lru_cache(maxsize=4096)
def _words(value: int) -> Tuple[int, ...]:
    """``value`` as little-endian uint32 words, as ``SeedSequence`` splits
    an entropy integer (zero is one word)."""
    if value < 0:
        raise ValueError(f"noise key values must be non-negative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return tuple(words)


def _hash_constants(init: int, mult: int
                    ) -> Iterator[Tuple[np.uint32, np.uint32]]:
    """SeedSequence's running hash constant, as the ``(xor, multiply)``
    pair each successive hashmix call uses."""
    value = init
    while True:
        following = (value * mult) & _MASK32
        yield np.uint32(value), np.uint32(following)
        value = following


def _hashmix(value: np.ndarray,
             constants: Iterator[Tuple[np.uint32, np.uint32]]) -> np.ndarray:
    xor, multiply = next(constants)
    value = (value ^ xor) * multiply
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def philox_keys(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """The Philox keys of many ``SeedSequence`` entropy rows at once.

    Row ``i`` of the ``(len(rows), 2)`` uint64 result is bitwise equal to
    ``np.random.SeedSequence(list(rows[i])).generate_state(2, np.uint64)``
    — the key ``np.random.Philox(SeedSequence(row))`` runs under. The
    hash is evaluated column-wise over uint32 arrays; rows of different
    word lengths share a pass, rows that ran out of words masked out of
    the tail mixing.

    Raises:
        ValueError: if any entropy value is negative.
    """
    words = [sum(map(_words, row), ()) for row in rows]
    if not words:
        return np.empty((0, 2), dtype=np.uint64)
    width = max(_POOL_SIZE, max(map(len, words)))
    lengths = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
    columns = np.ascontiguousarray(np.array(
        [w + (0,) * (width - len(w)) for w in words], dtype=np.uint32
    ).T)

    constants = _hash_constants(_INIT_A, _MULT_A)
    # Short rows pad with zero words, exactly as the pool fill hashes 0.
    pool = [_hashmix(columns[i], constants) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst],
                                   _hashmix(pool[i_src], constants))
    for i_src in range(_POOL_SIZE, width):
        live = lengths > i_src
        for i_dst in range(_POOL_SIZE):
            mixed = _mix(pool[i_dst], _hashmix(columns[i_src], constants))
            pool[i_dst] = np.where(live, mixed, pool[i_dst])

    constants = _hash_constants(_INIT_B, _MULT_B)
    state = [_hashmix(pool[i], constants).astype(np.uint64)
             for i in range(_POOL_SIZE)]
    keys = np.empty((len(words), 2), dtype=np.uint64)
    keys[:, 0] = state[0] | (state[1] << np.uint64(32))
    keys[:, 1] = state[2] | (state[3] << np.uint64(32))
    return keys


# One Philox generator re-keyed per stream, built on first use so that
# importing this module never loads ``numpy.random``.
_draw_lock = threading.Lock()
_draw_pair: Optional[Tuple[object, object]] = None


def _standard_normals(keys: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out[i]`` with standard normals of the Philox stream keyed
    ``keys[i]`` at counter 0 — the draws a fresh
    ``Generator(Philox(key=keys[i]))`` makes.

    The state mapping is built once; each row swaps in its key and
    assigns the whole mapping, which resets the counter, the output
    buffer and the buffered 32-bit half along with the key.
    """
    global _draw_pair
    zeros = (0, 0, 0, 0)
    stream = {"counter": zeros, "key": None}
    state = {"bit_generator": "Philox", "state": stream, "buffer": zeros,
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    with _draw_lock:
        if _draw_pair is None:
            bit_generator = np.random.Philox(0)
            _draw_pair = (bit_generator, np.random.Generator(bit_generator))
        bit_generator, generator = _draw_pair
        for key, row in zip(keys.tolist(), out):
            stream["key"] = key
            bit_generator.state = state
            generator.standard_normal(out=row)


def derive_normals(grid_size: int, seeds: Sequence[int],
                   keys: Sequence[Tuple[KernelSpec, int]]) -> np.ndarray:
    """Raw standard normals of every ``(spec, iteration)`` key at every seed.

    Stream ``(seed, spec, iteration)`` is the standard normal draw vector
    of ``Philox(SeedSequence([seed, iteration, spec_entropy(spec)]))``,
    one draw per grid position.

    Returns:
        A ``(len(keys), len(seeds), grid_size)`` float64 array; feed it
        (or any gather of it) to :func:`to_multipliers`.

    Raises:
        ValueError: if a seed or iteration is negative.
    """
    keyed = [(iteration, spec_entropy(spec)) for spec, iteration in keys]
    rows = [(seed, iteration, entropy)
            for iteration, entropy in keyed for seed in seeds]
    block = np.empty((len(keys), len(seeds), grid_size))
    _standard_normals(philox_keys(rows), block.reshape(len(rows), grid_size))
    return block


def to_multipliers(normals: np.ndarray, std_fraction: float) -> np.ndarray:
    """Turn standard normals into noise multipliers, in place.

    Each element becomes ``max(NOISE_FLOOR, 1 + std_fraction * z)``.
    ``Generator.normal(0, std)`` returns ``0.0 + std * z``; dropping the
    0.0 leaves every ``1.0 + draw`` bitwise unchanged. The transform is
    elementwise, so gathering normals first and transforming the gather
    gives the same values as gathering multipliers.

    Returns:
        The mask of elements that hit the floor.
    """
    normals *= std_fraction
    normals += 1.0
    clipped = normals < NOISE_FLOOR
    np.maximum(normals, NOISE_FLOOR, out=normals)
    return clipped


def derive_block(std_fraction: float, grid_size: int, seeds: Sequence[int],
                 keys: Sequence[Tuple[KernelSpec, int]]
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Multipliers of every ``(spec, iteration)`` key at every seed.

    :func:`derive_normals` scaled by :func:`to_multipliers`: stream
    ``(seed, spec, iteration)`` with standard deviation ``std_fraction``.

    Returns:
        ``(multipliers, clipped)``, each of shape
        ``(len(keys), len(seeds), grid_size)``: ``max(NOISE_FLOOR, 1 +
        draw)`` and the mask of draws that hit the floor.

    Raises:
        ValueError: if a seed or iteration is negative.
    """
    block = derive_normals(grid_size, seeds, keys)
    clipped = to_multipliers(block, std_fraction)
    return block, clipped


class LaunchKeyedNoise:
    """Order-independent execution-time noise over a configuration grid.

    Args:
        std_fraction: noise standard deviation as a fraction of the
            launch time (must be positive — a noise-free platform simply
            has no noise model).
        seed: the platform seed, the outermost key component.
        grid_size: number of configurations on the platform grid; each
            ``(seed, spec, iteration)`` stream yields one draw per grid
            position.
    """

    #: Per-``(spec, iteration)`` multiplier vectors kept (LRU). A pure
    #: cache — every entry is recomputable from its key — that serves the
    #: batched session engine's per-step fetches of one stream.
    MEMO_SIZE = 256

    def __init__(self, std_fraction: float, seed: int, grid_size: int):
        if std_fraction <= 0:
            raise ValueError("std_fraction must be positive")
        if grid_size <= 0:
            raise ValueError("grid_size must be positive")
        self._std = std_fraction
        self._seed = seed
        self._grid_size = grid_size
        self._memo: "OrderedDict[Tuple[KernelSpec, int], Tuple[np.ndarray, np.ndarray]]" = OrderedDict()
        self._lock = threading.Lock()

    @property
    def std_fraction(self) -> float:
        """The noise standard deviation (fraction of launch time)."""
        return self._std

    @property
    def seed(self) -> int:
        """The platform seed keying every stream."""
        return self._seed

    @property
    def grid_size(self) -> int:
        """Draws generated per ``(seed, spec, iteration)`` stream."""
        return self._grid_size

    def _derive(self, spec: KernelSpec, iteration: int) -> Tuple[np.ndarray, np.ndarray]:
        multipliers, clipped = derive_block(
            self._std, self._grid_size, (self._seed,), ((spec, iteration),)
        )
        multipliers, clipped = multipliers[0, 0], clipped[0, 0]
        multipliers.setflags(write=False)
        clipped.setflags(write=False)
        return multipliers, clipped

    def multipliers_for(self, spec: KernelSpec,
                        iteration: int) -> Tuple[np.ndarray, np.ndarray]:
        """All grid positions' multipliers for one ``(spec, iteration)``.

        Returns:
            ``(multipliers, clipped)`` — two read-only arrays of length
            ``grid_size``; ``clipped[i]`` marks draws that hit the
            :data:`NOISE_FLOOR` clamp.

        Raises:
            ValueError: if ``iteration`` is negative (the key must be a
                valid ``SeedSequence`` entropy word).
        """
        if iteration < 0:
            raise ValueError(f"iteration must be non-negative, got {iteration}")
        key = (spec, iteration)
        # Lock-free fast path: ``dict.get`` is atomic under the GIL and
        # entries are immutable once published. Served entries skip the
        # LRU recency update — eviction order becomes approximate, which
        # only matters once the memo overflows (every entry is pure and
        # recomputable), and the hit is a per-launch hot path.
        entry = self._memo.get(key)
        if entry is not None:
            return entry
        with self._lock:
            entry = self._memo.get(key)
            if entry is not None:
                return entry
            entry = self._derive(spec, iteration)
            self._memo[key] = entry
            while len(self._memo) > self.MEMO_SIZE:
                self._memo.popitem(last=False)
            return entry

    def multiplier_at(self, spec: KernelSpec, iteration: int,
                      grid_index: int) -> Tuple[float, bool]:
        """One launch's ``(multiplier, clipped)`` — the scalar view.

        The value is literally an element of :meth:`multipliers_for`'s
        vector, so scalar and batched noise agree bitwise.
        """
        multipliers, clipped = self.multipliers_for(spec, iteration)
        return float(multipliers[grid_index]), bool(clipped[grid_index])
