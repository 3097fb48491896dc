"""Microarchitectural description of a kernel launch.

A :class:`KernelSpec` captures everything the performance and power models
need to know about one kernel invocation. The fields map one-to-one onto
the characteristics the paper uses to explain sensitivity (Section 3.5):

* instruction mix (``valu_insts_per_item``, ``vfetch``/``vwrite``) — kernel
  complexity; a kernel with 8 ALU instructions is overhead-dominated no
  matter how divergent it is (Figure 8),
* register/LDS usage — kernel occupancy and latency hiding (Figure 7),
* ``branch_divergence`` — thread serialization; VALUUtilization = 1 - d,
* ``l2_hit_rate`` + ``l2_thrash_sensitivity`` — cache behaviour, including
  the inter-CU interference that makes B+Tree *faster* with fewer CUs
  (Section 7.1),
* ``outstanding_per_wave`` / ``access_efficiency`` — memory-level
  parallelism and access-pattern friendliness.

Specs are immutable; phase behaviour is expressed by deriving a new spec
per iteration (see :mod:`repro.workloads.kernel`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import KernelSpecError


@dataclass(frozen=True)
class KernelSpec:
    """Static + dynamic characteristics of one kernel launch."""

    #: kernel name, e.g. ``"Sort.BottomScan"``
    name: str
    #: total workitems launched
    total_workitems: int
    #: workitems per workgroup
    workgroup_size: int
    #: dynamic vector-ALU instructions per workitem (convergent path)
    valu_insts_per_item: float
    #: dynamic vector-fetch (read) instructions per workitem
    vfetch_insts_per_item: float
    #: dynamic vector-write instructions per workitem
    vwrite_insts_per_item: float
    #: bytes moved per fetch instruction per workitem (after coalescing)
    bytes_per_fetch: float = 4.0
    #: bytes moved per write instruction per workitem (after coalescing)
    bytes_per_write: float = 4.0
    #: vector registers per workitem
    vgprs_per_workitem: int = 32
    #: scalar registers per wavefront
    sgprs_per_wave: int = 24
    #: LDS bytes per workgroup
    lds_bytes_per_workgroup: int = 0
    #: fraction of lane-cycles lost to branch divergence, in [0, 1)
    branch_divergence: float = 0.0
    #: L2 hit rate at the full 32-CU configuration, in [0, 1]
    l2_hit_rate: float = 0.3
    #: how much the L2 hit rate recovers when CUs are power-gated
    #: (hit-rate gain at the minimum CU count), in [0, 1]
    l2_thrash_sensitivity: float = 0.0
    #: average DRAM requests kept in flight per resident wavefront
    outstanding_per_wave: float = 2.5
    #: memory-controller scheduling efficiency for this access pattern
    access_efficiency: float = 0.80
    #: fixed launch/driver overhead per invocation (s)
    launch_overhead: float = 20.0e-6
    #: fraction of the shorter of compute/memory time NOT overlapped
    overlap_inefficiency: float = 0.04

    def __post_init__(self) -> None:
        if self.total_workitems <= 0:
            raise KernelSpecError(f"{self.name}: total_workitems must be positive")
        if self.workgroup_size <= 0:
            raise KernelSpecError(f"{self.name}: workgroup_size must be positive")
        if self.valu_insts_per_item < 0:
            raise KernelSpecError(f"{self.name}: negative valu_insts_per_item")
        if self.vfetch_insts_per_item < 0 or self.vwrite_insts_per_item < 0:
            raise KernelSpecError(f"{self.name}: negative memory instruction count")
        if self.valu_insts_per_item + self.vfetch_insts_per_item + self.vwrite_insts_per_item <= 0:
            raise KernelSpecError(f"{self.name}: kernel executes no instructions")
        if self.bytes_per_fetch < 0 or self.bytes_per_write < 0:
            raise KernelSpecError(f"{self.name}: negative bytes per access")
        if not 0 <= self.branch_divergence < 1:
            raise KernelSpecError(f"{self.name}: branch_divergence must be in [0, 1)")
        if not 0 <= self.l2_hit_rate <= 1:
            raise KernelSpecError(f"{self.name}: l2_hit_rate must be in [0, 1]")
        if not 0 <= self.l2_thrash_sensitivity <= 1:
            raise KernelSpecError(f"{self.name}: l2_thrash_sensitivity must be in [0, 1]")
        if self.outstanding_per_wave <= 0:
            raise KernelSpecError(f"{self.name}: outstanding_per_wave must be positive")
        if not 0 < self.access_efficiency <= 1:
            raise KernelSpecError(f"{self.name}: access_efficiency must be in (0, 1]")
        if self.launch_overhead < 0:
            raise KernelSpecError(f"{self.name}: negative launch_overhead")
        if not 0 <= self.overlap_inefficiency <= 1:
            raise KernelSpecError(f"{self.name}: overlap_inefficiency must be in [0, 1]")

    def __hash__(self) -> int:
        # Specs key every hot memo (sweep cache, launch surfaces, noise
        # draw streams), and the generated dataclass hash re-hashes all
        # twenty fields per lookup. Specs are frozen, so the value is
        # computed once and cached on the instance. Same tuple as the
        # generated implementation, so hash values (and therefore dict
        # iteration orders) are unchanged.
        cached = self.__dict__.get("_cached_hash")
        if cached is None:
            cached = hash(tuple(self.__dict__[f.name]
                                for f in dataclasses.fields(self)))
            object.__setattr__(self, "_cached_hash", cached)
        return cached

    def __getstate__(self):
        # String hashes are salted per process: never ship the cached
        # hash across a pickle boundary (into another process), or the copy
        # would misbehave as a dict key in the receiving process.
        state = dict(self.__dict__)
        state.pop("_cached_hash", None)
        return state

    # --- derived quantities ---------------------------------------------------

    @property
    def lane_utilization(self) -> float:
        """Fraction of vector lanes doing useful work (1 - divergence)."""
        return 1.0 - self.branch_divergence

    @property
    def mem_insts_per_item(self) -> float:
        """Total vector memory instructions per workitem."""
        return self.vfetch_insts_per_item + self.vwrite_insts_per_item

    @property
    def footprint_bytes_per_item(self) -> float:
        """Bytes requested from the cache hierarchy per workitem."""
        return (
            self.vfetch_insts_per_item * self.bytes_per_fetch
            + self.vwrite_insts_per_item * self.bytes_per_write
        )

    def demanded_ops_per_byte(self) -> float:
        """The application's ops/byte demand (Section 1).

        Compute operations per byte of *DRAM* transfer at the nominal
        (32-CU) hit rate. Infinite demand (no DRAM traffic) is reported as
        a large finite number to keep downstream arithmetic total.
        """
        dram_bytes = self.footprint_bytes_per_item * (1.0 - self.l2_hit_rate)
        if dram_bytes <= 0:
            return 1.0e6
        return self.valu_insts_per_item / dram_bytes

    def effective_l2_hit_rate(self, n_cu: int, max_cu: int) -> float:
        """L2 hit rate at ``n_cu`` active CUs.

        Fewer active CUs means less inter-CU interference in the shared L2
        (Section 7.1: lowering the CU count via power gating *improved*
        performance for BPT/CFD/XSBench by reducing cache thrashing).
        The recovery is linear in the gated fraction, scaled by
        ``l2_thrash_sensitivity``, and capped at 0.98.
        """
        if n_cu <= 0 or n_cu > max_cu:
            raise KernelSpecError(f"{self.name}: n_cu {n_cu} outside (0, {max_cu}]")
        gated_fraction = 1.0 - n_cu / max_cu
        hit = self.l2_hit_rate + self.l2_thrash_sensitivity * gated_fraction
        return min(0.98, hit)

    def evolve(self, **changes) -> "KernelSpec":
        """Return a copy of this spec with the given fields replaced.

        Used by phase schedules to express iteration-to-iteration changes
        (e.g. Graph500's breadth-first search levels, Figure 14).
        """
        return dataclasses.replace(self, **changes)
