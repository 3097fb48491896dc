"""Off-chip GDDR5 memory subsystem model.

* :mod:`repro.memory.gddr5` — device/channel timing and latency,
* :mod:`repro.memory.controller` — controller efficiency and achievable
  bandwidth under memory-level-parallelism limits,
* :mod:`repro.memory.power` — the Section 2.4 power breakdown (background,
  activate/precharge, read-write, termination, PHY/PLL) and its dependence
  on bus frequency.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "banks": (
        "AccessPattern", "BankTiming", "REFERENCE_PATTERNS",
        "pattern_for_efficiency", "scheduling_efficiency",
    ),
    "gddr5": ("Gddr5Timing", "HD7970_GDDR5_TIMING"),
    "controller": ("BandwidthBreakdown", "MemoryControllerModel"),
    "power": ("MemoryPowerBreakdown", "MemoryPowerModel"),
})
