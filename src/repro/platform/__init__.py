"""The simulated HD7970 test bed.

:mod:`repro.platform.calibration` holds every tunable constant of the
substrate in one place, with the paper figure each constant is calibrated
against. :mod:`repro.platform.hd7970` exposes the facade the rest of the
library (controllers, sweeps, benchmarks) talks to:
``HardwarePlatform.run_kernel(spec, config) -> KernelRunResult``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "calibration": (
        "PlatformCalibration", "default_calibration", "pitcairn_calibration",
    ),
    "hd7970": (
        "HardwarePlatform", "make_hd7970_platform", "make_pitcairn_platform",
    ),
})
