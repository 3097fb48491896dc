"""Harmonia: balancing compute and memory power in high-performance GPUs.

A full reproduction of Paul, Huang, Arora and Yalamanchili's ISCA 2015
paper, built around a calibrated analytical model of the paper's test bed
(an AMD Radeon HD7970 with GDDR5 memory) since the evaluation requires
hardware measurement.

Quick start::

    from repro import (
        make_hd7970_platform, all_applications, train_predictors,
        HarmoniaPolicy, BaselinePolicy, ApplicationRunner,
    )

    platform = make_hd7970_platform()
    apps = all_applications()
    training = train_predictors(platform, apps)
    harmonia = HarmoniaPolicy(platform.config_space,
                              training.compute, training.bandwidth)
    runner = ApplicationRunner(platform)
    result = runner.run(apps[0], harmonia)
    print(result.metrics.ed2, result.metrics.avg_power)

Layer map (bottom-up):

* ``repro.gpu`` / ``repro.memory`` -- the HD7970 machine description and
  GDDR5 subsystem,
* ``repro.perf`` / ``repro.power`` -- analytical performance and power
  models,
* ``repro.platform`` -- the test-bed facade (``run_kernel``),
* ``repro.workloads`` -- the paper's 14 applications / 25 kernels,
* ``repro.sensitivity`` -- Section 4's measurement/training/prediction,
* ``repro.core`` -- Harmonia, the PowerTune baseline, the oracle, variants,
* ``repro.runtime`` / ``repro.analysis`` -- execution, metrics, sweeps,
* ``repro.telemetry`` -- decision events, metrics registry, profiling,
* ``repro.experiments`` -- one module per paper table/figure.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "analysis.evaluation": ("EvaluationHarness",),
    "core.baseline": ("BaselinePolicy",),
    "core.harmonia": ("ControllerStats", "HarmoniaPolicy"),
    "core.oracle": ("OraclePolicy",),
    "core.variants": ("ComputeDvfsOnlyPolicy", "make_cg_only_policy"),
    "gpu.architecture": ("HD7970", "GpuArchitecture"),
    "gpu.config": ("ConfigSpace", "HardwareConfig"),
    "perf.kernelspec": ("KernelSpec",),
    "platform.calibration": ("PlatformCalibration", "default_calibration"),
    "platform.hd7970": ("HardwarePlatform", "make_hd7970_platform"),
    "runtime.metrics": ("RunMetrics", "ed", "ed2", "geomean"),
    "runtime.simulator": ("ApplicationRunner", "RunResult"),
    "sensitivity.predictor": (
        "PAPER_BANDWIDTH_PREDICTOR", "PAPER_COMPUTE_PREDICTOR",
        "SensitivityPredictor", "train_predictors",
    ),
    "telemetry": (
        "NULL_TELEMETRY", "JsonlSink", "MetricsRegistry", "Profiler",
        "Telemetry", "replay_trace",
    ),
    "workloads.application": ("Application",),
    "workloads.registry": (
        "all_applications", "application_names", "get_application",
        "get_kernel",
    ),
})

__version__ = "1.0.0"
__all__.append("__version__")
