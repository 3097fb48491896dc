"""Analysis: design-space sweeps, balance points, evaluation, reporting.

* :mod:`repro.analysis.sweep` — the 450-configuration exhaustive
  exploration behind Figures 3-6,
* :mod:`repro.analysis.balance` — hardware balance-point detection,
* :mod:`repro.analysis.evaluation` — the Figures 10-13 policy-comparison
  harness (per-application improvements + the two geometric means),
* :mod:`repro.analysis.report` — ASCII table / CSV emitters used by the
  benchmarks.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "sweep": ("ConfigSweep", "SweepPoint"),
    "balance": ("find_balance_point", "knee_of_curve"),
    "evaluation": (
        "ApplicationComparison", "EvaluationHarness", "EvaluationSummary",
    ),
    "pareto": ("ParetoFrontier", "distance_to_frontier", "pareto_frontier"),
    "report": ("format_table", "to_csv"),
    "roofline": (
        "Regime", "RooflinePoint", "balanced_configurations",
        "classify_kernel", "ridge_point", "roofline",
    ),
})
