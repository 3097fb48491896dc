#!/usr/bin/env python
"""Lint the static experiment registry against the experiments package.

The registry (``repro.experiments.registry``) replaced the old
``importlib`` string list; this check keeps it honest. Fails (exit 1)
when:

* an experiment module under ``src/repro/experiments/`` is not claimed
  by any registered :class:`ExperimentSpec` (helpers like ``context``
  and ``registry`` itself are exempt);
* a spec names a module that does not exist in the package;
* a dependency edge points at an unregistered node;
* the dependency graph has a cycle (also enforced at runtime, but the
  lint catches it before anything runs);
* a report node name collides with another node's report file stem;
* the registry's static policy matrix (``EVALUATION_POLICIES``) differs
  from ``fig10_13_evaluation.POLICIES``, or its static study names
  (``ABLATION_STUDIES``) differ from the names in
  ``ablations.ALL_STUDIES``;
* importing ``repro.experiments.registry`` loads either of those two
  modules (a warm ``reproduce`` must not import experiment code).

Run from the repository root:  python tools/check_experiment_registry.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.errors import AnalysisError  # noqa: E402
from repro.experiments import registry  # noqa: E402
from repro.runtime.pipeline import topological_order  # noqa: E402

EXPERIMENTS_DIR = REPO_ROOT / "src" / "repro" / "experiments"

#: Modules in the package that are infrastructure, not experiments.
HELPER_MODULES = {"__init__", "context", "registry"}

#: Experiment modules whose data the registry mirrors statically; the
#: registry must not import them.
MIRRORED_MODULES = ("repro.experiments.fig10_13_evaluation",
                    "repro.experiments.ablations")


def registry_imports() -> list:
    """The mirrored modules a fresh ``import`` of the registry loads."""
    probe = ("import sys, repro.experiments.registry; "
             f"print(' '.join(m for m in {MIRRORED_MODULES!r} "
             "if m in sys.modules))")
    completed = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    return completed.stdout.split()


def check_static_data() -> list:
    """The static tuples' drift from their sources, and eager imports."""
    from repro.experiments import ablations, fig10_13_evaluation

    errors = []
    if registry.EVALUATION_POLICIES != fig10_13_evaluation.POLICIES:
        errors.append(
            f"registry.EVALUATION_POLICIES {registry.EVALUATION_POLICIES} "
            f"!= fig10_13_evaluation.POLICIES {fig10_13_evaluation.POLICIES}"
        )
    studies = tuple(name for name, _study in ablations.ALL_STUDIES)
    if registry.ABLATION_STUDIES != studies:
        errors.append(
            f"registry.ABLATION_STUDIES {registry.ABLATION_STUDIES} != "
            f"ablations.ALL_STUDIES names {studies}"
        )
    for module in registry_imports():
        errors.append(
            f"importing repro.experiments.registry loads {module}; resolve "
            "it through _mod() on first use instead"
        )
    return errors


def check() -> list:
    errors = []
    specs = registry.all_specs()

    package_modules = {
        path.stem for path in EXPERIMENTS_DIR.glob("*.py")
        if path.stem not in HELPER_MODULES
    }
    # "context" hosts the internal training node; it is a helper module
    # but a legitimate spec target.
    claimed = {spec.module for spec in specs}

    for module in sorted(package_modules - claimed):
        errors.append(
            f"experiments module {module!r} has no registered "
            "ExperimentSpec; register it (or add it to HELPER_MODULES "
            "if it is infrastructure)"
        )
    for module in sorted(claimed - package_modules - HELPER_MODULES):
        errors.append(
            f"registered module {module!r} does not exist under "
            "src/repro/experiments/"
        )

    names = {spec.name for spec in specs}
    for spec in specs:
        for dep in spec.deps:
            if dep not in names:
                errors.append(
                    f"node {spec.name!r} depends on unregistered node "
                    f"{dep!r}"
                )

    try:
        topological_order(specs)
    except AnalysisError as error:
        errors.append(f"dependency graph is not schedulable: {error}")

    return errors + check_static_data()


def main() -> int:
    errors = check()
    if errors:
        for error in errors:
            print(f"check_experiment_registry: {error}", file=sys.stderr)
        return 1
    specs = registry.all_specs()
    reports = sum(1 for spec in specs if spec.is_report)
    print(
        f"check_experiment_registry: OK ({len(specs)} nodes, "
        f"{reports} report nodes, every experiments module registered)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
