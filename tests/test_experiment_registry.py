"""The static experiment registry: coverage, grouping, and the lint."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import AnalysisError
from repro.experiments import registry
from repro.experiments.context import ExperimentContext, default_context
from repro.experiments.registry import ExperimentSpec
from repro.platform import hd7970
from repro.platform.hd7970 import make_hd7970_platform
from repro.platform.store import content_digest
from repro.workloads.registry import all_kernels

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The 26 report files one plain ``reproduce`` run has always emitted,
#: in historical emission order.
CORE_REPORTS = (
    "fig04_compute_power",
    "fig05_memory_power",
    "fig10_ed2",
    "fig11_energy",
    "fig12_power",
    "fig13_performance",
    "fig01_power_breakdown",
    "table1_dvfs",
    "fig03_balance_points",
    "fig06_metric_tradeoffs",
    "fig07_occupancy",
    "fig08_divergence",
    "fig09_clock_domains",
    "table2_table3_models",
    "fig14_16_graph500",
    "fig17_power_sharing",
    "fig18_cg_vs_fg",
    "sec72_variants",
    "ext_memory_voltage",
    "ext_thermal_capping",
    "ext_model_validation",
    "ext_phase_memory",
    "ext_power_capping",
    "ext_portability",
    "oracle_gap",
    "characterization",
)


class TestRegistryContents:
    def test_core_report_set_is_stable(self):
        specs = registry.reproduce_specs()
        reports = tuple(s.name for s in specs if s.is_report)
        assert reports == CORE_REPORTS

    def test_internal_nodes_are_training_and_evaluation(self):
        specs = registry.reproduce_specs()
        internal = {s.name for s in specs if not s.is_report}
        assert internal == {"training", "evaluation"}

    def test_ablations_add_six_report_nodes(self):
        base = registry.reproduce_specs()
        full = registry.reproduce_specs(include_ablations=True)
        extra = {s.name for s in full} - {s.name for s in base}
        assert len(extra) == 6
        assert all(name.startswith("ablation_") for name in extra)
        assert all(registry.get_spec(name).is_report for name in extra)

    def test_figures_10_13_share_the_evaluation_node(self):
        for name in ("fig10_ed2", "fig11_energy", "fig12_power",
                     "fig13_performance"):
            assert registry.get_spec(name).deps == ("evaluation",)
        assert registry.get_spec("evaluation").deps == ("training",)

    def test_duplicate_registration_raises(self):
        existing = registry.all_specs()[0]
        with pytest.raises(AnalysisError, match="registered twice"):
            registry.register(existing)

    def test_get_spec_unknown_name(self):
        with pytest.raises(AnalysisError, match="no experiment"):
            registry.get_spec("fig99_imaginary")

    def test_internal_spec_requires_no_formatter(self):
        with pytest.raises(AnalysisError, match="formatter"):
            ExperimentSpec(name="x", module="toy",
                           runner=lambda c, d: None, formatter=None,
                           group="core")
        with pytest.raises(AnalysisError, match="formatter"):
            ExperimentSpec(name="x", module="toy",
                           runner=lambda c, d: None, formatter=str,
                           group="internal")


def platform_keyed_fingerprint(context):
    """The fingerprint taken through the context's built platform."""
    platform = context.platform
    surfaces = tuple(
        platform.sweep_cache_key(kernel.base) for kernel in all_kernels())
    roster = tuple(
        (app.name, app.suite, app.iterations, app.kernel_names())
        for app in context.applications
    )
    return content_digest((surfaces, roster))


def voltage_scaled_context():
    return ExperimentContext(
        platform=make_hd7970_platform(memory_voltage_scaling=True))


class TestFingerprint:
    def test_deterministic_across_contexts(self):
        a = registry.reproduce_fingerprint(default_context())
        b = registry.reproduce_fingerprint(default_context())
        assert a == b
        assert len(a) == 64  # sha256 hex

    @pytest.mark.parametrize("make_context",
                             [ExperimentContext, voltage_scaled_context],
                             ids=["default", "explicit-platform"])
    def test_equals_platform_keyed_digest_without_building_it(
            self, monkeypatch, make_context):
        context = make_context()

        def refuse(*_args, **_kwargs):
            raise AssertionError("the fingerprint built a platform")

        with monkeypatch.context() as patch:
            patch.setattr(hd7970, "make_hd7970_platform", refuse)
            patch.setattr(hd7970.HardwarePlatform, "__init__", refuse)
            fingerprint = registry.reproduce_fingerprint(context)
        assert fingerprint == platform_keyed_fingerprint(context)

    def test_explicit_platform_changes_the_fingerprint(self):
        default = registry.reproduce_fingerprint(ExperimentContext())
        scaled = registry.reproduce_fingerprint(voltage_scaled_context())
        assert scaled != default


class TestRegistryLint:
    def run_lint(self):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" /
                                 "check_experiment_registry.py")],
            capture_output=True, text=True,
        )

    def test_lint_passes_on_the_repo(self):
        proc = self.run_lint()
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    def test_lint_reports_unregistered_module(self, tmp_path, monkeypatch):
        # Point the lint at a package copy with one extra orphan module.
        import shutil
        root = tmp_path / "repo"
        (root / "tools").mkdir(parents=True)
        shutil.copytree(REPO_ROOT / "src", root / "src")
        shutil.copy(REPO_ROOT / "tools" / "check_experiment_registry.py",
                    root / "tools")
        orphan = root / "src" / "repro" / "experiments" / "fig99_orphan.py"
        orphan.write_text("def run(context):\n    return None\n")
        proc = subprocess.run(
            [sys.executable, str(root / "tools" /
                                 "check_experiment_registry.py")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "fig99_orphan" in proc.stderr

    @staticmethod
    def lint_copy(tmp_path, old, new):
        """Run the lint on a source copy whose registry has ``old``
        replaced by ``new``."""
        import shutil
        root = tmp_path / "repo"
        (root / "tools").mkdir(parents=True)
        shutil.copytree(REPO_ROOT / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(REPO_ROOT / "tools" / "check_experiment_registry.py",
                    root / "tools")
        path = root / "src" / "repro" / "experiments" / "registry.py"
        source = path.read_text()
        assert source.count(old) == 1
        path.write_text(source.replace(old, new))
        return subprocess.run(
            [sys.executable, str(root / "tools" /
                                 "check_experiment_registry.py")],
            capture_output=True, text=True,
        )

    def test_lint_reports_policy_matrix_drift(self, tmp_path):
        proc = self.lint_copy(tmp_path, '"harmonia", "oracle")',
                              '"harmonia")')
        assert proc.returncode == 1
        assert "EVALUATION_POLICIES" in proc.stderr

    def test_lint_reports_ablation_study_drift(self, tmp_path):
        proc = self.lint_copy(tmp_path, '"bin_edges", ', '')
        assert proc.returncode == 1
        assert "ABLATION_STUDIES" in proc.stderr

    def test_lint_reports_context_read_without_dep(self):
        """A synthetic spec whose module reads the evaluation off the
        context but declares no dependency fails the lint; depending on
        the evaluation covers the training it chains on."""
        import importlib.util
        location = REPO_ROOT / "tools" / "check_experiment_registry.py"
        loader = importlib.util.spec_from_file_location(
            "check_experiment_registry", location)
        lint = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(lint)

        def probe(deps):
            return ExperimentSpec(
                name="fig99_probe", module="fig99_probe",
                runner=lambda context, _deps: None, formatter=str,
                deps=deps)

        def source(module):
            if module != "fig99_probe":
                return ""
            return ("summary = context.evaluation\n"
                    "policy = context.harmonia_policy()\n")

        errors = lint.check_context_reads([probe(())], read_source=source)
        assert len(errors) == 2
        assert all("'fig99_probe'" in error for error in errors)
        assert "context.evaluation" in errors[0]
        assert "context.harmonia_policy" in errors[1]
        covered = [probe(("evaluation",))] + [
            spec for spec in registry.all_specs()
            if spec.name in ("evaluation", "training")]
        assert lint.check_context_reads(covered, read_source=source) == []

    def test_lint_reports_dropped_evaluation_dep(self, tmp_path):
        proc = self.lint_copy(tmp_path, 'deps=("evaluation",), version=2))',
                              'version=2))')
        assert proc.returncode == 1
        assert "'ext_memory_voltage'" in proc.stderr
        assert "context.evaluation" in proc.stderr

    @pytest.mark.parametrize("module", ["ablations", "fig10_13_evaluation"])
    def test_lint_reports_eager_experiment_import(self, tmp_path, module):
        proc = self.lint_copy(
            tmp_path, "from repro.errors import AnalysisError\n",
            "from repro.errors import AnalysisError\n"
            f"from repro.experiments import {module}  # noqa: F401\n")
        assert proc.returncode == 1
        assert f"loads repro.experiments.{module}" in proc.stderr
