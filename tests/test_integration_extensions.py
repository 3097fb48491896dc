"""Integration tests for the extension experiments."""

import pytest

from repro.experiments import (
    ext_memory_voltage,
    ext_model_validation,
    ext_phase_memory,
    ext_thermal_capping,
)


class TestMemoryVoltageScaling:
    @pytest.fixture(scope="class")
    def result(self, context):
        return ext_memory_voltage.run(context)

    def test_scaling_unlocks_savings(self, result):
        assert result.ed2_gain_from_scaling > 0.0
        assert result.power_gain_from_scaling > 0.0

    def test_gains_concentrate_on_bus_slowing_apps(self, result):
        by_app = {r.application: r for r in result.rows}
        for app in ("Sort", "MaxFlops", "LUD"):
            assert by_app[app].power_scaled > by_app[app].power_fixed

    def test_report_renders(self, result):
        report = ext_memory_voltage.format_report(result)
        assert "voltage" in report.lower()


class TestThermalCapping:
    @pytest.fixture(scope="class")
    def result(self, context):
        return ext_thermal_capping.run(context)

    def test_harmonia_wins_under_the_envelope(self, result):
        assert result.mean_speedup() > 0.01

    def test_harmonia_runs_cooler(self, result):
        for row in result.rows:
            assert row.harmonia_peak_temp <= row.baseline_peak_temp + 0.5

    def test_sustainable_power_between_draws(self, result):
        # The scenario is only meaningful if the envelope actually binds.
        assert 100.0 < result.sustainable_power < 200.0


class TestModelValidation:
    @pytest.fixture(scope="class")
    def result(self, context):
        return ext_model_validation.run(context)

    def test_models_agree(self, result):
        assert result.overall_mean_deviation() < 0.10
        assert result.min_correlation() > 0.75

    def test_agreement_matches_the_report(self, result):
        # The OVERALL row as printed (EXPERIMENTS.md quotes both numbers).
        assert f"{result.overall_mean_deviation():.1%}" == "3.1%"
        assert f"{result.worst_mean_deviation():.1%}" == "11.0%"

    def test_all_kernels_validated(self, result):
        assert len(result.rows) == 25

    def test_stress_benchmarks_agree_tightly(self, result):
        by_kernel = {r.kernel: r for r in result.rows}
        assert by_kernel["MaxFlops.MaxFlops"].mean_abs_deviation < 0.02

    def test_report_renders(self, result):
        report = ext_model_validation.format_report(result)
        assert "OVERALL" in report


class TestPhaseMemoryRecall:
    @pytest.fixture(scope="class")
    def result(self, context):
        return ext_phase_memory.run(context)

    def test_recall_fires(self, result):
        assert result.recalls >= 2
        assert result.distinct_phases >= 2

    def test_recall_never_harms(self, result):
        # Neutral-or-better: the validation guard bounds any downside.
        assert result.ed2_with > result.ed2_without - 0.02
        assert result.perf_with > result.perf_without - 0.01

    def test_report_renders(self, result):
        report = ext_phase_memory.format_report(result)
        assert "recall" in report.lower()
