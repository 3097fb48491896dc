"""Parallel fan-out: ordering, error propagation, result invariance."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.analysis.evaluation import EvaluationHarness
from repro.errors import AnalysisError
from repro.experiments.context import ExperimentContext
from repro.runtime.parallel import (
    WorkerBudget,
    active_budget,
    budget_scope,
    fan_out,
    resolve_jobs,
)
from repro.sensitivity.dataset import build_dataset


def test_fan_out_preserves_item_order():
    items = list(range(40))
    assert fan_out(lambda x: x * x, items, jobs=8) == [x * x for x in items]


def test_fan_out_serial_and_parallel_agree():
    items = ["a", "bb", "ccc"]
    assert fan_out(len, items, jobs=1) == fan_out(len, items, jobs=3)


def test_fan_out_actually_runs_concurrently():
    barrier = threading.Barrier(4, timeout=10)

    def rendezvous(_):
        barrier.wait()  # only passes if 4 workers run at once
        return True

    assert fan_out(rendezvous, range(4), jobs=4) == [True] * 4


def test_fan_out_propagates_errors():
    def explode(x):
        if x == 2:
            raise ValueError("boom")
        return x

    with pytest.raises(ValueError, match="boom"):
        fan_out(explode, range(4), jobs=4)


def test_fan_out_names_the_failing_item():
    class Item:
        def __init__(self, name):
            self.name = name

    def explode(item):
        if item.name == "BPT":
            raise ValueError("boom")
        return item.name

    items = [Item("CoMD"), Item("BPT"), Item("Sort")]
    for jobs in (1, 3):
        with pytest.raises(ValueError) as excinfo:
            fan_out(explode, items, jobs=jobs)
        notes = "\n".join(getattr(excinfo.value, "__notes__", ()))
        assert "item 2/3" in notes
        assert "BPT" in notes


def test_fan_out_explicit_labels_win():
    with pytest.raises(RuntimeError) as excinfo:
        fan_out(lambda x: (_ for _ in ()).throw(RuntimeError("die")),
                [10, 20], jobs=2, labels=["first", "second"])
    notes = "\n".join(getattr(excinfo.value, "__notes__", ()))
    assert "first" in notes


def test_fan_out_rejects_mismatched_labels():
    with pytest.raises(AnalysisError):
        fan_out(lambda x: x, [1, 2, 3], labels=["only-one"])


def test_fan_out_rejects_negative_jobs():
    with pytest.raises(AnalysisError):
        fan_out(lambda x: x, [1], jobs=-1)


def test_jobs_zero_means_auto():
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    assert resolve_jobs(3) == 3
    with pytest.raises(AnalysisError):
        resolve_jobs(-2)
    # jobs=0 is accepted end to end, not just by the resolver.
    assert fan_out(lambda x: x + 1, [1, 2, 3], jobs=0) == [2, 3, 4]
    assert ExperimentContext(jobs=0).jobs == (os.cpu_count() or 1)


def test_worker_budget_borrow_and_release():
    budget = WorkerBudget(3)
    assert budget.available() == 3
    budget.acquire()
    assert budget.borrow(5) == 2  # only 2 left; borrowing never blocks
    assert budget.borrow(1) == 0
    budget.release(2)
    budget.release()
    assert budget.available() == 3
    with pytest.raises(AnalysisError):
        budget.release(1)  # over-release must be loud


def test_budget_scope_bounds_inner_fan_out():
    """Inside a 1-permit scope, a jobs=4 fan-out degrades to serial."""
    live = 0
    peak = 0
    lock = threading.Lock()

    def work(_):
        nonlocal live, peak
        with lock:
            live += 1
            peak = max(peak, live)
        time.sleep(0.01)
        with lock:
            live -= 1
        return True

    budget = WorkerBudget(1)
    budget.acquire()  # the caller's own thread holds the one permit
    with budget_scope(budget):
        assert active_budget() is budget
        assert fan_out(work, range(6), jobs=4) == [True] * 6
    budget.release()
    assert active_budget() is None
    assert peak == 1
    assert budget.available() == 1


def test_budget_scope_lends_spare_permits():
    barrier = threading.Barrier(3, timeout=10)

    def rendezvous(_):
        barrier.wait()  # passes only if 3 workers run at once
        return True

    budget = WorkerBudget(4)
    budget.acquire()
    with budget_scope(budget):
        assert fan_out(rendezvous, range(3), jobs=8) == [True] * 3
    budget.release()
    assert budget.available() == 4


def test_build_dataset_invariant_under_jobs(platform, context):
    """The training set is identical for any thread count."""
    apps = context.applications[:4]
    serial = build_dataset(platform, apps, config_stride=32, jobs=1)
    parallel = build_dataset(platform, apps, config_stride=32, jobs=4)
    assert serial.kernel_names == parallel.kernel_names
    assert serial.compute_targets == parallel.compute_targets
    assert serial.bandwidth_targets == parallel.bandwidth_targets
    assert serial.rows == parallel.rows


def test_parallel_evaluation_matches_serial(context):
    """Applications fanned out over threads == the serial loop."""
    ctx = ExperimentContext(platform=context.platform)
    apps = [context.application("MaxFlops"), context.application("CoMD"),
            context.application("Sort")]
    harness = EvaluationHarness(ctx.platform, ctx.baseline_policy)

    def evaluate(jobs):
        return harness.evaluate(
            apps, [ctx.harmonia_policy, ctx.oracle_policy], jobs=jobs
        )

    serial = evaluate(1)
    parallel = evaluate(4)

    assert len(serial.comparisons) == 2 * len(apps)
    assert serial.comparisons == parallel.comparisons
    for s, p in zip(serial.comparisons, parallel.comparisons):
        assert (s.application, s.policy) == (p.application, p.policy)
        assert s.candidate.time == p.candidate.time
        assert s.candidate.energy == p.candidate.energy
        assert s.baseline.time == p.baseline.time


def test_context_jobs_validation():
    with pytest.raises(ValueError):
        ExperimentContext(jobs=-1)
    assert ExperimentContext(jobs=3).jobs == 3


class TestFanOutSpanPropagation:
    """fan_out carries the submitting thread's span context to workers."""

    def test_pool_workers_inherit_the_caller_span(self):
        from repro.telemetry import Telemetry
        from repro.telemetry.spans import SpanTracker, ambient_telemetry

        telemetry = Telemetry(spans=SpanTracker())

        def work(item):
            with ambient_telemetry().span("item", value=item):
                return item

        with telemetry.span("batch"):
            fan_out(work, list(range(6)), jobs=3)
        records = telemetry.spans.records()
        batch = next(r for r in records if r.name == "batch")
        items = [r for r in records if r.name == "item"]
        assert len(items) == 6
        assert all(r.parent_id == batch.span_id for r in items)

    def test_metric_counts_identical_serial_vs_pooled(self):
        from repro.telemetry import Telemetry
        from repro.telemetry.spans import SpanTracker, ambient_telemetry

        def run(jobs):
            telemetry = Telemetry(spans=SpanTracker())

            def work(item):
                ambient_telemetry().metrics.counter(
                    "items_total").inc(kind="fan")
                return item

            with telemetry.span("batch"):
                fan_out(work, list(range(8)), jobs=jobs)
            return telemetry.metrics.as_dict()

        assert run(1) == run(4)
