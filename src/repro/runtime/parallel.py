"""Thread-based fan-out for embarrassingly parallel experiment stages.

The expensive stages of the repro — training-set construction (one
independent measurement pipeline per kernel spec), the Figures 10-13
policy matrix (one independent run per application) and the experiment
pipeline itself (one node per paper table/figure) — are pure fan-outs
over independent work items. :func:`fan_out` runs them on a thread pool.

Threads are the only pool: the working set is the shared
:func:`~repro.platform.sweepcache.shared_cache` of NumPy sweep surfaces,
which processes would have to rebuild per worker, and the vectorized
batch paths (including the lockstep event simulator) spend their time
inside NumPy, which releases the GIL. Workers must not mutate shared
state; stateful policies are isolated per item by constructing them
inside the worker (see
:meth:`~repro.analysis.evaluation.EvaluationHarness.evaluate`).

Two levels of parallelism compose through a :class:`WorkerBudget`: the
experiment pipeline fans out over DAG nodes *and* a node's own stages
fan out over kernels/applications, yet total live workers stay bounded
by one global budget. The scheduler installs its budget with
:func:`budget_scope`; every :func:`fan_out` call inside the scope then
*borrows* spare permits non-blockingly instead of spawning its full
``jobs`` complement, so an inner fan-out can never oversubscribe the
machine, and the tail of the DAG (few runnable nodes) automatically
hands its idle permits to the nodes still running.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, List, Optional, Sequence, TypeVar

from repro.errors import AnalysisError
from repro.telemetry.spans import capture_span_context, use_span_context

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: int) -> int:
    """Normalize a ``--jobs`` value: ``0`` means "auto" (all cores).

    Args:
        jobs: requested worker count; ``0`` resolves to
            ``os.cpu_count()`` (or 1 when that is unknown).

    Raises:
        AnalysisError: when ``jobs`` is negative.
    """
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise AnalysisError(f"jobs must be >= 0 (0 = auto), got {jobs}")
    return jobs


class WorkerBudget:
    """A global concurrency budget shared across parallelism levels.

    Holds ``jobs`` permits. A pipeline node *acquires* one permit for its
    own thread (blocking — the scheduler bounds node-level concurrency
    this way) and an inner :func:`fan_out` *borrows* extra permits
    non-blockingly for its pool workers. Borrowing never blocks, so the
    composition cannot deadlock: when the budget is exhausted the inner
    stage simply runs serially on its own thread.
    """

    def __init__(self, jobs: int):
        self.jobs = resolve_jobs(jobs)
        if self.jobs < 1:
            raise AnalysisError(f"budget needs >= 1 permit, got {self.jobs}")
        self._cond = threading.Condition()
        self._available = self.jobs

    def available(self) -> int:
        """Permits currently free (racy; for tests and diagnostics)."""
        with self._cond:
            return self._available

    def acquire(self) -> None:
        """Take one permit, blocking until one is free."""
        with self._cond:
            while self._available < 1:
                self._cond.wait()
            self._available -= 1

    def borrow(self, wanted: int) -> int:
        """Take up to ``wanted`` extra permits without blocking.

        Returns:
            The number of permits actually granted (0 when none free).
        """
        if wanted <= 0:
            return 0
        with self._cond:
            granted = min(wanted, self._available)
            self._available -= granted
            return granted

    def release(self, permits: int = 1) -> None:
        """Return permits to the budget."""
        if permits <= 0:
            return
        with self._cond:
            self._available += permits
            if self._available > self.jobs:
                raise AnalysisError(
                    f"budget over-released: {self._available} > {self.jobs}"
                )
            self._cond.notify_all()


#: The ambient budget installed by :func:`budget_scope`, consulted by
#: every :func:`fan_out` call. None outside any pipeline run — fan-outs
#: then size their pools from their own ``jobs`` argument, exactly as
#: before budgets existed.
_ACTIVE_BUDGET: Optional[WorkerBudget] = None


def active_budget() -> Optional[WorkerBudget]:
    """The budget installed by the innermost :func:`budget_scope`."""
    return _ACTIVE_BUDGET


@contextlib.contextmanager
def budget_scope(budget: WorkerBudget) -> Iterator[WorkerBudget]:
    """Install ``budget`` as the ambient worker budget for this block."""
    global _ACTIVE_BUDGET
    previous = _ACTIVE_BUDGET
    _ACTIVE_BUDGET = budget
    try:
        yield budget
    finally:
        _ACTIVE_BUDGET = previous


def _item_label(item: object) -> str:
    """A short human label for a failing work item."""
    name = getattr(item, "name", None)
    if isinstance(name, str) and name:
        return name
    text = repr(item)
    return text if len(text) <= 60 else text[:57] + "..."


def fan_out(fn: Callable[[T], R], items: Sequence[T], jobs: int = 1,
            labels: Optional[Sequence[str]] = None) -> List[R]:
    """Apply ``fn`` to every item, optionally on a thread pool.

    Results are returned in item order regardless of completion order, so
    ``fan_out(fn, items, jobs=n)`` is a drop-in replacement for
    ``[fn(item) for item in items]``. The first worker exception (in item
    order) propagates to the caller with a note naming the failing item's
    index and label, so a 14-application fan-out that dies no longer hides
    *which* application died.

    Inside a :func:`budget_scope`, the pool is sized by borrowing spare
    permits from the ambient :class:`WorkerBudget` instead of trusting
    ``jobs`` blindly; the calling thread always counts as one worker, so
    an exhausted budget degrades to the plain serial loop.

    Args:
        fn: the per-item work function (must not mutate shared state).
        items: the work items.
        jobs: maximum concurrent workers; 1 (the default) runs serially
            on the calling thread with no pool overhead, 0 means "auto"
            (one worker per core).
        labels: optional per-item labels for error attribution; defaults
            to each item's ``.name`` attribute or a truncated ``repr``.

    Raises:
        AnalysisError: if ``jobs`` is negative or ``labels`` does not
            match ``items`` in length.
    """
    jobs = resolve_jobs(jobs)
    items = list(items)
    if labels is not None:
        labels = list(labels)
        if len(labels) != len(items):
            raise AnalysisError(
                f"fan_out got {len(items)} items but {len(labels)} labels"
            )
    total = len(items)

    def invoke(index: int, item: T) -> R:
        try:
            return fn(item)
        except Exception as error:
            label = labels[index] if labels is not None else _item_label(item)
            if hasattr(error, "add_note"):  # Python >= 3.11
                error.add_note(
                    f"fan_out: item {index + 1}/{total} ({label}) failed"
                )
            raise

    if jobs == 1 or total <= 1:
        return [invoke(i, item) for i, item in enumerate(items)]

    # Pool threads do not inherit contextvars from the submitting
    # thread: re-install the ambient span context in each worker so
    # spans opened inside fn attach to the same parent as in the serial
    # path — the span tree is jobs-invariant.
    span_context = capture_span_context()

    def invoke_in_context(index: int, item: T) -> R:
        with use_span_context(span_context):
            return invoke(index, item)

    workers = min(jobs, total)
    budget = active_budget()
    borrowed = 0
    if budget is not None:
        # The caller's thread is a worker too, so only workers - 1 extra
        # permits are needed; whatever the budget cannot spare right now
        # shrinks the pool rather than blocking.
        borrowed = budget.borrow(workers - 1)
        workers = 1 + borrowed
    try:
        if workers == 1:
            return [invoke(i, item) for i, item in enumerate(items)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(invoke_in_context, i, item)
                       for i, item in enumerate(items)]
            return [future.result() for future in futures]
    finally:
        if borrowed:
            budget.release(borrowed)
