"""Per-layer timing of one ``repro`` CLI run, taken from outside the package.

The tracer wraps the public entry points of each layer (the table
:data:`TARGETS`) for the duration of one run and restores the originals
afterwards; no code under ``src/`` knows it is being observed. Every
wrapped call is a span on its thread: its inclusive time, its self time
(duration minus the wrapped calls nested inside it on the same thread)
and, for some entry points, a work count taken from its result.

Run as a script it is the traced child of the benchmark::

    python clibench/tracer.py --out raw.json -- reproduce --cache-dir D --output O

It times ``import repro.cli`` first (the interpreter is fresh), installs
the wrappers, runs ``repro.cli.main`` on the arguments after ``--`` and
writes the raw span totals as JSON. :func:`per_layer_metrics` turns those
totals into the named per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Marks a wrapper so a scan can prove none is left behind.
TRACED_MARK = "__clibench_traced__"


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    Attributes:
        layer: the ``repro`` layer the call's self time is charged to;
            None for time spent idle, charged to no layer.
        metric: the span name; entry points sharing one (a method and the
            method it delegates to) are timed once, at the outermost call.
        module: the defining module.
        attr: ``Class.method`` or a module-level function name.
        count: optional ``(name, fn(result) -> int)`` work counter.
    """

    layer: Optional[str]
    metric: str
    module: str
    attr: str
    count: Optional[Tuple[str, Callable[[Any], int]]] = None


def _is_hit(result: Any) -> int:
    return int(result is not None)


TARGETS: Tuple[Target, ...] = (
    Target("perf.eventsim_batch", "eventsim.batch",
           "repro.perf.eventsim_batch", "BatchedEventModel.run_batch"),
    Target("perf.eventsim_batch", "eventsim.batch",
           "repro.perf.eventsim_batch", "BatchedEventModel.run_pairs",
           count=("eventsim.lanes", len)),
    Target("perf.eventsim_batch", "eventsim.scalar",
           "repro.perf.eventsim", "EventDrivenModel.run"),
    Target("platform.noise", "noise.multipliers_for",
           "repro.platform.noise", "LaunchKeyedNoise.multipliers_for"),
    Target("runtime.session", "session.run_sessions",
           "repro.runtime.session", "BatchSessionRunner.run_sessions",
           count=("session.lanes", len)),
    Target("runtime.session", "session.scalar",
           "repro.runtime.simulator", "ApplicationRunner.run"),
    Target("runtime.montecarlo", "montecarlo.rollout",
           "repro.runtime.montecarlo", "MonteCarloEngine.rollout"),
    Target("platform.store", "store.save",
           "repro.platform.store", "SweepStore.save_record"),
    Target("platform.store", "store.load",
           "repro.platform.store", "SweepStore.load_record"),
    Target("platform.store", "store.load",
           "repro.platform.store", "SweepStore.load_record_mmap"),
    Target("platform.sweepcache", "sweepcache.get_or_compute",
           "repro.platform.sweepcache", "SweepCache.get_or_compute"),
    # The platform's batched surface entry points; reproduce and evaluate
    # reach the surfaces through the last two, never the first.
    Target("platform.hd7970", "platform.run_kernel_batch",
           "repro.platform.hd7970", "HardwarePlatform.run_kernel_batch"),
    Target("platform.hd7970", "platform.run_kernel_batch",
           "repro.platform.hd7970", "HardwarePlatform.grid_sweep"),
    Target("platform.hd7970", "platform.run_kernel_batch",
           "repro.platform.hd7970", "HardwarePlatform.launch_surface"),
    Target("perf.model", "perf.run_batch",
           "repro.perf.model", "PerformanceModel.run_batch"),
    Target("power.board", "power.sample_batch",
           "repro.power.board", "BoardPowerModel.sample_batch"),
    Target("sensitivity", "sensitivity.train",
           "repro.sensitivity.predictor", "train_predictors"),
    Target("runtime.pipeline", "manifest.load",
           "repro.runtime.pipeline", "ResultManifest.load",
           count=("manifest.hits", _is_hit)),
    Target("runtime.pipeline", "manifest.save",
           "repro.runtime.pipeline", "ResultManifest.save"),
    Target("runtime.pipeline", "pipeline.run",
           "repro.runtime.pipeline", "ExperimentPipeline.run"),
    # The scheduling thread blocked on pool threads running nodes: its
    # self time is the nodes' time, already counted on their thread.
    Target(None, "pipeline.wait", "repro.runtime.pipeline", "wait"),
    # The node runner: experiment code of nodes not wrapped on their own.
    Target("experiments", "pipeline.node",
           "repro.runtime.pipeline", "ExperimentPipeline._run_node"),
    Target("experiments", "experiments.ext_model_validation",
           "repro.experiments.ext_model_validation", "run"),
    Target("experiments", "experiments.ext_memory_voltage",
           "repro.experiments.ext_memory_voltage", "run"),
    Target("experiments", "experiments.ext_portability",
           "repro.experiments.ext_portability", "run"),
    Target("experiments", "experiments.evaluation",
           "repro.experiments.fig10_13_evaluation", "run"),
)

#: Layers in table order; ``repro.cli`` is the import of the CLI module.
LAYERS = ("repro.cli",) + tuple(
    dict.fromkeys(t.layer for t in TARGETS if t.layer is not None))


@dataclass
class _Span:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0


@dataclass
class _Frame:
    metric: str
    child_s: float = 0.0


@dataclass
class Tracer:
    """Span totals per metric plus work counts, across threads."""

    spans: Dict[str, _Span] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    stores: List[Any] = field(default_factory=list)
    #: seconds :meth:`install` spent importing every ``repro`` module
    import_all_s: float = 0.0
    _patches: List[Tuple[Any, str, Any]] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            outermost = all(f.metric != target.metric for f in stack)
            frame = _Frame(target.metric)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child_s += duration
                with tracer._lock:
                    span = tracer.spans.setdefault(target.metric, _Span())
                    span.self_s += duration - frame.child_s
                    if outermost:
                        span.calls += 1
                        span.incl_s += duration
            if target.count is not None:
                name, fn = target.count
                with tracer._lock:
                    tracer.counts[name] = tracer.counts.get(name, 0) + fn(result)
            return result

        setattr(traced, TRACED_MARK, True)
        return traced

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every target, at every module that bound it by name.

        Every ``repro`` module is imported first, so each ``from m import
        f`` binding already exists and is patched here; none can pick up
        a wrapper later and keep it past :meth:`uninstall`. That import
        is the tracer's own cost, timed as :attr:`import_all_s`.
        """
        start = time.perf_counter()
        import repro
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith(".__main__"):
                importlib.import_module(info.name)
        self.import_all_s = time.perf_counter() - start
        modules = [m for n, m in list(sys.modules.items())
                   if n == "repro" or n.startswith("repro.")]
        for target in TARGETS:
            owner = importlib.import_module(target.module)
            class_name, _, name = target.attr.rpartition(".")
            if class_name:
                owner = getattr(owner, class_name)
                self._patch(owner, name, self._wrap(target, vars(owner)[name]))
                continue
            original = getattr(owner, name)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        from repro.platform.store import SweepStore
        init = vars(SweepStore)["__init__"]

        def init_and_record(store, *args, **kwargs):
            init(store, *args, **kwargs)
            self.stores.append(store)

        setattr(init_and_record, TRACED_MARK, True)
        self._patch(SweepStore, "__init__", init_and_record)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self):
        """The wrappers, for the duration of the ``with`` block."""
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    def raw(self) -> Dict[str, Any]:
        """Span totals, counts and the cache/store statistics, as JSON data."""
        from repro.platform.sweepcache import shared_cache
        cache = shared_cache().stats()
        stores = [store.stats() for store in self.stores]
        return {
            "spans": {name: vars(span) for name, span in self.spans.items()},
            "counts": dict(self.counts),
            "import_all_s": self.import_all_s,
            "sweepcache": {"lookups": cache.lookups,
                           "hit_ratio": cache.hit_rate},
            "store": {key: sum(getattr(s, key) for s in stores)
                      for key in ("bytes_read", "bytes_written",
                                  "invalid_records")},
        }


def leftover_wrappers() -> List[str]:
    """``module.attr`` / ``Class.attr`` names still bound to a wrapper."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            owners = [(f"{mod_name}.{attr}", value)]
            if isinstance(value, type) and value.__module__ == mod_name:
                owners += [(f"{mod_name}.{attr}.{k}", v)
                           for k, v in vars(value).items()]
            found += [n for n, v in owners if getattr(v, TRACED_MARK, False)]
    return found


#: Per-layer metrics as ``(name, unit)``, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("cli.import_s", "s"),
    ("eventsim.run_batch_s", "s"),
    ("eventsim.lanes", "count"),
    ("eventsim.lanes_per_s", "1/s"),
    ("eventsim.scalar_runs", "count"),
    ("noise.multipliers_for_calls", "count"),
    ("noise.multipliers_for_s", "s"),
    ("session.run_sessions_s", "s"),
    ("session.lanes", "count"),
    ("session.scalar_runs", "count"),
    ("montecarlo.rollout_s", "s"),
    ("store.save_calls", "count"),
    ("store.save_s", "s"),
    ("store.bytes_written", "bytes"),
    ("store.load_calls", "count"),
    ("store.load_s", "s"),
    ("store.bytes_read", "bytes"),
    ("store.invalid_records", "count"),
    ("sweepcache.lookups", "count"),
    ("sweepcache.hit_ratio", "ratio"),
    ("sweepcache.fill_self_s", "s"),
    ("platform.run_kernel_batch_s", "s"),
    ("perf.run_batch_s", "s"),
    ("power.sample_batch_s", "s"),
    ("sensitivity.train_s", "s"),
    ("manifest.load_s", "s"),
    ("manifest.hits", "count"),
    ("manifest.save_s", "s"),
    ("pipeline.nodes_ran", "count"),
    ("pipeline.sched_s", "s"),
    ("experiments.ext_model_validation_s", "s"),
    ("experiments.ext_memory_voltage_s", "s"),
    ("experiments.ext_portability_s", "s"),
    ("experiments.evaluation_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_self_times(raw: Dict[str, Any]) -> Dict[str, float]:
    """Self time per layer of :data:`LAYERS`, in seconds."""
    layer_of = {t.metric: t.layer for t in TARGETS}
    totals = {layer: 0.0 for layer in LAYERS}
    totals["repro.cli"] = raw["import_s"]
    for metric, span in raw["spans"].items():
        if layer_of[metric] is not None:
            totals[layer_of[metric]] += span["self_s"]
    return totals


def unattributed_s(raw: Dict[str, Any], traced_wall_s: float) -> float:
    """Traced wall covered by no layer and not by the tracer's imports."""
    return (traced_wall_s - raw["import_all_s"]
            - sum(layer_self_times(raw).values()))


def per_layer_metrics(raw: Dict[str, Any], traced_wall_s: float,
                      untraced_wall_s: float) -> Dict[str, float]:
    """The named per-layer metrics of one traced run.

    The tracer's import of every ``repro`` module is taken out of the
    traced wall before ``trace.unattributed_s`` and
    ``trace.overhead_ratio``: on a run that never imports experiment
    code it would otherwise dominate both.

    Args:
        raw: the traced child's output (:meth:`Tracer.raw` plus
            ``import_s``).
        traced_wall_s: wall time of the traced child process.
        untraced_wall_s: median wall time of the untraced invocations.
    """
    spans = raw["spans"]
    counts = raw["counts"]

    def incl(metric: str) -> float:
        return spans.get(metric, {}).get("incl_s", 0.0)

    def calls(metric: str) -> int:
        return spans.get(metric, {}).get("calls", 0)

    batch_s = incl("eventsim.batch")
    lanes = counts.get("eventsim.lanes", 0)
    metrics = {
        "cli.import_s": raw["import_s"],
        "eventsim.run_batch_s": batch_s,
        "eventsim.lanes": lanes,
        "eventsim.lanes_per_s": lanes / batch_s if batch_s else 0.0,
        "eventsim.scalar_runs": calls("eventsim.scalar"),
        "noise.multipliers_for_calls": calls("noise.multipliers_for"),
        "noise.multipliers_for_s": incl("noise.multipliers_for"),
        "session.run_sessions_s": incl("session.run_sessions"),
        "session.lanes": counts.get("session.lanes", 0),
        "session.scalar_runs": calls("session.scalar"),
        "montecarlo.rollout_s": incl("montecarlo.rollout"),
        "store.save_calls": calls("store.save"),
        "store.save_s": incl("store.save"),
        "store.bytes_written": raw["store"]["bytes_written"],
        "store.load_calls": calls("store.load"),
        "store.load_s": incl("store.load"),
        "store.bytes_read": raw["store"]["bytes_read"],
        "store.invalid_records": raw["store"]["invalid_records"],
        "sweepcache.lookups": raw["sweepcache"]["lookups"],
        "sweepcache.hit_ratio": raw["sweepcache"]["hit_ratio"],
        "sweepcache.fill_self_s": spans.get(
            "sweepcache.get_or_compute", {}).get("self_s", 0.0),
        "platform.run_kernel_batch_s": incl("platform.run_kernel_batch"),
        "perf.run_batch_s": incl("perf.run_batch"),
        "power.sample_batch_s": incl("power.sample_batch"),
        "sensitivity.train_s": incl("sensitivity.train"),
        "manifest.load_s": incl("manifest.load"),
        "manifest.hits": counts.get("manifest.hits", 0),
        "manifest.save_s": incl("manifest.save"),
        "pipeline.nodes_ran": calls("pipeline.node"),
        # Self time of the run on the scheduling thread: without the
        # waits on node runners and without manifest loads and saves.
        "pipeline.sched_s": spans.get("pipeline.run", {}).get("self_s", 0.0),
        "experiments.ext_model_validation_s":
            incl("experiments.ext_model_validation"),
        "experiments.ext_memory_voltage_s":
            incl("experiments.ext_memory_voltage"),
        "experiments.ext_portability_s": incl("experiments.ext_portability"),
        "experiments.evaluation_s": incl("experiments.evaluation"),
        "trace.unattributed_s": unattributed_s(raw, traced_wall_s),
        "trace.overhead_ratio":
            (traced_wall_s - raw["import_all_s"]) / untraced_wall_s,
    }
    return metrics


def format_layer_table(raw: Dict[str, Any], traced_wall_s: float) -> str:
    """Each layer's self time and its share of the traced process wall."""
    selves = layer_self_times(raw)
    selves["(tracer imports)"] = raw["import_all_s"]
    selves["(unattributed)"] = unattributed_s(raw, traced_wall_s)
    lines = [f"{'layer':>22}  {'self s':>8}  {'share':>6}"]
    for layer, seconds in selves.items():
        lines.append(f"{layer:>22}  {seconds:8.4f}  "
                     f"{seconds / traced_wall_s:6.1%}")
    lines.append(f"{'traced process wall':>22}  {traced_wall_s:8.4f}  "
                 f"{1:6.1%}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Traced child: time the import, run the CLI under the tracer."""
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    out_path = argv[argv.index("--out") + 1]
    start = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    with tracer.installed():
        status = repro.cli.main(argv[split + 1:])
    raw = tracer.raw()
    raw["import_s"] = import_s
    raw["leftover_wrappers"] = leftover_wrappers()
    with open(out_path, "w") as handle:
        json.dump(raw, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
