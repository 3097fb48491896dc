"""End-to-end benchmark of the ``python -m repro`` CLI process.

Usage (from the repository root)::

    python3 clibench/run.py --workload reproduce-cold --seed 1 --seconds 20 --trace 0

Load is closed-loop: this process drives one CLI child at a time, at the
child's default ``--jobs 1``. Every child gets an explicit ``--cache-dir``
inside a work directory this process owns (``.clibench_work/`` at the
repository root, removed on exit) and no ``REPRO_*`` environment, so a
user cache can never turn a cold run warm.

Workloads (the inputs are the paper's fixed 14-app / 25-kernel roster;
``--seed`` only names the run's work directory, since simulated
statistics repeat exactly and only host time varies):

* ``reproduce-cold`` — ``reproduce`` into a fresh empty store per
  invocation: a first-time user's run, the only one that runs the
  event simulator and writes the store.
* ``reproduce-warm`` — ``reproduce`` against a store and manifest filled
  in set-up: all 26 reports are served and no node runs, so it moves
  with import cost and manifest serving, not with the model layers.
* ``evaluate-noisy`` — ``evaluate --seeds 16 --noise 0.05`` against a
  filled store: reads grid surfaces, runs the Monte Carlo controller
  path and no event simulator or manifest.

Every invocation — set-up, timed and traced — is checked against the
sha256 digests in ``reference.json``: the 26 report files of
``reproduce`` and the stdout bytes of ``evaluate-noisy``. A nonzero exit
or a digest mismatch is a failed invocation.

Each timed invocation is followed by :data:`PROBE`, a fixed program from
outside the repository, and the end-to-end timing is the child's wall
time as a multiple of the probe's; the raw seconds are printed beside
it.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the run also makes one traced invocation
(``tracer.py``) and the last line carries the per-layer metrics.
``--write-reference`` records the digests of the current tree instead of
benchmarking it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

#: Set-up runs per benchmark run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: The paper's headline Harmonia ED² improvements (Figure 10), percent.
PAPER_ED2_AVG_PCT = 12.0
PAPER_ED2_MAX_PCT = 36.0

EVALUATE_ARGS = ("evaluate", "--seeds", "16", "--noise", "0.05")

#: A fixed program outside the repository, run right after every timed
#: invocation. On a shared host the same invocation's wall time drifts
#: by up to 1.8x within minutes; the probe drifts with it, so their
#: ratio spreads run to run a third as much as the seconds. Its mix of
#: interpreter start, numpy import and bytecode resembles the CLI's, and
#: no change to the repository can move it. CPU time is not normalized:
#: numpy's BLAS threads make the probe's CPU/wall share itself drift.
PROBE = ("import argparse, dataclasses, json, numpy\n"
         "s = 0\n"
         "for i in range(600000):\n"
         "    s += i * i % 7\n")

#: End-to-end metrics of the JSON result, ``(name, unit)``. ``wall_rel``
#: is the median over the run's invocations of the child's wall time
#: divided by that of the probe that followed it.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_rel", "x"),
    ("peak_rss_mb", "MB"),
    ("paper_ed2_max_err_pp", "pp"),
    ("eventsim_dev_mean_pct", "%"),
)

#: Printed with the end-to-end metrics but kept out of the JSON result:
#: the seconds drift with the host too much to carry a bound, the last
#: two read 0 on a correct tree (the JSON's ``failed`` / ``attempted``
#: already carry the error rate).
REPORTED_ONLY: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("probe_wall_s", "s"),
    ("error_rate", "ratio"),
    ("paper_ed2_avg_err_pp", "pp"),
)


@dataclass
class Invocation:
    """One checked CLI child process."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    reports: Dict[str, str]
    digests: Dict[str, str]
    #: the traced child's raw totals (traced invocations only)
    raw: Optional[Dict] = None


def digests(reports: Dict[str, bytes]) -> Dict[str, str]:
    """sha256 hex digest per named output."""
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in reports.items()}


class Bench:
    """The work directory, child environment and reference of one run.

    With no reference, invocations are recorded but not checked.
    """

    def __init__(self, work: Path, reference: Optional[Dict]):
        self.work = work
        self.reference = reference
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(work)
        self.attempted = 0
        self.failed = 0
        self._seq = 0

    def fresh_dir(self, stem: str) -> Path:
        """A new empty directory under the work directory."""
        self._seq += 1
        path = self.work / f"{stem}-{self._seq}"
        path.mkdir()
        return path

    def spawn(self, argv: Sequence[str]) -> Tuple[float, int, object, Path]:
        """Run one child to completion; ``(wall_s, exit, rusage, stdout)``."""
        stdout = self.work / "stdout.txt"
        with open(stdout, "wb") as out, \
                open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage, stdout

    def probe(self) -> float:
        """Run :data:`PROBE`; its wall time."""
        wall, code, _, _ = self.spawn([sys.executable, "-c", PROBE])
        if code != 0:
            raise RuntimeError(f"the probe program exited with {code}")
        return wall

    def expected(self, output: Optional[Path]) -> Dict[str, str]:
        """The reference digests for stdout or for a report directory."""
        if output is None:
            return {"stdout": self.reference["evaluate-noisy"]}
        return self.reference["reproduce"]

    def invoke(self, args: Sequence[str], output: Optional[Path] = None,
               traced: bool = False) -> Invocation:
        """Run ``python -m repro <args>`` (or its traced form) and check it.

        Args:
            args: the CLI arguments.
            output: the ``reproduce --output`` directory whose report
                files are checked; None checks stdout instead.
            traced: run under ``tracer.py``; the invocation also fails
                when the tracer wrote no totals or left a wrapper behind.
        """
        raw_path = self.work / "trace.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"),
                    "--out", str(raw_path), "--", *args]
        else:
            argv = [sys.executable, "-m", "repro", *args]
        wall, code, usage, stdout = self.spawn(argv)
        if output is None:
            reports = {"stdout": stdout.read_bytes()}
        else:
            reports = {p.stem: p.read_bytes() for p in output.glob("*")}
        found = digests(reports)
        raw = None
        if traced and code == 0:
            raw = json.loads(raw_path.read_text())
            raw["traced_wall_s"] = wall
        self.attempted += 1
        if (code != 0
                or (self.reference is not None
                    and found != self.expected(output))
                or (raw is not None and raw["leftover_wrappers"])):
            self.failed += 1
            stderr = (self.work / "stderr.txt").read_text(errors="replace")
            print(f"FAILED (exit {code}): {' '.join(args)}\n{stderr[-2000:]}",
                  file=sys.stderr)
        return Invocation(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            reports={n: d.decode(errors="replace") for n, d in reports.items()},
            digests=found,
            raw=raw,
        )


# --- the simulated results -------------------------------------------------------


def fig10_harmonia(text: str) -> Dict[str, float]:
    """Harmonia's column of the Figure 10 table, percent per row."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("Figure 10:"))
    header = lines[start + 1].split()
    column = header.index("harmonia")
    rows = {}
    for line in lines[start + 3:]:
        if not line.strip():
            break
        cells = line.rsplit(None, len(header) - 1)
        rows[cells[0].strip()] = float(cells[column].rstrip("%"))
    return rows


def eventsim_dev_mean(text: str) -> float:
    """The OVERALL mean |dev| of the event-sim validation report, percent."""
    for line in text.splitlines():
        cells = line.split()
        if cells and cells[0] == "OVERALL":
            return float(cells[1].rstrip("%"))
    raise ValueError("no OVERALL row in the model-validation report")


def paper_errors(fig10_text: str) -> Dict[str, float]:
    """Distance of the simulated Figure 10 headline from the paper's."""
    rows = fig10_harmonia(fig10_text)
    worst = max(v for k, v in rows.items() if not k.startswith("geomean"))
    return {
        "paper_ed2_avg_err_pp": round(abs(rows["geomean 1"]
                                          - PAPER_ED2_AVG_PCT), 1),
        "paper_ed2_max_err_pp": round(abs(worst - PAPER_ED2_MAX_PCT), 1),
    }


# --- workloads -------------------------------------------------------------------


@dataclass
class Workload:
    """How to set up, invoke and trace one workload.

    ``setup`` returns the set-up invocation that is timed as ``setup_s``
    (a store it filled stays in ``state``); ``args`` builds one timed
    invocation's CLI arguments and output directory, placing anything
    the invocation owns under the given fresh directory.
    """

    name: str
    why: str
    setup: Callable[[Bench, Dict], Invocation]
    args: Callable[[Dict, Path], Tuple[List[str], Optional[Path]]]


def _reproduce_args(store: Path, scratch: Path) -> Tuple[List[str], Path]:
    out = scratch / "out"
    return (["reproduce", "--cache-dir", str(store), "--output", str(out)],
            out)


def _cold_args(state: Dict, scratch: Path) -> Tuple[List[str], Path]:
    store = scratch / "store"
    store.mkdir()
    return _reproduce_args(store, scratch)


def _fill_store(bench: Bench, state: Dict) -> Invocation:
    """A cold ``reproduce`` into a fresh store, kept for the timed runs."""
    scratch = bench.fresh_dir("fill")
    run = bench.invoke(*_cold_args(state, scratch))
    state["store"] = scratch / "store"
    state["validation"] = run.reports.get("ext_model_validation", "")
    return run


def _cold_setup(bench: Bench, state: Dict) -> Invocation:
    """One untimed warm-up invocation: fills the .pyc and page caches."""
    scratch = bench.fresh_dir("warmup")
    try:
        return bench.invoke(*_cold_args(state, scratch))
    finally:
        shutil.rmtree(scratch)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "reproduce-cold",
        "a first-time user's reproduce into a fresh empty store; runs the "
        "event simulator, the batched controller and store writes",
        _cold_setup,
        _cold_args,
    ),
    Workload(
        "reproduce-warm",
        "the everyday rerun: every report served from the manifest, so "
        "import cost shows and model layers should not",
        _fill_store,
        lambda state, scratch: _reproduce_args(state["store"], scratch),
    ),
    Workload(
        "evaluate-noisy",
        "Monte Carlo evaluate over a filled store: grid-surface reads and "
        "launch-keyed noise, no event simulator and no manifest",
        _fill_store,
        lambda state, scratch: (
            [*EVALUATE_ARGS, "--cache-dir", str(state["store"])], None),
    ),
)}


def _simulated(workload: str, run: Invocation, state: Dict) -> Dict[str, float]:
    if workload == "evaluate-noisy":
        metrics = paper_errors(run.reports["stdout"])
        validation = state["validation"]
    else:
        metrics = paper_errors(run.reports["fig10_ed2"])
        validation = run.reports["ext_model_validation"]
    metrics["eventsim_dev_mean_pct"] = eventsim_dev_mean(validation)
    return metrics


def run_workload(workload: Workload, bench: Bench, seconds: float,
                 trace: bool) -> Tuple[Dict[str, float], Optional[Dict]]:
    """Set up, then invoke for ``seconds``; optionally trace one run.

    Returns the end-to-end metrics and, when tracing, the traced child's
    raw totals with its process wall (``traced_wall_s``).
    """
    state: Dict = {}
    setups = []
    for _ in range(SETUP_REPEATS):
        if "store" in state:
            shutil.rmtree(state["store"].parent)
        setups.append(workload.setup(bench, state).wall_s)

    runs: List[Invocation] = []
    probes: List[float] = []
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < seconds:
        scratch = bench.fresh_dir("run")
        runs.append(bench.invoke(*workload.args(state, scratch)))
        shutil.rmtree(scratch)
        probes.append(bench.probe())

    metrics = {
        "setup_s": statistics.median(setups),
        "wall_rel": statistics.median(
            r.wall_s / p for r, p in zip(runs, probes)),
        "wall_s": statistics.median(r.wall_s for r in runs),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "probe_wall_s": statistics.median(probes),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "samples": len(runs),
    }
    metrics.update(_simulated(workload.name, runs[0], state))

    raw = None
    if trace:
        traced = bench.invoke(*workload.args(state, bench.fresh_dir("traced")),
                              traced=True)
        raw = traced.raw
    return metrics, raw


# --- reporting -------------------------------------------------------------------


MEDIANS = ("wall_rel", "wall_s", "cpu_s", "probe_wall_s",
           "peak_rss_mb")


def format_end_to_end(name: str, metrics: Dict[str, float],
                      error_rate: float) -> str:
    values = dict(metrics, error_rate=error_rate)
    lines = [f"end-to-end metrics, workload {name}:"]
    for metric, unit in END_TO_END + REPORTED_ONLY:
        note = (f"  (median of {metrics['samples']} invocations)"
                if metric in MEDIANS else "")
        lines.append(f"  {metric:<24} {values[metric]:>12.6g} {unit}{note}")
    return "\n".join(lines)


def result_line(correct: bool, bench: Bench,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def write_reference(work: Path) -> int:
    """Record the digests of the current tree's outputs."""
    bench = Bench(work, None)
    state: Dict = {}
    fill = _fill_store(bench, state)
    evaluate = bench.invoke(
        [*EVALUATE_ARGS, "--cache-dir", str(state["store"])])
    if bench.failed:
        return 1
    reference = {
        "reproduce": dict(sorted(fill.digests.items())),
        "evaluate-noisy": evaluate.digests["stdout"],
    }
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {REFERENCE} ({len(reference['reproduce'])} reports)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the current outputs' digests and exit")
    args = parser.parse_args(argv)
    if not (args.workload or args.write_reference):
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from benchmarks.ledger import env_fingerprint

    work = ROOT / ".clibench_work" / f"{os.getpid()}-seed{args.seed}"
    work.mkdir(parents=True)
    try:
        if args.write_reference:
            return write_reference(work)
        load_start = os.getloadavg()[0]
        bench = Bench(work, json.loads(REFERENCE.read_text()))
        workload = WORKLOADS[args.workload]
        metrics, raw = run_workload(workload, bench, args.seconds,
                                    bool(args.trace))
        load_end = os.getloadavg()[0]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's work directory is still there
            pass

    error_rate = bench.failed / bench.attempted
    print(f"workload {workload.name}: {workload.why}")
    print("environment " + json.dumps(dict(
        env_fingerprint(), loadavg_1m_start=load_start,
        loadavg_1m_end=load_end, seed=args.seed, seconds=args.seconds)))
    print(format_end_to_end(workload.name, metrics, error_rate))
    if args.trace:
        if raw is None:
            print("error: the traced run wrote no totals", file=sys.stderr)
            return 1
        wall = raw["traced_wall_s"]
        layer = tracer.per_layer_metrics(raw, wall, metrics["wall_s"])
        print("\nper-layer self time, traced run:")
        print(tracer.format_layer_table(raw, wall))
        print("\nper-layer metrics:")
        units = dict(tracer.PER_LAYER)
        for name, value in layer.items():
            print(f"  {name:<36} {value:>14.6g} {units[name]}")
        result = {name: (value, units[name]) for name, value in layer.items()}
    else:
        result = {name: (metrics[name], unit) for name, unit in END_TO_END}
    print(result_line(bench.failed == 0, bench, result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
