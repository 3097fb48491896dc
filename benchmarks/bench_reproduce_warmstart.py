#!/usr/bin/env python
"""Cross-process warm-start benchmark for the persistent sweep store.

Runs the full ``reproduce`` pipeline twice in *separate interpreters*
sharing one store directory:

* **cold** — empty store: every experiment runs, and the event-driven
  validation surfaces and the result manifest are written,
* **warm** — populated store: every report is served from the manifest.

Each child times ``cli.main`` only (interpreter and import cost is the
same either way and excluded) and reports its sweep cache/store
statistics. The parent additionally verifies

* every report file is **byte-identical** between the cold and warm runs
  (the store must not change a single digit of any table), and
* a store round trip of the event-driven validation surface is **bitwise
  identical** to a freshly simulated one for all 25 kernels
  (``max_rel_divergence`` must be exactly 0).

Results land in machine-readable JSON (``BENCH_warmstart.json``)::

    PYTHONPATH=src python benchmarks/bench_reproduce_warmstart.py
    PYTHONPATH=src python benchmarks/bench_reproduce_warmstart.py \\
        --min-speedup 3 --out /tmp/b.json

Exits non-zero when the warm speedup falls below ``--min-speedup``
(default 5x), when any report differs, or when any round trip diverges.
CI restores the store directory with ``actions/cache``, so even the
"cold" CI run usually warm-starts from a previous build's records.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Executed in a fresh interpreter per leg: argv = (store, reports, stats).
_CHILD = """\
import json, sys, time
from repro import cli
from repro.platform.store import attached_store
from repro.platform.sweepcache import shared_cache

t0 = time.perf_counter()
rc = cli.main(["reproduce", "--output", sys.argv[2],
               "--cache-dir", sys.argv[1]])
elapsed = time.perf_counter() - t0
assert rc == 0, f"reproduce failed with exit code {rc}"

stats = shared_cache().stats()
store = attached_store()
store_stats = store.stats() if store is not None else None
with open(sys.argv[3], "w") as fh:
    json.dump({
        "elapsed_s": elapsed,
        "memory": {"hits": stats.hits, "misses": stats.misses},
        "store": {"hits": store_stats.hits,
                  "misses": store_stats.misses,
                  "invalid_records": store_stats.invalid_records,
                  "bytes_read": store_stats.bytes_read,
                  "bytes_written": store_stats.bytes_written}
                 if store_stats else None,
    }, fh)
"""


def _run_leg(store_dir: Path, reports_dir: Path, stats_path: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    subprocess.run(
        [sys.executable, "-c", _CHILD,
         str(store_dir), str(reports_dir), str(stats_path)],
        cwd=REPO_ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL,
    )
    with open(stats_path) as fh:
        return json.load(fh)


def _compare_reports(cold_dir: Path, warm_dir: Path) -> list:
    """Names of report files that differ (empty = byte-identical runs)."""
    cold = sorted(p.name for p in cold_dir.iterdir())
    warm = sorted(p.name for p in warm_dir.iterdir())
    if cold != warm:
        return sorted(set(cold) ^ set(warm))
    return [name for name in cold
            if (cold_dir / name).read_bytes() != (warm_dir / name).read_bytes()]


def _round_trip_divergence(store_dir: Path) -> dict:
    """Max relative store round-trip divergence of the event-driven
    validation surfaces of all 25 kernels (any bit difference counts)."""
    import numpy as np

    from repro.experiments.ext_model_validation import (
        EVENTSIM_KIND, _batch_simulate, _load_event_times, _sample_configs)
    from repro.platform.hd7970 import make_hd7970_platform
    from repro.platform.store import SweepStore
    from repro.workloads.registry import all_kernels

    platform = make_hd7970_platform()
    calibration = platform.calibration
    configs = _sample_configs(platform.config_space)
    specs = [kernel.base for kernel in all_kernels()]
    store = SweepStore(store_dir)
    worst = 0.0
    for spec, fresh in zip(specs,
                           _batch_simulate(calibration, specs, configs)):
        assert store.save_record(
            EVENTSIM_KIND, (calibration, spec, tuple(configs)),
            {"time": fresh}, meta={"kernel_name": spec.name})
        loaded = _load_event_times(store, calibration, spec, configs)
        assert loaded is not None, f"round trip lost {spec.name}"
        if loaded.tobytes() != fresh.tobytes():
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = float(np.max(np.abs(loaded - fresh) / np.where(
                    fresh != 0, np.abs(fresh), 1.0)))
            # A difference that is no finite relative error (NaN bits,
            # signed zeros) still diverges.
            worst = max(worst, rel if rel > 0 else float("inf"))
    return {"kernels": len(specs), "max_rel_divergence": worst}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="fail if warm reproduce is not at least this "
                             "much faster than cold (default: 5x)")
    parser.add_argument("--warm-repeats", type=int, default=3,
                        help="warm-leg repeats, best-of (the warm run is "
                             "repeatable; the cold run, which populates "
                             "the store, is not)")
    parser.add_argument("--store-dir", default=None, metavar="DIR",
                        help="store directory to benchmark against "
                             "(default: a fresh temporary directory; pass "
                             "a persistent path to measure CI cache reuse)")
    parser.add_argument("--out", default="BENCH_warmstart.json",
                        help="output JSON path (default: "
                             "BENCH_warmstart.json)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="warmstart-") as scratch:
        scratch = Path(scratch)
        store_dir = (Path(args.store_dir).expanduser()
                     if args.store_dir else scratch / "store")
        cold_reports = scratch / "reports-cold"
        warm_reports = scratch / "reports-warm"

        print("cold reproduce (empty store) ...")
        cold = _run_leg(store_dir, cold_reports, scratch / "cold.json")
        print(f"  {cold['elapsed_s']:.2f}s, "
              f"store {cold['store']['hits']} hits / "
              f"{cold['store']['misses']} misses, "
              f"{cold['store']['bytes_written'] / 1024:.0f} KiB written")

        print(f"warm reproduce (fresh interpreter, populated store, "
              f"best of {args.warm_repeats}) ...")
        warm = min(
            (_run_leg(store_dir, warm_reports, scratch / "warm.json")
             for _ in range(max(1, args.warm_repeats))),
            key=lambda leg: leg["elapsed_s"],
        )
        store = warm["store"]
        lookups = store["hits"] + store["misses"]
        hit_rate = store["hits"] / lookups if lookups else 0.0
        print(f"  {warm['elapsed_s']:.2f}s, "
              f"store {store['hits']} hits / {store['misses']} misses "
              f"({hit_rate:.0%}), "
              f"{store['bytes_read'] / 1024:.0f} KiB read")

        differing = _compare_reports(cold_reports, warm_reports)
        round_trip = _round_trip_divergence(scratch / "roundtrip-store")

    speedup = cold["elapsed_s"] / warm["elapsed_s"]
    # A CI-restored store makes the "cold" leg warm-start too (its store
    # hits are nonzero); cold ~= warm then, so the speedup floor is
    # meaningless and only the bitwise checks are enforced.
    prepopulated = cold["store"]["hits"] > 0
    summary = {
        "cold_s": cold["elapsed_s"],
        "warm_s": warm["elapsed_s"],
        "warm_speedup": speedup,
        "min_speedup_floor": args.min_speedup,
        "cold_store_prepopulated": prepopulated,
        "cold_store": cold["store"],
        "warm_store": store,
        "warm_store_hit_rate": hit_rate,
        "reports_identical": not differing,
        "differing_reports": differing,
        "round_trip": round_trip,
        "max_rel_divergence": round_trip["max_rel_divergence"],
    }
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"\nwarm speedup {speedup:.1f}x "
          f"(cold {cold['elapsed_s']:.2f}s -> warm {warm['elapsed_s']:.2f}s), "
          f"store hit rate {hit_rate:.0%}, "
          f"round-trip divergence {round_trip['max_rel_divergence']:.1e} "
          f"over {round_trip['kernels']} kernels -> {args.out}")

    failed = False
    if differing:
        print(f"FAIL: {len(differing)} report(s) differ between cold and "
              f"warm runs: {', '.join(differing)}", file=sys.stderr)
        failed = True
    if round_trip["max_rel_divergence"] != 0.0:
        print("FAIL: store round trip is not bitwise identical "
              f"({round_trip['max_rel_divergence']:.3e})", file=sys.stderr)
        failed = True
    if speedup < args.min_speedup:
        if prepopulated:
            print(f"note: speedup floor waived - the store was already "
                  f"populated ({cold['store']['hits']} cold-leg hits), so "
                  f"both legs warm-started")
        else:
            print(f"FAIL: warm speedup {speedup:.1f}x below the "
                  f"{args.min_speedup}x floor", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
