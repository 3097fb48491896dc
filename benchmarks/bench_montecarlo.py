#!/usr/bin/env python
"""Monte Carlo / noisy-batch benchmark: keyed noise at batch speed.

Two contracts of the launch-keyed noise RNG are measured and enforced:

* **Noisy batch speedup** — evaluating a kernel's full grid on a *noisy*
  platform through ``run_kernel_batch`` must stay an order of magnitude
  faster than the scalar per-launch loop, at **zero** divergence: every
  batch element is bitwise identical to the corresponding scalar launch
  (same keyed draw, same multiply).
* **CI-band stability** — the vectorized Monte Carlo engine must produce
  bitwise-reproducible per-seed samples run to run (the draws are pure
  functions of ``(seed, spec, iteration, config)``), so confidence bands
  are stable artifacts, not run-dependent estimates.

Results are written as machine-readable JSON (``BENCH_montecarlo.json``)::

    python benchmarks/bench_montecarlo.py                 # full grid
    python benchmarks/bench_montecarlo.py --stride 4 \\
        --min-speedup 5 --out /tmp/b.json                 # CI smoke form

CI runs the reduced-grid form as a smoke test; the committed
``BENCH_montecarlo.json`` is a full-grid run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

import numpy as np

from repro.core.baseline import BaselinePolicy
from repro.platform.hd7970 import make_hd7970_platform
from repro.runtime.montecarlo import MonteCarloEngine
from repro.workloads.registry import all_kernels, get_application

DEFAULT_KERNELS = (
    "MaxFlops.MaxFlops",
    "DeviceMemory.DeviceMemory",
    "Sort.BottomScan",
    "CoMD.AdvanceVelocity",
    "BPT.FindRange",
)

#: Noise fraction used throughout (the paper-plausible 5% run-to-run).
NOISE = 0.05


def bench_noisy_kernel(spec, configs, repeats: int) -> Dict:
    """Noisy scalar loop vs noisy batch for one kernel, same platform."""
    platform = make_hd7970_platform(noise_std_fraction=NOISE, seed=7)
    n = len(configs)

    t0 = time.perf_counter()
    scalar_results = [platform.run_kernel(spec, c) for c in configs]
    t_scalar = time.perf_counter() - t0

    t_batch = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        batch = platform.run_kernel_batch(spec, configs)
        t_batch = min(t_batch, time.perf_counter() - t0)

    # Equivalence: bitwise, not merely within tolerance — scalar indexes
    # the very draw vector the batch applies.
    worst = 0.0
    for i, scalar in enumerate(scalar_results):
        if scalar.time != float(batch.time[i]) or \
                scalar.energy != float(batch.energy[i]):
            worst = max(
                worst,
                abs(scalar.time - float(batch.time[i])) / scalar.time,
                abs(scalar.energy - float(batch.energy[i])) / scalar.energy,
            )

    return {
        "kernel": spec.name,
        "configs": n,
        "scalar_s": t_scalar,
        "batch_s": t_batch,
        "scalar_configs_per_s": n / t_scalar,
        "batch_configs_per_s": n / t_batch,
        "batch_speedup": t_scalar / t_batch,
        "max_rel_divergence": worst,
    }


def bench_montecarlo(seeds: int, repeats: int) -> Dict:
    """Band stability + throughput of the vectorized MC engine."""
    app = get_application("MaxFlops")

    def rollout():
        platform = make_hd7970_platform()
        engine = MonteCarloEngine(platform, NOISE, seeds)
        policy = BaselinePolicy(platform.config_space)
        t0 = time.perf_counter()
        run, = engine.rollout(app, [policy])
        return run, time.perf_counter() - t0

    first, t_first = rollout()
    t_best = t_first
    stable = True
    for _ in range(repeats):
        again, elapsed = rollout()
        t_best = min(t_best, elapsed)
        stable = stable and \
            np.array_equal(first.time_samples, again.time_samples) and \
            np.array_equal(first.energy_samples, again.energy_samples)

    ed2 = first.ed2
    return {
        "application": app.name,
        "seeds": seeds,
        "noise": NOISE,
        "rollout_s": t_best,
        "trials_per_s": seeds / t_best,
        "bands_stable": stable,
        "ed2_mean": ed2.mean,
        "ed2_std": ed2.std,
        "ed2_ci_half_width": ed2.half_width,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernels", nargs="*", default=list(DEFAULT_KERNELS),
                        help="qualified kernel names (default: 5 "
                             "representative kernels)")
    parser.add_argument("--stride", type=int, default=1, metavar="N",
                        help="evaluate every Nth grid configuration "
                             "(reduced grid for CI smoke; default: full)")
    parser.add_argument("--seeds", type=int, default=16,
                        help="Monte Carlo trial seeds (default: 16)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats for the fast paths (best-of)")
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="fail if the geomean noisy-batch speedup over "
                             "the noisy scalar loop falls below this floor")
    parser.add_argument("--out", default="BENCH_montecarlo.json",
                        help="output JSON path "
                             "(default: BENCH_montecarlo.json)")
    args = parser.parse_args(argv)

    if args.stride < 1:
        parser.error("--stride must be >= 1")
    configs = tuple(make_hd7970_platform().config_space)[:: args.stride]

    by_name = {k.base.name: k.base for k in all_kernels()}
    try:
        specs = [by_name[name] for name in args.kernels]
    except KeyError as err:
        parser.error(f"unknown kernel {err.args[0]!r}; "
                     f"known: {', '.join(sorted(by_name))}")

    rows: List[Dict] = []
    for spec in specs:
        row = bench_noisy_kernel(spec, configs, args.repeats)
        rows.append(row)
        print(f"{row['kernel']:28s} {row['configs']:4d} configs  "
              f"noisy scalar {row['scalar_configs_per_s']:9.0f}/s  "
              f"noisy batch {row['batch_configs_per_s']:11.0f}/s "
              f"({row['batch_speedup']:6.1f}x)  "
              f"div {row['max_rel_divergence']:.2e}")

    montecarlo = bench_montecarlo(args.seeds, args.repeats)
    print(f"{montecarlo['application']:28s} {montecarlo['seeds']:4d} trials  "
          f"{montecarlo['trials_per_s']:9.0f} trials/s  "
          f"ED2 {montecarlo['ed2_mean']:.4f} "
          f"±{montecarlo['ed2_ci_half_width']:.4f}  "
          f"stable {montecarlo['bands_stable']}")

    def geomean(values):
        product = 1.0
        for v in values:
            product *= v
        return product ** (1.0 / len(values))

    summary = {
        "grid_points": len(configs),
        "stride": args.stride,
        "noise": NOISE,
        "geomean_noisy_batch_speedup": geomean(
            [r["batch_speedup"] for r in rows]),
        "max_rel_divergence": max(r["max_rel_divergence"] for r in rows),
        "min_speedup_floor": args.min_speedup,
        "montecarlo": montecarlo,
        "kernels": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"\ngeomean noisy batch speedup "
          f"{summary['geomean_noisy_batch_speedup']:.1f}x, "
          f"max divergence {summary['max_rel_divergence']:.2e} "
          f"-> {args.out}")

    if summary["max_rel_divergence"] != 0.0:
        print("FAIL: noisy batch is not bitwise identical to noisy scalar",
              file=sys.stderr)
        return 1
    if summary["geomean_noisy_batch_speedup"] < args.min_speedup:
        print(f"FAIL: geomean noisy batch speedup "
              f"{summary['geomean_noisy_batch_speedup']:.1f}x below the "
              f"{args.min_speedup}x floor", file=sys.stderr)
        return 1
    if not montecarlo["bands_stable"]:
        print("FAIL: Monte Carlo bands are not reproducible run to run",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
