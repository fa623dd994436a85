#!/usr/bin/env python3
"""Compare the compiled and pure-Python arithmetic kernels.

Two measurements per kernel:

* raw kernel throughput on the omit-one invariant bundle over a census
  universe (the hot loop of census runs and the identity suite), calling
  each implementation directly;
* an end-to-end census run, with the per-tuple cache cleared so each
  kernel does its own work.  The pure-Python census patches
  ``backend.invariant_core`` to the exact kernel for its duration.

The compiled kernel is measured only when ``brieskorn._speedups`` is built.

Usage: python benchmarks/bench_backends.py [--n 4] [--max 12] [--repeats 3]
"""

from __future__ import annotations

import argparse
import time
from itertools import combinations_with_replacement

from brieskorn import backend
from brieskorn import tuples as tp
from brieskorn.census import CensusSpec, run_census


def time_best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4, help="tuple length (default 4)")
    parser.add_argument("--max", type=int, default=12, help="largest exponent (default 12)")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (default 3)")
    args = parser.parse_args()

    universe = list(combinations_with_replacement(range(1, args.max + 1), args.n))
    spec = CensusSpec(length=args.n, max_exponent=args.max)
    print(f"universe: {len(universe)} tuples (n={args.n}, exponents 1..{args.max})")
    # name -> (raw kernel, what backend.invariant_core is during the census)
    kernels = {"python": (backend.exact_invariant_core, backend.exact_invariant_core)}
    if backend.active_backend() == "c":
        from brieskorn import _speedups

        kernels["c"] = (_speedups.invariant_core, backend.invariant_core)
    print(f"kernels available: {', '.join(sorted(kernels))}")
    print()

    dispatcher = backend.invariant_core
    results: dict[str, tuple[float, float]] = {}
    for name, (raw, in_census) in sorted(kernels.items()):

        def kernel_pass():
            for entries in universe:
                raw(entries)

        kernel_time = time_best(kernel_pass, args.repeats)

        def census_pass():
            tp._core.cache_clear()
            run_census(spec)

        backend.invariant_core = in_census
        try:
            census_time = time_best(census_pass, args.repeats)
        finally:
            backend.invariant_core = dispatcher
        results[name] = (kernel_time, census_time)
        rate = len(universe) / kernel_time
        print(
            f"{name:>6}: kernel {kernel_time * 1e3:8.2f} ms "
            f"({rate:10.0f} tuples/s)   census {census_time * 1e3:8.2f} ms"
        )

    tp._core.cache_clear()
    if {"c", "python"} <= results.keys():
        k_speedup = results["python"][0] / results["c"][0]
        c_speedup = results["python"][1] / results["c"][1]
        print()
        print(f"compiled kernel speedup: {k_speedup:.1f}x raw, {c_speedup:.2f}x census")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
