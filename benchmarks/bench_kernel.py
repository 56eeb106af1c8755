#!/usr/bin/env python3
"""Benchmark the compiled arithmetic kernel against the pure-Python
fallback.

Measures the raw kernel loops (integer convolution, monic remainder) and
two end-to-end workloads that sit on top of them: cyclotomic
multiplication at a few field orders, and the j-expansion. Run after
`pip install -e . --no-build-isolation`; if the extension failed to
build, both columns report the fallback.

    python benchmarks/bench_kernel.py [--repeat 5]
"""

import argparse
import random
import statistics
import time

from tatek._kernel import BACKEND, _fallback

try:
    from tatek._kernel import _speedups
except ImportError:
    _speedups = None


def best_of(fn, repeat):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times), statistics.median(times)


def bench_raw(impl, rng_seed=0):
    rng = random.Random(rng_seed)
    pairs = [([rng.randint(-10**9, 10**9) for _ in range(16)],
              [rng.randint(-10**9, 10**9) for _ in range(16)]) for _ in range(400)]
    mods = [([rng.randint(-10**6, 10**6) for _ in range(30)],
             [rng.randint(-3, 3) for _ in range(7)] + [1]) for _ in range(400)]

    def run():
        for a, b in pairs:
            impl.convolve(a, b)
        for c, f in mods:
            impl.monic_rem(c, f)

    return run


def bench_cyclotomic(rng_seed=1):
    # order-60 field: phi = 16, a realistic upper end for the engine
    from tatek.cyclotomic import Cyclotomic

    rng = random.Random(rng_seed)
    values = [Cyclotomic(60, {rng.randrange(60): rng.randint(-9, 9) for _ in range(6)})
              for _ in range(60)]

    def run():
        acc = Cyclotomic.one()
        for v in values:
            acc = acc * v + v
    return run


def bench_jseries():
    from tatek.moonshine import jseries

    def run():
        jseries(40)
    return run


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    print(f"active backend: {BACKEND}")
    rows = []

    impls = [("pure", _fallback)] + ([("compiled", _speedups)] if _speedups else [])
    for name, impl in impls:
        rows.append((f"raw kernel loops [{name}]", *best_of(bench_raw(impl), args.repeat)))

    # the high-level workloads use whichever backend is active; flip the
    # module-level bindings to time both without re-importing
    import tatek.cyclotomic as cyc_mod
    import tatek.series as series_mod

    saved = cyc_mod.convolve, cyc_mod.monic_rem, series_mod.convolve
    try:
        for name, impl in impls:
            cyc_mod.convolve, cyc_mod.monic_rem = impl.convolve, impl.monic_rem
            series_mod.convolve = impl.convolve
            rows.append((f"cyclotomic arithmetic, order 60 [{name}]",
                         *best_of(bench_cyclotomic(), args.repeat)))
            rows.append((f"j-expansion to q^40 [{name}]", *best_of(bench_jseries(), args.repeat)))
    finally:
        cyc_mod.convolve, cyc_mod.monic_rem, series_mod.convolve = saved

    width = max(len(r[0]) for r in rows)
    print(f"{'workload'.ljust(width)}  best (s)  median (s)")
    for label, best, median in rows:
        print(f"{label.ljust(width)}  {best:8.4f}  {median:10.4f}")
    if _speedups:
        pure = {r[0].rsplit(" [", 1)[0]: r[1] for r in rows if "[pure]" in r[0]}
        fast = {r[0].rsplit(" [", 1)[0]: r[1] for r in rows if "[compiled]" in r[0]}
        print()
        for key in pure:
            if key in fast and fast[key] > 0:
                print(f"speedup {key}: {pure[key] / fast[key]:.2f}x")


if __name__ == "__main__":
    main()
