"""Benchmark: the conv_trunc convolution kernel.

Times conv_trunc across sizes/coefficient magnitudes in both the
schoolbook and Kronecker regimes; the schoolbook/Kronecker crossover
``_SCHOOLBOOK_WORK_LIMIT`` in etaq.kernels was read off these cases.
End-to-end timings are in perfbench/ (python3 perfbench/run.py
--workload expand-deep).  Run:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

from __future__ import annotations

import random
import time

from etaq.kernels import conv_trunc


def timeit(fn, *args, repeat: int = 5) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_conv() -> None:
    rng = random.Random(0)
    cases = [
        ("small 32x32, 1-digit", 32, 32, 9),
        ("small 96x96, 1-digit", 96, 96, 9),
        ("mid 256x256, 20-digit", 256, 256, 10**20),
        ("large 1200x1200, 40-digit", 1200, 1200, 10**40),
        ("large 2400x2400, 60-digit", 2400, 2400, 10**60),
    ]
    print(f"{'case':30s} {'time':>12s}")
    for name, lx, ly, mag in cases:
        xs = [rng.randint(-mag, mag) for _ in range(lx)]
        ys = [rng.randint(-mag, mag) for _ in range(ly)]
        t = timeit(conv_trunc, xs, ys, lx + ly - 1)
        print(f"{name:30s} {t*1e3:10.2f}ms")


if __name__ == "__main__":
    print("conv_trunc (truncated integer convolution), best of 5:")
    bench_conv()
