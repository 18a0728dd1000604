"""Benchmark: compiled vs pure-Python convolution kernels.

Times conv_trunc across sizes/coefficient magnitudes in both the
schoolbook and Kronecker regimes.  End-to-end timings are in
perfbench/ (python3 perfbench/run.py --workload expand-deep).  Run:

    python3 benchmarks/bench_kernels.py
"""

from __future__ import annotations

import random
import time

import etaq._kernels_py as kpy

try:
    import etaq._ckernels as kc
except ImportError:
    kc = None


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
    print(f"{'case':30s} {'python':>12s} {'cython':>12s} {'speedup':>9s}")
    for name, lx, ly, mag in cases:
        xs = [rng.randint(-mag, mag) for _ in range(lx)]
        ys = [rng.randint(-mag, mag) for _ in range(ly)]
        nout = lx + ly - 1
        t_py = timeit(kpy.conv_trunc, xs, ys, nout)
        if kc is None:
            print(f"{name:30s} {t_py*1e3:10.2f}ms {'n/a':>12s}")
            continue
        assert kpy.conv_trunc(xs, ys, nout) == kc.conv_trunc(xs, ys, nout)
        t_c = timeit(kc.conv_trunc, xs, ys, nout)
        print(f"{name:30s} {t_py*1e3:10.2f}ms {t_c*1e3:10.2f}ms {t_py/t_c:8.2f}x")


if __name__ == "__main__":
    print("conv_trunc (truncated integer convolution), best of 5:")
    bench_conv()
