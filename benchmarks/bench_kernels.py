#!/usr/bin/env python3
"""Compare the numba word-law pair sweep against its pure-numpy twin.

Run:  python benchmarks/bench_kernels.py
The numpy path is also what FORMATIONLAB_NO_JIT=1 selects package-wide.
Subgroup closure has only a numpy kernel, so it is not compared here.
"""

from __future__ import annotations

import time

from formationlab import _kernels
from formationlab.corpus import build_group, order75_witness, order294_candidate, symmetric
from formationlab.groups import exponent


def time_call(func, *args, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        func(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def sweep_workload(table):
    e = exponent(table)
    pow_neg = _kernels.negative_power_table(table.mul, table.inv, e)

    def run(sweep):
        sweep(table.mul, table.inv, pow_neg, e)

    return run


def main() -> None:
    groups = {
        "S5 (order 120)": build_group(symmetric(5)),
        "C5^2:L3 (order 75)": build_group(order75_witness()),
        "C7^2:S3 (order 294)": build_group(order294_candidate()),
    }
    have_jit = hasattr(_kernels, "_brandl_sweep_jit")
    print(f"numba available: {have_jit}   package backend: "
          f"{'jit' if _kernels.JIT_ENABLED else 'numpy'}")
    print()
    print(f"{'workload':<42} {'numpy':>10} {'numba':>10} {'speedup':>9}")
    for name, table in groups.items():
        workload = sweep_workload(table)
        t_np = time_call(workload, _kernels.brandl_sweep_np)
        label = name + " word-law sweep"
        if have_jit:
            workload(_kernels._brandl_sweep_jit)  # compile outside the timer
            t_jit = time_call(workload, _kernels._brandl_sweep_jit)
            print(f"{label:<42} {t_np:>9.4f}s {t_jit:>9.4f}s {t_np / t_jit:>8.1f}x")
        else:
            print(f"{label:<42} {t_np:>9.4f}s {'-':>10} {'-':>9}")
    print()
    print("word-law sweep = all ordered pairs of the pair-termination scan")


if __name__ == "__main__":
    main()
