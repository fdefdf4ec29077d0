#!/usr/bin/env python3
"""Benchmark the alignment kernels on a random log.

Usage:
    python3 benchmarks/bench_kernels.py [--traces N] [--length L] [--repeats R]

Times the pairwise DP table once per backend (jitted and pure numpy) and
the all-pairs score matrix, which is one batched numpy kernel on every
backend.  The first jit call is excluded via a warmup run.  Also times
end-to-end stages (progressive alignment, pattern census, per-pattern
misalignment scoring) under the active backend.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from tracealign import EventLog, Trace, _kernels, extract_patterns, progressive_align
from tracealign.metrics import misalignment_score, most_frequent_pattern


def bench(func, *args, repeats: int = 5) -> float:
    func(*args)  # warmup (jit compilation on the numba path)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func(*args)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def random_log(n_traces: int, length: int, n_types: int = 14, seed: int = 0) -> EventLog:
    rng = np.random.default_rng(seed)
    alphabet = [f"act{i:02d}" for i in range(n_types)]
    return EventLog(
        [
            Trace(f"t{i}", [alphabet[int(c)] for c in rng.integers(0, n_types, size=length)])
            for i in range(n_traces)
        ]
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--traces", type=int, default=50)
    parser.add_argument("--length", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    log = random_log(args.traces, args.length)
    a, b = log.trace_codes[0], log.trace_codes[1]
    print(f"log: {args.traces} traces x {args.length} activities, backend={_kernels.BACKEND}")

    fill_args = (a, b, 1.0, -1.0, 0.0)
    if not _kernels.using_numba():
        print("numba disabled or unavailable; timing the numpy path only")

    print(f"\n{'kernel':<24} {'numpy':>12} {'numba':>12} {'speedup':>9}")
    t_py = bench(_kernels._nw_fill_py, *fill_args, repeats=args.repeats)
    if _kernels.using_numba():
        t_jit = bench(_kernels._nw_fill_jit, *fill_args, repeats=args.repeats)
        print(f"{'nw_fill':<24} {t_py * 1e3:>10.2f}ms {t_jit * 1e3:>10.2f}ms {t_py / t_jit:>8.1f}x")
    else:
        print(f"{'nw_fill':<24} {t_py * 1e3:>10.2f}ms {'-':>12} {'-':>9}")
    t_scores = bench(
        _kernels.nw_scores, log.padded_codes, log.lengths, 1.0, -1.0, 0.0, repeats=args.repeats
    )
    print(f"{'nw_scores (all pairs)':<24} {t_scores * 1e3:>10.2f}ms  (batched numpy on every backend)")

    # End-to-end stages under the active backend.
    t_align = bench(progressive_align, log, repeats=max(1, args.repeats // 2))
    census = extract_patterns(log)
    t_census = bench(extract_patterns, log, repeats=max(1, args.repeats // 2))
    alignment = progressive_align(log)
    top = most_frequent_pattern(census)
    t_ms = bench(misalignment_score, alignment, top, repeats=args.repeats)
    print(f"\n{'stage (active backend)':<24} {'median':>12}")
    print(f"{'progressive_align':<24} {t_align * 1e3:>10.1f}ms")
    print(f"{'extract_patterns':<24} {t_census * 1e3:>10.1f}ms")
    print(f"{'misalignment_score':<24} {t_ms * 1e3:>10.2f}ms")


if __name__ == "__main__":
    main()
