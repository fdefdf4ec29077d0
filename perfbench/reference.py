"""Fixed reference work, timed next to every command to measure the machine's speed.

    python3 perfbench/reference.py

It starts an interpreter, imports numpy and runs the kinds of work the
package does: a dynamic program swept along anti-diagonals with small numpy
arrays, and a dict-heavy Python loop.  It does not import tracealign, so a
change to the package cannot change its time; it takes about a quarter of a
second.  The end-to-end ``*_ref`` metrics divide a command's wall time by the
time of this program, run just before and just after the command.
"""

import numpy as np


def main() -> float:
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(12):
        a = rng.integers(0, 8, 60)
        b = rng.integers(0, 8, 60)
        h = np.zeros((61, 61))
        for d in range(2, 121):
            i = np.arange(max(1, d - 60), min(60, d - 1) + 1)
            j = d - i
            h[i, j] = np.maximum(h[i - 1, j - 1] + (a[i - 1] == b[j - 1]), np.maximum(h[i - 1, j], h[i, j - 1]))
        total += h[-1, -1]
    counts: dict[int, int] = {}
    for k in range(150000):
        key = (k * 7919) % 100003
        counts[key] = counts.get(key, 0) + 1
    return total + len(counts)


if __name__ == "__main__":
    main()
