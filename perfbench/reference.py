"""Fixed reference job that measures how fast the host runs right now.

Usage: python perfbench/reference.py

It imports numpy and does a fixed mix of the kinds of work the vilenkin jobs
do: an interpreted Python loop, many small numpy calls on a tiny grid, and
a few bandwidth-bound passes over a 16 MB complex vector.  It does not import
vilenkin, so no change to the library changes its run time; only the host
does.  ``run.py`` runs it between job rounds and reports job and import times
relative to its wall time, which cancels most of the host's speed drift.
"""

import numpy as np


def main() -> int:
    total = 0
    for i in range(300_000):
        total += i * i

    rng = np.random.default_rng(0)
    small = rng.standard_normal((2, 3, 2, 3, 2, 3)) + 0j
    for _ in range(1_500):
        for axis in range(small.ndim):
            moved = np.moveaxis(small, axis, 0)
            small = np.moveaxis(np.tensordot(np.eye(moved.shape[0]), moved, axes=1), 0, axis)

    big = np.exp(2j * np.pi * rng.random(1 << 20))
    for _ in range(6):
        big = (big.reshape(-1, 2) @ np.array([[1, 1], [1, -1]]) * 0.5**0.5).reshape(-1)
    return 0 if np.isfinite(total + abs(small).sum() + abs(big).sum()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
