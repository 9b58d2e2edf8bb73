"""A fixed reference kernel that measures how fast the machine is now.

On shared cores the speed of this process drifts by 15-20% over a few
seconds as other tenants come and go, far more than the changes the
benchmark must resolve. The kernel below does the same kinds of work as
the package (tuple building, set membership, sorting, small numpy
broadcasts over a working set of about a megabyte) on fixed data, and
its time tracks that drift closely: in probes, operation time divided
by the kernel time next to it varied by about 6% while operation time
alone varied by about 18%. A tight arithmetic loop tracked the drift
poorly and is not used.

The benchmark runs the kernel after every operation and reports each
time multiplied by REFERENCE_S over the kernel time around it: seconds
on the machine the benchmark was tuned on, at rest. The kernel is part
of the benchmark, so no change to the package can change it.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

# Median kernel time on the two-core shared x86-64 virtual machine the
# benchmark was tuned on, in a quiet period.
REFERENCE_S = 0.020


class Kernel:
    def __init__(self, size: int = 5000):
        rng = random.Random(0)
        self.rows = [tuple(rng.randrange(50) for _ in range(6))
                     for _ in range(size)]
        self.array = np.array(self.rows, dtype=np.int64)

    def seconds(self) -> float:
        """Wall time of one pass over the fixed data."""
        start = time.perf_counter()
        seen: set = set()
        acc = 0
        for row in self.rows:
            moved = tuple(x + 1 for x in row)
            if moved not in seen:
                seen.add(moved)
                acc += moved[0]
        acc += sorted(self.rows)[0][0]
        for i in range(0, len(self.array), 500):
            block = self.array[i:i + 500]
            acc += int(np.all(block[:, None, :] <= block[None, :50, :],
                              axis=2).sum())
        return time.perf_counter() - start

    def median_seconds(self, runs: int = 3) -> float:
        return statistics.median(self.seconds() for _ in range(runs))
