"""Machine-speed correction.

On a shared machine the speed of one core drifts by up to half from second
to second and from minute to minute (another tenant's load on the same
physical core), and an op's wall and CPU time both drift with it.  The
benchmark therefore times a fixed reference routine right before and right
after every op, and scales each op's time to the speed at which the routine
takes REF_S seconds:

    corrected = measured * REF_S / (mean reference time near the op)

"Near" is the op's span widened on each side by its own length, and by at
least WINDOW_S: a long op is compared with the machine's speed over a
stretch as long as itself, a short one with the timings of its neighbours.
The routine is pure Python in the style of chromcat's inner loops
(permutation products looked up in a dict, row reduction mod p, products of
sparse polynomials held in dicts).  It is part of the benchmark, not of
chromcat, so a change to chromcat moves the corrected times and a change in
the machine's speed mostly does not.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Best time of reference() on an otherwise idle core of a 2-core x86-64
# machine with Python 3.11; corrected times are seconds at that speed.
REF_S = 0.0011
REPEATS = 3
WINDOW_S = 0.2

_P = (1, 2, 3, 4, 5, 6, 7, 0)
_Q = (1, 0, 2, 3, 4, 5, 6, 7)


def reference():
    seen = {}
    x = tuple(range(8))
    for i in range(900):
        x = tuple(x[j] for j in (_P if i % 3 else _Q))
        seen[x] = seen.get(x, 0) + 1
    p = 7
    rows = [[((16 * i + j) * 1103515245 + 12345) % 2 ** 31 % p for j in range(16)]
            for i in range(16)]
    rank = 0
    for col in range(16):
        pivot = next((r for r in range(rank, 16) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(16):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    f = {(i, 6 - i): i + 1 for i in range(7)}
    g = dict(f)
    for _ in range(4):
        h = {}
        for (a, b), c in f.items():
            for (d, e), k in g.items():
                h[a + d, b + e] = (h.get((a + d, b + e), 0) + c * k) % p
        g = {k: v for k, v in h.items() if v}
    return len(seen), rank, len(g)


class Timeline:
    """The reference timings of one phase, by the time each ended."""

    def __init__(self):
        self.at = []
        self.seconds = []

    def sample(self):
        """Time reference() REPEATS times back to back."""
        for _ in range(REPEATS):
            start = time.perf_counter()
            reference()
            end = time.perf_counter()
            self.at.append(end)
            self.seconds.append(end - start)

    def correct(self, start, end):
        """The seconds from ``start`` to ``end``, scaled to the speed at
        which reference() takes REF_S.  Needs a sample taken right before
        ``start`` or right after ``end``."""
        widen = max(end - start, WINDOW_S)
        lo = bisect.bisect_left(self.at, start - widen)
        hi = bisect.bisect_right(self.at, end + widen)
        return (end - start) * REF_S / statistics.fmean(self.seconds[lo:hi])
