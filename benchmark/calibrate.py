"""A fixed pure-Python task that measures how fast the host runs right now.

Shared hosts change speed by tens of percent over minutes. run.py times
`calibrate()` in its own process, which never imports exacthom, while the
worker waits between two jobs, and around every set-up probe. It scales
the end-to-end times by REFERENCE_S / (median calibration time), so that
a run in a slow phase of the host reads about the same as one in a fast
phase. The task is the benchmark's own code and does not change with the
program under test, and a change to exacthom cannot reach the process
that times it.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import List

# Calibration time the scaled metrics are expressed at: a scaled second is
# a second on a host where one calibrate() call takes this long.
REFERENCE_S = 0.010
SAMPLE_COUNT = 3


def _rows(n: int, seed: int):
    """A fixed sparse integer matrix as row dicts (a linear congruential
    generator keeps it independent of the random module)."""
    x = seed
    rows = []
    for _ in range(n):
        row = {}
        for _ in range(6):
            x = (1103515245 * x + 12345) % 2 ** 31
            row[x % n] = x % 19 - 9 or 1
        rows.append(row)
    return rows


def _eliminate(rows):
    """Integer row reduction with gcd normalisation, dict rows, the same
    kind of work as exact sparse elimination."""
    rank = 0
    active = list(range(len(rows)))
    for col in sorted({c for r in rows for c in r}):
        pivot = next((i for i in active if rows[i].get(col)), None)
        if pivot is None:
            continue
        active.remove(pivot)
        rank += 1
        prow, pval = rows[pivot], rows[pivot][col]
        for i in active:
            coef = rows[i].get(col)
            if not coef:
                continue
            new = {c: pval * rows[i].get(c, 0) - coef * prow.get(c, 0)
                   for c in set(rows[i]) | set(prow)}
            new = {c: v for c, v in new.items() if v}
            g = 0
            for v in new.values():
                g = math.gcd(g, v)
            rows[i] = {c: v // g for c, v in new.items()} if g > 1 else new
    return rank


def calibrate() -> float:
    """Seconds one fixed calibration task takes now."""
    start = perf_counter()
    _eliminate(_rows(44, 7))
    return perf_counter() - start


def sample() -> List[float]:
    """SAMPLE_COUNT calibration times taken one after another: a single
    10 ms task is at the mercy of one time slice."""
    return [calibrate() for _ in range(SAMPLE_COUNT)]
