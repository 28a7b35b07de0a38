"""A fixed pure-Python computation that measures how fast the host runs now.

The benchmark's host is a few cores of a shared machine whose speed
drifts by 20-40% over minutes, the same way for every workload and for
interpreter start-up alike.  A timed run calls ``sample()`` before
every instance and divides its times by ``speed()`` of those samples,
so the times it reports are seconds on a host where ``work()`` takes
CALIBRATION_S.  The computation mixes what raagfp spends its time on:
sparse elimination over dict rows, hashing frozensets and rendering
JSON.  It never changes, so a faster program still shows as faster.
"""

from __future__ import annotations

import json
import random
import statistics
from time import perf_counter

CALIBRATION_S = 0.0075  # median of sample() on the 2-vCPU host the baselines were taken on
EXPECTED = (99, 1211, 12914)

_rng = random.Random(7)
_MATRIX = [{j: _rng.randrange(1, 3) for j in _rng.sample(range(100), 5)}
           for _ in range(100)]
_DOC = {"rows": [{"support": [f"v{j}" for j in range(i % 9)],
                  "fg": i % 2 == 0, "max_fp": i % 5} for i in range(200)]}


def work() -> tuple:
    """Rank of a fixed sparse GF(3) matrix, a set of frozensets and a
    JSON document; the result is always EXPECTED."""
    pivots = {}
    for row in map(dict, _MATRIX):
        while row:
            col = min(row)
            if col not in pivots:
                inv = 1 if row[col] == 1 else 2
                pivots[col] = {k: v * inv % 3 for k, v in row.items()}
                break
            factor = row[col]
            for k, v in pivots[col].items():
                x = (row.get(k, 0) - factor * v) % 3
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
    cells = {frozenset((i, j, i * j % 31)) for i in range(50) for j in range(i)}
    return len(pivots), len(cells), len(json.dumps(_DOC, sort_keys=True))


def sample() -> float:
    """Wall time of one work() call."""
    start = perf_counter()
    result = work()
    seconds = perf_counter() - start
    if result != EXPECTED:
        raise RuntimeError(f"calibration work returned {result}, not {EXPECTED}")
    return seconds


def speed(samples) -> float:
    """How many times slower the host ran than the reference host."""
    return statistics.median(samples) / CALIBRATION_S
