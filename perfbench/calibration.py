"""A fixed unit of work that measures the host's speed during a run.

The benchmark runs on shared virtual machines whose speed drifts by up to
a half within minutes (see README).  ``unit_seconds`` times one fixed
unit of work that does not touch netguard: breadth-first searches over a
dict-of-lists graph (interpreted Python, like ``graph`` and the per-step
loops) and many numpy calls on 8 x 8 matrices (call overhead as much as
arithmetic, like ``numerics`` on small networks), about half the time
each.  The benchmark runs one unit before every operation and scales
every reported time by ``REFERENCE_S`` over the run's mean unit time, so
times read as seconds at the speed where one unit takes ``REFERENCE_S``.
The unit's own time is outside every timed operation.

Import only after the BLAS thread variables are set.
"""

from collections import deque
from time import perf_counter

import numpy as np

REFERENCE_S = 0.010

_N = 400
_ADJ = {v: [(v * 7 + k * 13) % _N for k in range(6)] for v in range(_N)}
_M = np.random.default_rng(0).standard_normal((8, 8))


def _unit() -> int:
    reached = 0
    for src in range(0, _N, 20):
        seen = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in _ADJ[u]:
                if w not in seen:
                    seen[w] = u
                    queue.append(w)
        reached += len(seen)
    for _ in range(60):
        np.linalg.svd(_M)
        np.linalg.qr(_M)
        _M @ _M
    return reached


def unit_seconds() -> float:
    """Wall-clock time of one calibration unit."""
    t0 = perf_counter()
    _unit()
    return perf_counter() - t0
