"""Host-speed probe: a fixed pure-Python task timed next to every query.

The benchmark runs on shared virtual machines whose speed for one thread
moves by a factor of two within seconds, far more than any change the
benchmark should detect.  ``probe()`` times a fixed task that never calls
lipfree (Bellman-Ford in ``Fraction`` arithmetic from three sources of a
fixed 12-node graph, the kind of work lipfree's exact solvers do) right
before and right after each query.  ``scaled(wall, before, after)`` turns
a wall time into the time it would have taken on a host where the probe
takes ``REFERENCE_S``: a slow moment slows the probe and the query alike,
so the ratio keeps what the query itself costs.  The benchmark prints the
raw wall-clock figures too.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

#: Probe time on the reference host, a shared 2-vCPU x86-64 VM near its
#: fast state (Python 3.11).  Scaled times read in seconds of that host.
REFERENCE_S = 0.0008
#: Repetitions of the task in one probe; the probe reports their median.
REPS = 3

_N = 12
_rng = random.Random(20240315)
_EDGES = [
    (u, v, Fraction(_rng.randint(1, 48), 12))
    for u in range(_N)
    for v in range(_N)
    if u != v and _rng.random() < 0.4
]


def _shortest(source: int) -> Fraction:
    dist = [None] * _N
    dist[source] = Fraction(0)
    for _ in range(_N - 1):
        changed = False
        for u, v, w in _EDGES:
            du = dist[u]
            if du is None:
                continue
            cand = du + w
            dv = dist[v]
            if dv is None or cand < dv:
                dist[v] = cand
                changed = True
        if not changed:
            break
    return sum(d for d in dist if d is not None)


def _task() -> Fraction:
    return sum(_shortest(s) for s in range(3))


_EXPECTED = _task()


def probe() -> float:
    """Median wall time of ``REPS`` runs of the fixed task."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        result = _task()
        times.append(time.perf_counter() - t0)
        if result != _EXPECTED:
            raise AssertionError("host-speed probe gave a different answer")
    return statistics.median(times)


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` seconds measured between two probes, in reference seconds."""
    return wall * REFERENCE_S / ((before + after) / 2)


def timed(fn):
    """``(fn(), wall seconds, reference seconds)``, with a probe on each side."""
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, scaled(wall, before, probe())
