"""Seeded inputs for the benchmark workloads, built without lipfree.

Every metric space is the shortest-path closure of random integer edge
weights over the common denominator ``DENOM``, computed on a numpy int64
matrix ``K`` (distance = K / DENOM).  Exact spaces pass the distances as
``Fraction(k, DENOM)`` and float (CSV) spaces as ``k / DENOM``, so a change
to lipfree's solvers can never change what a workload asks.  The oracle in
``gate.py`` works on the same integer matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

DENOM = 12
#: Edge weights before the closure are 1/12 .. 4.
MAX_WEIGHT = 48

Pair = Tuple[int, int]


def integer_metric(n: int, rng: np.random.Generator) -> np.ndarray:
    """Floyd-Warshall closure of a random symmetric positive integer matrix."""
    w = rng.integers(1, MAX_WEIGHT + 1, size=(n, n), dtype=np.int64)
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0)
    for k in range(n):
        np.minimum(w, w[:, k, None] + w[None, k, :], out=w)
    return w


def exact_rows(K: np.ndarray) -> List[List[Fraction]]:
    return [[Fraction(int(v), DENOM) for v in row] for row in K.tolist()]


def pq(x: Fraction) -> str:
    """Exact ``"p/q"`` string, the form the CLI reads losslessly."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class FunctionalSpec:
    """Coefficients on non-base points, plus an optional pi-window index:
    with ``window=k`` the query transports the adjoint image of the
    functional under the window ``pi(k)``."""

    coeffs: Dict[int, Fraction]
    window: Optional[int] = None


def random_coeffs(
    n: int, support: int, rng: np.random.Generator, dens: Tuple[int, ...]
) -> Dict[int, Fraction]:
    points = rng.choice(np.arange(1, n), size=support, replace=False)
    nums = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4], size=support)
    den = rng.choice(dens, size=support)
    return {int(p): Fraction(int(a), int(b)) for p, a, b in zip(points, nums, den)}


def daleth_weight(r: Fraction, level: int) -> Fraction:
    """Radial cutoff: 1 up to 2^level, 0 from 2^(level+1), linear between."""
    lo = Fraction(2) ** level
    if r <= lo:
        return Fraction(1)
    if r >= 2 * lo:
        return Fraction(0)
    return 2 - r / lo


def window_image(K: np.ndarray, coeffs: Dict[int, Fraction], k: int) -> Dict[int, Fraction]:
    """Coefficients of the adjoint image under pi(k) = daleth(k) - daleth(-k)."""
    out = {}
    for i, c in coeffs.items():
        r = Fraction(int(K[i, 0]), DENOM)
        w = daleth_weight(r, k) - daleth_weight(r, -k)
        if c * w != 0:
            out[i] = c * w
    return out


def functional_ladder(
    K: np.ndarray,
    supports: List[int],
    rng: np.random.Generator,
    dens: Tuple[int, ...],
    windowed: Tuple[int, ...] = (),
) -> List[FunctionalSpec]:
    """One functional per support size; the rungs listed in ``windowed``
    become pi-window adjoint images (window 1 or 2, redrawn until the
    image is not the zero functional)."""
    n = K.shape[0]
    out = []
    for rung, s in enumerate(supports):
        while True:
            coeffs = random_coeffs(n, s, rng, dens)
            if rung not in windowed:
                out.append(FunctionalSpec(coeffs))
                break
            k = int(rng.integers(1, 3))
            if window_image(K, coeffs, k):
                out.append(FunctionalSpec(coeffs, k))
                break
    return out


def geodesic_pairs(K: np.ndarray, z: int) -> List[Pair]:
    """All (x, y), x != y, with y on a geodesic from x to z.  d(., z) attains
    d(x, y) on each of them, so every subset is cyclically monotone."""
    n = K.shape[0]
    on = K[:, z, None] == K + K[None, :, z]
    return [(x, y) for x in range(n) for y in range(n) if x != y and on[x, y]]


def _geodesic_base(K: np.ndarray, size: int, rng: np.random.Generator):
    n = K.shape[0]
    while True:
        z = int(rng.integers(n))
        geo = geodesic_pairs(K, z)
        if len(geo) >= size:
            return z, geo


def monotone_set(K: np.ndarray, size: int, rng: np.random.Generator) -> List[Pair]:
    _, geo = _geodesic_base(K, size, rng)
    picks = rng.choice(len(geo), size=size, replace=False)
    return [geo[int(i)] for i in picks]


def reversed_geodesic_set(K: np.ndarray, size: int, rng: np.random.Generator) -> List[Pair]:
    """Geodesic set towards z holding (x, z) and (x, y) with y strictly
    between, where (x, y) is then reversed.  The two pairs (y, x), (x, z)
    form a violating 2-cycle, because d(x, z) = d(x, y) + d(y, z) gives
    d(y, z) < d(y, x) + d(x, z)."""
    while True:
        z, geo = _geodesic_base(K, size, rng)
        inner = [(x, y) for x, y in geo if y != z]
        if inner:
            break
    x, y = inner[int(rng.integers(len(inner)))]
    rest = [p for p in geo if p not in ((x, y), (x, z))]
    picks = rng.choice(len(rest), size=size - 2, replace=False)
    pairs = [rest[int(i)] for i in picks] + [(y, x), (x, z)]
    rng.shuffle(pairs)
    return pairs


def random_set(n: int, size: int, rng: np.random.Generator) -> List[Pair]:
    """Distinct uniformly random ordered pairs."""
    seen: Dict[Pair, None] = {}
    while len(seen) < size:
        x, y = (int(v) for v in rng.integers(n, size=2))
        if x != y:
            seen[(x, y)] = None
    return list(seen)


def lcm_of_denominators(values) -> int:
    out = 1
    for v in values:
        out = out * v.denominator // math.gcd(out, v.denominator)
    return out
