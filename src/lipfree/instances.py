"""Seeded generators for desk-scale test instances.

Random metric spaces are built as shortest-path closures of random
positive rational edge weights, so all four axioms hold exactly; all
randomness flows through explicit seeds for reproducibility.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .metric import FiniteMetricSpace, Functional, LipschitzPotential, validate_metric
from .monotonicity import PairSet
from .transport import PairMeasure, optimal_coupling


def random_space(
    n: int, seed: int, *, exact: bool = True, max_weight: int = 12
) -> FiniteMetricSpace:
    """Metric closure of a random weighted complete graph on n points; the
    weights are multiples of 1/12, so the closure runs on int64 numerators."""
    rng = random.Random(seed)
    dens = (1, 2, 3, 4)
    w = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            w[i, j] = w[j, i] = rng.randint(1, max_weight) * (12 // rng.choice(dens))
    for k in range(n):
        np.minimum(w, w[:, k, None] + w[None, k, :], out=w)
    return validate_metric([[Fraction(int(v), 12) for v in row] for row in w], exact=exact)


def line_space(positions: Sequence) -> FiniteMetricSpace:
    """Exact points on the real line; position 0 first (the base point)."""
    pos = [Fraction(p) for p in positions]
    rows = [[abs(a - b) for b in pos] for a in pos]
    return validate_metric(rows, exact=True)


def star_space(leaves: int) -> FiniteMetricSpace:
    """An exact center (the base point) with leaves at distance 1, so 2 apart."""
    n = leaves + 1
    rows = [[0 if i == j else (1 if 0 in (i, j) else 2) for j in range(n)] for i in range(n)]
    return validate_metric(rows, exact=True)


def tree_space(vertices: int, points: int, seed: int, *, exact: bool = True):
    """A random weighted tree's distances restricted to ``points`` of its
    ``vertices`` vertices, with the tree: ``(space, (parent, weight, vertex))``.

    Vertex v > 0 hangs from a uniformly random earlier vertex ``parent[v]``
    by an edge of weight ``weight[v]`` = k/q, k in 1..12 and q in 1..4
    (``parent[0]`` is None and ``weight[0]`` 0).  Point 0, the base point, is
    vertex 0, and the other points are a random sample of the other
    vertices in random order: ``vertex[i]`` is the vertex of point i.  The
    vertices left out are Steiner points.
    """
    if not 1 <= points <= vertices:
        raise ValueError(f"need 1 <= points <= vertices, got {points} and {vertices}")
    rng = random.Random(seed)
    parent = [None] + [rng.randrange(v) for v in range(1, vertices)]
    weight = [Fraction(0)] + [Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4))) for _ in range(1, vertices)]
    vertex = [0] + rng.sample(range(1, vertices), points - 1)
    return _tree_space(parent, weight, vertex, exact), (parent, weight, vertex)


def _tree_space(parent, weight, vertex, exact: bool) -> FiniteMetricSpace:
    """The path metric of a tree, given with ``parent[v] < v`` and weights
    that are multiples of 1/12, on the vertices ``vertex``.  The weight of
    the edges a point and a second point share on their ways to vertex 0 is
    the depth of their meeting vertex: one product of the points' ancestor
    rows."""
    depth = [0] * len(parent)
    for v in range(1, len(parent)):
        depth[v] = depth[parent[v]] + int(weight[v] * 12)
    above = np.zeros((len(vertex), len(parent)), dtype=np.int64)  # 1 on each edge from a point to vertex 0
    for i, v in enumerate(vertex):
        while v:
            above[i, v] = 1
            v = parent[v]
    shared = (above * [int(w * 12) for w in weight]) @ above.T
    d = np.array([depth[v] for v in vertex])
    w = d[:, None] + d[None, :] - 2 * shared
    return validate_metric([[Fraction(int(v), 12) for v in row] for row in w], exact=exact)


def random_functional(
    space: FiniteMetricSpace,
    seed: int,
    *,
    max_support: Optional[int] = None,
) -> Functional:
    """Random signed combination of point evaluations with small rational
    coefficients; never supported at the base point."""
    rng = random.Random(seed)
    points = [i for i in space.points if i != 0]
    cap = len(points) if max_support is None else min(max_support, len(points))
    size = rng.randint(1, cap)
    support = rng.sample(points, size)
    coeffs = {}
    for i in support:
        num = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        den = rng.choice([1, 2, 3])
        coeffs[i] = Fraction(num, den)
    return Functional(coeffs, space)


def random_potential(space: FiniteMetricSpace, seed: int) -> LipschitzPotential:
    """Random potential (no Lipschitz normalization), zero at the base."""
    rng = random.Random(seed)
    vals = [Fraction(0)] + [
        Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4]))
        for _ in range(space.n - 1)
    ]
    return LipschitzPotential.build(vals, space)


def random_pair_set(space: FiniteMetricSpace, seed: int, size: int) -> PairSet:
    """Uniformly random ordered pairs, duplicates possible."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(size):
        x = rng.randrange(space.n)
        y = rng.randrange(space.n)
        while y == x:
            y = rng.randrange(space.n)
        pairs.append((x, y))
    return PairSet.of(pairs, space)


def monotone_pair_set(space: FiniteMetricSpace, seed: int) -> PairSet:
    """Support of an emitted optimal coupling: cyclically monotone by the
    optimality criterion (independently certified in the test suite)."""
    phi = random_functional(space, seed)
    return PairSet.of(optimal_coupling(phi, space).coupling.support, space)


def random_pair_measure(
    space: FiniteMetricSpace,
    seed: int,
    *,
    size: int = 4,
    monotone: Optional[bool] = None,
    signed: bool = False,
) -> PairMeasure:
    """Random masses on random pairs, or on a monotone support when asked."""
    rng = random.Random(seed)
    if monotone:
        pairs = list(monotone_pair_set(space, seed).deduplicated())
    else:
        pairs = list(random_pair_set(space, seed, size).deduplicated())
    mass = {}
    for p in pairs:
        num = rng.randint(1, 8)
        if signed and rng.random() < 0.5:
            num = -num
        mass[p] = Fraction(num, rng.choice([1, 2, 4]))
    return PairMeasure(mass, space)
