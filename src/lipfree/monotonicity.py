"""Cyclical-monotonicity certification and extremal-potential synthesis.

A set of pairs C is cyclically monotone when no permutation rearrangement
of targets can lower the total distance.  Encoding each pair as a node of
a complete digraph with arc weight w(i -> j) = d(x_i, y_j) - d(x_i, y_i)
turns that into the absence of negative cycles, which Bellman-Ford
decides with an explicit certificate either way.  For monotone C the dual
object is an extremal potential: a 1-Lipschitz function with
f(x) - f(y) = d(x, y) on every pair, built from a chain formula as a
negated shortest-path distance from a fixed anchor pair.  In exact mode
both come from one min-plus fixpoint on the lattice (``_min_plus_fixpoint``);
the Bellman-Ford core names the cycle of a set that does not settle, and
answers every set in float mode.

In float mode, with eps = FLOAT_CYCLE_EPS * max(1, largest distance), a
negative verdict needs a cycle of k pairs whose weight is below -k * eps,
and the reported cycle always has slack below -eps; cycles of zero weight
up to round-off count as monotone.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import Error, InternalError
from .metric import FiniteMetricSpace, LipschitzPotential, _grid_rows, _int_dtype, _pair_distances, _pinned_envelope
from .metric import check_pair
from .numerics import Number, coerce, left_sum

Pair = Tuple[int, int]

#: Float-mode cycle threshold per unit of the largest distance (``_cycle_eps``).
FLOAT_CYCLE_EPS = 1e-12

BRUTE_FORCE_LIMIT = 8


class EmptySet(Error):
    """The operation needs at least one pair."""


class TooLarge(Error):
    """The brute-force oracle refuses sets with more than 8 pairs."""


class NotMonotone(Error):
    """Raised with the negative-cycle certificate attached."""

    def __init__(self, certificate: "CycleCertificate"):
        super().__init__(f"pair set is not cyclically monotone (slack {certificate.slack})")
        self.certificate = certificate


@dataclass(frozen=True)
class PairSet:
    """Ordered list of pairs (x, y), x != y; duplicates allowed."""

    pairs: Tuple[Pair, ...]

    @classmethod
    def of(cls, pairs: Sequence[Pair], space: FiniteMetricSpace) -> "PairSet":
        pairs = tuple(map(tuple, pairs))
        for x, y in pairs:
            check_pair(x, y, space.n)
        return cls(pairs)

    def deduplicated(self) -> Tuple[Pair, ...]:
        return tuple(sorted(set(self.pairs)))

    def __len__(self):
        return len(self.pairs)


@dataclass(frozen=True)
class CycleCertificate:
    """Either a monotonicity verdict or an explicit violating cycle.

    ``cycle`` lists pairs in cycle order; its slack is the (negative)
    amount by which rotating the targets beats keeping them.
    """

    monotone: bool
    cycle: Optional[Tuple[Pair, ...]] = None
    slack: Optional[Number] = None


def _lattice_pair_graph(C: PairSet, space: FiniteMetricSpace):
    """(nodes, W, scale): the distinct pairs of C and their pair graph's
    weights ``W = a[xs][:, ys] - a[xs, ys][:, None]`` on ``space.grid``,
    exact by the dtype rule of ``_int_dtype``, or float64 in float mode."""
    nodes = C.deduplicated()
    a, scale = space.grid
    xs, ys = [x for x, _ in nodes], [y for _, y in nodes]
    with np.errstate(invalid="ignore"):  # inf - inf is nan, as Python floats give it
        weight = a[np.ix_(xs, ys)] - a[xs, ys][:, None]
    return nodes, weight, scale


def pair_graph(C: PairSet, space: FiniteMetricSpace):
    """Complete digraph on the distinct pairs of C.

    Returns (nodes, weight) where weight[i][j] = d(x_i, y_j) - d(x_i, y_i).
    C is cyclically monotone iff this graph has no negative cycle.  The
    weights are ``_lattice_pair_graph``'s as nested lists (``_grid_rows``).
    """
    nodes, weight, scale = _lattice_pair_graph(C, space)
    return nodes, _grid_rows(weight, scale, space.exact)


def cycle_slack(cycle: Sequence[Pair], space: FiniteMetricSpace) -> Number:
    """Re-evaluate a cycle against the definition: the rotated-target cost
    minus the original cost, summed over the cycle, one difference per
    pair added left to right from 0."""
    rotated = [(x, y) for (x, _), (_, y) in zip(cycle, cycle[1:] + cycle[:1])]
    terms = map(operator.sub, _pair_distances(rotated, space), _pair_distances(cycle, space))
    return left_sum(terms, coerce(0, space.exact))


def _cycle_eps(space: FiniteMetricSpace) -> Number:
    """Slack a violating cycle must fall below; in float mode it scales with
    the distances, as the round-off of their sums does."""
    return 0 if space.exact else FLOAT_CYCLE_EPS * max(1.0, float(space.grid[0].max()))


def _min_plus_fixpoint(weight: np.ndarray, dist: np.ndarray) -> Optional[np.ndarray]:
    """Shortest walks from ``dist`` on the lattice pair graph ``weight``,
    or None when it has a negative cycle; exact, so free of any order.

    Repeats the Jacobi step ``dist[j] = min over i of dist[i] + weight[i, j]``
    (Karp's min-plus step, 1978; the zero diagonal keeps ``dist[j]``) until
    a round changes nothing, at most n rounds: no negative cycle admits such
    a fixpoint, and without one n - 1 arcs reach every shortest distance.
    Sums of n + 1 weights run in the dtype ``_int_dtype`` picks for them."""
    weight = weight.astype(_int_dtype(int(np.abs(weight).max()), len(weight) + 1), copy=False)
    dist = dist.astype(weight.dtype)
    for _ in range(len(weight)):
        step = (dist[:, None] + weight).min(axis=0)
        if np.array_equal(step, dist):
            return dist
        dist = step
    return None


def _bellman_ford(weight, dist):
    """Relax every arc of the complete digraph ``weight`` in place, for at
    most n rounds, stopping early after a round that changes nothing.  Its
    Gauss-Seidel order decides which negative cycle ``pred`` holds, so
    violating certificates come from here, and so do float answers, whose
    sums in ``_min_plus_fixpoint``'s order would round differently.

    Returns (dist, pred, flagged).  ``flagged`` alone carries the verdict:
    reset to -1 each round and set to each node relaxed, it ends the loop
    at -1 (no negative cycle) or names the last node relaxed in round n.
    With strict relaxations every cycle of the predecessor graph is negative
    (CLRS, Lemma 24.16), so walking ``pred`` from ``flagged`` finds one.
    The diagonal needs no skip: on the pair graph ``weight[i][i]`` is exactly
    0 (plus eps >= 0 in float mode), so no node relaxes itself.
    """
    n = len(weight)
    pred, flagged = [-1] * n, -1
    for _ in range(n):
        flagged = -1
        for i in range(n):
            di = dist[i]
            wi = weight[i]
            for j in range(n):
                nd = di + wi[j]
                if nd < dist[j]:
                    dist[j] = nd
                    pred[j] = i
                    flagged = j
        if flagged < 0:
            break
    return dist, pred, flagged


def check_cyclically_monotone(C: PairSet, space: FiniteMetricSpace) -> CycleCertificate:
    """Negative-cycle detection on the pair graph.

    Checking cycles suffices for all permutations because every finite
    permutation is a product of disjoint cycles.  An exact set whose
    ``_min_plus_fixpoint`` from zeros settles is monotone, with no
    ``Fraction`` built; otherwise ``_bellman_ford`` names a violating cycle,
    whose slack is recomputed from the distances.  In
    float mode every arc weight is first raised by
    eps = FLOAT_CYCLE_EPS * max(1, largest distance of the space), so that
    round-off cannot make a zero-weight cycle look negative at any scale: a
    cycle of k pairs counts as violating only when its weight lies below
    -k * eps, and a reported cycle always has slack below -eps.
    """
    if not C.pairs:
        return CycleCertificate(monotone=True)
    nodes, weight, scale = _lattice_pair_graph(C, space)
    if space.exact and _min_plus_fixpoint(weight, np.zeros(len(nodes), weight.dtype)) is not None:
        return CycleCertificate(monotone=True)
    weight = _grid_rows(weight, scale, space.exact)
    n = len(nodes)
    eps = _cycle_eps(space)
    if not space.exact:
        weight = [[w + eps for w in row] for row in weight]

    _, pred, flagged = _bellman_ford(weight, [coerce(0, space.exact)] * n)
    if flagged < 0:
        return CycleCertificate(monotone=True)

    # Walk predecessors n steps to land inside the cycle, then collect it.
    v = flagged
    for _ in range(n):
        v = pred[v]
    cycle_idx = [v]
    u = pred[v]
    while u != v:
        cycle_idx.append(u)
        u = pred[u]
    cycle_idx.reverse()
    cycle = tuple(nodes[i] for i in cycle_idx)
    slack = cycle_slack(cycle, space)
    if not slack < -eps:
        raise InternalError(f"Bellman-Ford returned a cycle with slack {slack}; cannot happen")
    return CycleCertificate(monotone=False, cycle=cycle, slack=slack)


def brute_force_monotone(C: PairSet, space: FiniteMetricSpace) -> bool:
    """Definition-verbatim oracle: every subset of pairs, every permutation."""
    base = C.deduplicated()
    if len(base) > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{len(base)} pairs exceeds the brute-force limit of {BRUTE_FORCE_LIMIT}")
    eps = _cycle_eps(space)
    for k in range(1, len(base) + 1):
        for subset in itertools.combinations(base, k):
            kept = left_sum(space.d(x, y) for x, y in subset)
            ys = [y for _, y in subset]
            for perm in itertools.permutations(range(k)):
                rearranged = left_sum(space.d(subset[t][0], ys[perm[t]]) for t in range(k))
                if rearranged < kept - eps:
                    return False
    return True


def build_extremal_potential(C: PairSet, space: FiniteMetricSpace) -> LipschitzPotential:
    """Constructive extremal potential for a cyclically monotone pair set.

    The chain value of a walk anchor -> p_1 -> ... -> p_n ending with the
    terminal arc d(x_n, z) - d(x_n, y_n) into a point z is minimized by a
    shortest-walk pass from the anchor (well-defined exactly when there is
    no negative cycle); its negation, max over pairs p of
    d(x_p, y_p) - dist(p) - d(x_p, z), shifted to vanish at the base point,
    is 1-Lipschitz and attains f(x) - f(y) = d(x, y) on every pair of C.

    Exact mode runs the pass as ``_min_plus_fixpoint``, float mode as
    ``_bellman_ford``; on the complete pair graph it fails to settle (in
    float mode, relaxes in its last round) exactly when a negative cycle
    exists.  Only then does ``check_cyclically_monotone`` run: for the
    ``NotMonotone`` certificate, or in float mode to clear a round-off flag.
    """
    if not C.pairs:
        raise EmptySet("cannot build an extremal potential for an empty pair set")
    nodes, weight, scale = _lattice_pair_graph(C, space)
    # Nodes are sorted, so index 0 is the lexicographically least pair, and
    # weight[0][0] == 0, so starting from its row is the state right after
    # the anchor's first relaxation from distance 0.
    if space.exact:
        dist = _min_plus_fixpoint(weight, weight[0])
        if dist is None:
            raise NotMonotone(check_cyclically_monotone(C, space))
        dist = _grid_rows(dist, scale, True)
    else:
        weight = weight.tolist()
        dist, _, flagged = _bellman_ford(weight, list(weight[0]))
        if flagged >= 0:
            certificate = check_cyclically_monotone(C, space)
            if not certificate.monotone:
                raise NotMonotone(certificate)
    kept = _pair_distances(nodes, space)
    return _pinned_envelope([x for x, _ in nodes], [d - dp for d, dp in zip(kept, dist)], space)


def verify_extremal(
    f: LipschitzPotential, C: PairSet, space: FiniteMetricSpace
) -> bool:
    """True iff f is in the unit ball and attains the distance on every pair."""
    cmp = space.cmp
    if cmp.gt(f.lip, 1):
        return False
    return all(cmp.eq(f.values[x] - f.values[y], d) for (x, y), d in zip(C.pairs, _pair_distances(C.pairs, space)))
