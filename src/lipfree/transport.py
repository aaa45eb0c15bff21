"""The finite Kantorovich-Rubinstein engine.

Computes free-space norms as min-cost transport between the positive and
negative parts of a functional (the base point absorbs any mass imbalance,
since the evaluation there is the zero functional), together with:

* an optimal coupling, found by successive shortest paths with node
  potentials so reduced costs stay nonnegative (``_solve_min_cost``: each
  path comes from a heap-ordered Dijkstra that stops at the sink it
  augments to, on the same numbers in both modes);
* the induced pair-measure representation (d times the coupling), whose
  total variation equals the norm;
* a dual 1-Lipschitz potential obtained from the final node potentials by
  the extension f(z) = max_i (f(x_i) - d(x_i, z)), shifted to vanish at
  the base point.

The emitted (coupling, potential) pair is self-certifying: the coupling
cost equals the potential's pairing with the functional, which pins both
sides of the duality independently of the solver's internals.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, Iterable, List, Mapping, Set, Tuple

from .errors import Error, InternalError
from .metric import (
    FiniteMetricSpace,
    Functional,
    LipschitzPotential,
    Molecule,
    _pair_distances,
    _pinned_envelope,
    check_pair,
    functionals_equal,
)
from .numerics import Number, coerce, left_sum

Pair = Tuple[int, int]

log = logging.getLogger(__name__)


class SignedMeasure(Error):
    """An operation that needs a positive measure got signed masses."""


class NotARepresentation(Error):
    """The measure does not represent the claimed functional."""


class PairMeasure:
    """Weighted set of ordered pairs (x, y), x != y.

    Nonnegative instances act as De Leeuw representations; reweighted by
    1/d they are transport couplings.  Stored masses are nonzero.
    """

    __slots__ = ("_mass",)

    def __init__(self, mass: Mapping[Pair, Number], space: FiniteMetricSpace | None = None):
        clean: Dict[Pair, Number] = {}
        for (x, y), m in mass.items():
            if space is None:
                check_pair(x, y)
            else:
                check_pair(x, y, space.n)
                m = coerce(m, space.exact)
            if m == 0:
                continue
            clean[(x, y)] = m
        self._mass = clean

    @classmethod
    def zero(cls) -> "PairMeasure":
        return cls({})

    @classmethod
    def dirac(cls, x: int, y: int, mass: Number = 1) -> "PairMeasure":
        return cls({(x, y): mass})

    @property
    def mass(self) -> Dict[Pair, Number]:
        return dict(self._mass)

    @property
    def signed(self) -> bool:
        return any(m < 0 for m in self._mass.values())

    @property
    def support(self) -> Tuple[Pair, ...]:
        return tuple(sorted(self._mass))

    def __getitem__(self, pair: Pair) -> Number:
        return self._mass.get(pair, 0)

    def __len__(self) -> int:
        return len(self._mass)

    def total_variation(self) -> Number:
        return left_sum(abs(m) for m in self._mass.values())

    def plus(self, other: "PairMeasure") -> "PairMeasure":
        merged = dict(self._mass)
        for p, m in other._mass.items():
            merged[p] = merged.get(p, 0) + m
        return PairMeasure(merged)

    def scaled(self, c: Number) -> "PairMeasure":
        return PairMeasure({p: c * m for p, m in self._mass.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, PairMeasure) and self._mass == other._mass

    def __repr__(self):
        return f"PairMeasure({self._mass!r})"


def reflect(mu: PairMeasure) -> PairMeasure:
    """Push forward along (x, y) -> (y, x); an involution."""
    return PairMeasure({(y, x): m for (x, y), m in mu._mass.items()})


def restrict(mu: PairMeasure, keep: Callable[[Pair], bool]) -> PairMeasure:
    """Drop all mass outside the given set of pairs.

    Restriction of an optimal representation stays optimal; that is a
    theorem about the objects, tested rather than assumed here.
    """
    return PairMeasure({p: m for p, m in mu._mass.items() if keep(p)})


def apply_representation(
    mu: PairMeasure, f: LipschitzPotential, space: FiniteMetricSpace
) -> Number:
    """Integrate the incremental quotients of f against the pair measure."""
    dists = _pair_distances(mu._mass, space)
    return left_sum(m * (f.values[x] - f.values[y]) / d for ((x, y), m), d in zip(mu._mass.items(), dists))


def functional_of(mu: PairMeasure, space: FiniteMetricSpace) -> Functional:
    """The functional represented by the measure: sum of mass(x,y) * m_xy."""
    return _functional_of(mu, _pair_distances(mu._mass, space), space)


def _functional_of(mu: PairMeasure, distances: Iterable[Number], space: FiniteMetricSpace) -> Functional:
    """``functional_of`` with the distances of ``mu``'s pairs, in its order, given."""
    coeffs: Dict[int, Number] = {}
    for ((x, y), m), d in zip(mu._mass.items(), distances):
        w = m / d
        coeffs[x] = coeffs.get(x, 0) + w
        coeffs[y] = coeffs.get(y, 0) - w
    return Functional(coeffs, space)


@dataclass(frozen=True)
class TransportResult:
    """Optimal cost with its three certificates: coupling, representation,
    and dual potential.  value = coupling cost = ||representation|| =
    <potential, functional> with lip(potential) <= 1."""

    value: Number
    coupling: PairMeasure
    representation: PairMeasure
    potential: LipschitzPotential


def _balanced_sides(phi: Functional, space: FiniteMetricSpace):
    """Split phi into supplies and demands, absorbing imbalance at the base."""
    coeffs = phi.coeffs
    sources = {i: c for i, c in coeffs.items() if c > 0}
    sinks = {i: -c for i, c in coeffs.items() if i not in sources}
    imbalance = phi.total()
    if imbalance > 0:
        sinks[0] = imbalance
    elif imbalance < 0:
        sources[0] = -imbalance
    return sources, sinks


def _solve_min_cost(
    sources: Dict[int, Number], sinks: Dict[int, Number], space: FiniteMetricSpace
):
    """Successive shortest augmenting paths on the bipartite residual graph.

    Sources are drained in increasing point order and ties among nearest
    sinks break toward the lowest index, so outputs are deterministic.
    Returns the flow and the final node potentials, a list indexed by point.

    Every table is a list indexed by point: ``left``, the one residual table
    of supply and demand still to route (the sides share no point, as the
    base point takes only the imbalance), ``pot``, ``carriers`` and the
    source flags; and, per augmentation, ``dist``, ``prev`` and ``done``,
    with ``dist[v]`` None until v is reached.

    Each augmentation runs Dijkstra from the first source with supply left
    over the reduced costs ``cost + pot[u] - pot[v]``.  That source is found
    by a pointer into the sorted sources that never moves back: a source's
    supply never rises, and ``eps_active`` is fixed for the solve.  Every
    arc costs d(source, sink): ``space.dist[s][t]`` forward, and
    ``-space.dist[s][t]`` on the backward arc t -> s, which exists only
    while s carries flow into t.  ``carriers[t]`` keeps those sources, so a
    settled sink relaxes only its own backward arcs.

    * Order: a heap of ``(key, dist, point)`` entries, the key being the
      distance or in exact mode its float, settles points by the least
      unsettled ``(dist[v], v)``: rounding is monotone, and a float tie
      falls back to the exact pair.  An entry whose point is already
      settled is stale and skipped.  Arcs into settled points are not
      relaxed, since nonnegative reduced costs cannot lower their distance.
    * Screen (exact mode): ``frows``, ``fpot`` and ``fdist`` shadow the
      sources' distances to the sinks, ``pot`` (refreshed in the potential
      update) and ``dist`` by ``float()``, within 2**-53 relative plus
      2**-1075.
      An arc into a reached point v is skipped, building no ``Fraction``,
      when ``fdu + fpot[u] + cost - fpot[v] - fdist[v] > margin``: then
      nd > dist[v], and strict < cannot fire.  Its operands' magnitudes
      sum to at most 5 * (D + max pot), D the largest distance, so the
      estimate errs by under 4 * 2**-53 times that plus 5 * 2**-1075, and
      ``margin`` is 2**-47 * (D + max pot) + 2**-1070.  A search converts
      numbers below 2 * (D + max pot), and an augmentation at most doubles
      D + max pot, so the screen stays on while D + max pot < 2**1020 and
      is off for the rest of the solve after; float mode has none.
    * Stop: ``cap`` is the distance of the least ``(dist, t)`` settled
      sink with demand left.  The search stops once the next entry lies
      above the cap.  Every point at or below the cap is settled by then,
      and every other point would settle above it, so a search run to
      exhaustion picks the same sink and path.  It also makes the same
      potential update: settled points add their distance, all others the
      cap.
    """
    zero = coerce(0, space.exact)
    n = space.n
    src = sorted(sources)
    snk = sorted(sinks)
    nodes = src + snk
    left: List[Number] = [sources.get(v, sinks.get(v, zero)) for v in range(n)]
    is_source = [v in sources for v in range(n)]
    flow: Dict[Pair, Number] = {}
    pot: List[Number] = [zero] * n
    carriers: List[Set[int]] = [set() for _ in range(n)]
    rows = space.dist
    clamp = not space.exact  # float round-off guard; exact mode never needs it
    # Float totals can disagree by a few ulps: a residue below this is spent.
    eps_active = 0 if space.exact else 1e-12 * (1.0 + float(max(left)))
    first = 0  # src[first] is the first source that may have supply left
    a, scale = space.grid
    screen = space.exact and int(a.max()) < 2**1020 * scale
    if screen:
        ftop, fpot = int(a.max()) / scale, [0.0] * n
        frows = {s: {t: float(rows[s][t]) for t in snk} for s in src}

    while True:
        while first < len(src) and not left[src[first]] > eps_active:
            first += 1
        if first == len(src):
            break
        s0 = src[first]
        if screen:  # every number converted in this search is below 2 * fmax
            fmax = ftop + max(fpot)
            screen = fmax < 2.0**1020
            margin = fmax * 2.0**-47 + 2.0**-1070

        # Dijkstra over reduced costs from s0, up to the cap.
        dist: List[Number | None] = [None] * n
        fdist = [0.0] * n
        prev: List[int] = [0] * n
        done = [False] * n
        dist[s0] = zero
        heap = [(0.0 if screen else zero, zero, s0)]
        best = None  # least (dist, t) over settled sinks with demand left
        while heap:
            fdu, du, u = heappop(heap)
            if best is not None and du > best[0]:
                break
            if done[u]:
                continue
            done[u] = True
            pu = pot[u]
            if is_source[u]:
                row, arcs, frow = rows[u], snk, screen and frows[u]
            else:
                if left[u] > eps_active and (best is None or (du, u) < best):
                    best = (du, u)
                row = arcs = {s: -rows[s][u] for s in carriers[u]}  # backward arc costs, in set order
                frow = screen and {s: -frows[s][u] for s in carriers[u]}
            fu = screen and fdu + fpot[u]
            for v in arcs:
                if done[v]:
                    continue
                dv = dist[v]
                if screen and dv is not None and fu + frow[v] - fpot[v] - fdist[v] > margin:
                    continue  # nd > dv, so strict < cannot fire
                rc = row[v] + pu - pot[v]
                if clamp and rc < 0:
                    rc = 0.0
                nd = du + rc
                if dv is None or nd < dv:
                    dist[v] = nd
                    prev[v] = u
                    fdist[v] = key = float(nd) if screen else nd
                    heappush(heap, (key, nd, v))

        if best is None:
            raise InternalError("transport network disconnected; cannot happen on a complete bipartite graph")
        cap, t0 = best

        # Walk the path back and find the bottleneck.
        path: List[Pair] = []
        v = t0
        while v != s0:
            u = prev[v]
            path.append((u, v))
            v = u
        path.reverse()
        amount = min(left[s0], left[t0])
        for u, v in path:
            if not is_source[u]:  # backward arc (sink u -> source v) carries flow (v, u)
                amount = min(amount, flow[(v, u)])
        for u, v in path:
            if is_source[u]:
                flow[(u, v)] = flow.get((u, v), zero) + amount
                carriers[v].add(u)
            else:
                flow[(v, u)] = flow[(v, u)] - amount
                if flow[(v, u)] == 0:
                    del flow[(v, u)]
                    carriers[u].discard(v)
        left[s0] -= amount
        left[t0] -= amount

        for v in nodes:
            pot[v] = pot[v] + (dist[v] if done[v] else cap)
            if screen:
                fpot[v] = float(pot[v])

    return flow, pot


def optimal_coupling(phi: Functional, space: FiniteMetricSpace) -> TransportResult:
    """Solve the transport problem for phi and emit all certificates."""
    if phi.is_zero():
        zero = coerce(0, space.exact)
        return TransportResult(
            zero,
            PairMeasure.zero(),
            PairMeasure.zero(),
            LipschitzPotential.build([zero] * space.n, space),
        )
    sources, sinks = _balanced_sides(phi, space)
    log.debug(
        "solving transport: %d sources, %d sinks, %d points",
        len(sources), len(sinks), space.n,
    )
    flow, pot = _solve_min_cost(sources, sinks, space)
    # Flows stay positive: the total variation is the coupling cost, in the same order.
    representation = PairMeasure({p: m * d for (p, m), d in zip(flow.items(), _pair_distances(flow, space))})
    # f(z) = max over sources x of (u(x) - d(x, z)), pinned at the base point.
    src = sorted(sources)
    potential = _pinned_envelope(src, [-pot[s] for s in src], space)
    return TransportResult(representation.total_variation(), PairMeasure(flow), representation, potential)


def free_norm(phi: Functional, space: FiniteMetricSpace) -> Number:
    """Norm of phi in the free space over M (optimal transport cost)."""
    return optimal_coupling(phi, space).value


def is_optimal(mu: PairMeasure, space: FiniteMetricSpace) -> bool:
    """Whether a positive measure is a norm-minimal representation, i.e.
    its total variation equals the norm of the functional it represents."""
    if mu.signed:
        raise SignedMeasure("optimality is defined for positive measures only")
    norm = free_norm(functional_of(mu, space), space)
    return space.cmp.eq(mu.total_variation(), norm)


def molecule_decomposition(
    phi: Functional, space: FiniteMetricSpace
) -> List[Tuple[Number, Molecule]]:
    """Write phi as a positive combination of molecules whose coefficients
    sum to its norm, read off the optimal representation."""
    result = optimal_coupling(phi, space)
    return [(m, Molecule(x, y)) for (x, y), m in sorted(result.representation.mass.items())]


def norming_functions_check(
    phi: Functional,
    f: LipschitzPotential,
    mu: PairMeasure,
    space: FiniteMetricSpace,
) -> bool:
    """Certify optimality: a unit-ball function with unit incremental
    quotient on the whole support of a positive representation norms phi
    and witnesses that the representation is optimal."""
    if mu.signed:
        raise SignedMeasure("norming certificates need a positive representation")
    cmp = space.cmp
    d = dict(zip(mu._mass, _pair_distances(mu._mass, space)))
    if not functionals_equal(_functional_of(mu, d.values(), space), phi, cmp):
        raise NotARepresentation("measure does not represent the functional")
    if cmp.gt(f.lip, 1):
        return False
    return all(cmp.eq((f.values[x] - f.values[y]) / d[x, y], 1) for x, y in mu.support)
