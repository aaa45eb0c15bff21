"""Constructive generator for the nested set families I_{k,n}, the pair
families Gamma_n, and the bounded uniformly discrete metric they induce on
{1..N} (base point 1).

The families are infinite objects; this module materializes them up to a
declared horizon N and certifies their defining properties only there:

  (i)   k < min I_{k,n}
  (ii)  for fixed k the sets I_{k,n} are pairwise disjoint
  (iii) nesting: if k <= k' and I_{k,n} meets I_{k',n'} then the latter
        is contained in the former
  (iv)  p in I_{k,n} implies I_{p,q} is contained in I_{k,n}

Level 1 partitions {2, 3, ...} by the binary ruler: p belongs to slot
n = v2(p-1) + 1, where v2 is the 2-adic valuation.  Level m+1 follows the
recursive recipe: locate the deepest set I_{k0,n0} containing m+1 and
split its tail beyond m+1 with the same ruler.

The recipe's other step, descending to the deepest level already living
inside I_{k0,n0}, is vacuous for the ruler split.  Suppose some level a in
(k0, m] had I_{k0,n0} on its chain of parents.  The first level on that
chain whose parent is I_{k0,n0} splits the whole tail of I_{k0,n0} beyond
itself, m+1 included, so m+1 would lie in a deeper set, contradicting the
choice of k0.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .metric import FiniteMetricSpace, validate_metric
from .numerics import EXACT_SIZE_LIMIT, Number, coerce


def _v2(t: int) -> int:
    """2-adic valuation of a positive integer."""
    return (t & -t).bit_length() - 1


@dataclass(frozen=True)
class _Level:
    """Materialized data for one level k >= 2 of the family.

    ``elems`` maps each element of the parent set's tail (restricted to
    the horizon) to its 1-based position in the increasing enumeration of
    that tail; the element then belongs to slot n = v2(position) + 1.
    """

    k0: int
    n0: int
    elems: Dict[int, int]


@dataclass
class IFamily:
    """The family I_{k,n} materialized on {1..horizon} for k <= horizon."""

    horizon: int
    _levels: Dict[int, _Level] = field(default_factory=dict)

    @property
    def trace(self) -> List[Tuple[int, int, int]]:
        """Construction trace: (level, k0, n0), the level splitting I_{k0,n0}."""
        return [(k, lv.k0, lv.n0) for k, lv in sorted(self._levels.items())]

    def member(self, k: int, n: int, p: int) -> bool:
        """Whether p belongs to I_{k,n}; valid for p up to the horizon."""
        if k < 1 or n < 1:
            raise ValueError("family indices start at 1")
        if not 1 <= p <= self.horizon:
            raise ValueError(f"element {p} outside horizon {self.horizon}")
        return self.slot(k, p) == n

    def slot(self, k: int, p: int) -> Optional[int]:
        """The n with p in I_{k,n}, or None."""
        if not 1 <= p <= self.horizon:
            return None
        if k == 1:
            return _v2(p - 1) + 1 if p >= 2 else None
        level = self._levels.get(k)
        if level is None:
            return None
        t = level.elems.get(p)
        return None if t is None else _v2(t) + 1

    def members(self, k: int, n: int) -> Tuple[int, ...]:
        """Sorted elements of I_{k,n} up to the horizon."""
        if k == 1:
            return tuple(
                p for p in range(2, self.horizon + 1) if _v2(p - 1) + 1 == n
            )
        level = self._levels.get(k)
        if level is None:
            return ()
        return tuple(sorted(p for p, t in level.elems.items() if _v2(t) + 1 == n))


def build_i_family(N: int) -> IFamily:
    """Materialize the family on {1..N}, levels 1..N, with its trace."""
    if N < 2:
        raise ValueError("horizon must be at least 2")
    fam = IFamily(horizon=N)

    for m_plus_1 in range(2, N + 1):
        m = m_plus_1 - 1
        # Deepest existing set containing m+1.
        k0, n0 = 1, _v2(m_plus_1 - 1) + 1
        for k in range(m, 1, -1):
            n = fam.slot(k, m_plus_1)
            if n is not None:
                k0, n0 = k, n
                break
        # Split the tail of I_{k0,n0} beyond m+1 with the binary ruler.
        tail = [p for p in fam.members(k0, n0) if p > m_plus_1]
        elems = {p: t for t, p in enumerate(tail, start=1)}
        fam._levels[m_plus_1] = _Level(k0, n0, elems)

    return fam


def gamma_pairs(family: IFamily, n: int, N: int) -> Set[Tuple[int, int]]:
    """All pairs (k, p) with p in I_{k,n} and p <= N; every pair has k < p."""
    if family.horizon < N:
        raise ValueError(f"family horizon {family.horizon} below requested {N}")
    out: Set[Tuple[int, int]] = set()
    for k in range(1, N + 1):
        for p in family.members(k, n):
            if p <= N:
                out.add((k, p))
    return out


_HALF = Fraction(1, 2)
_ONE = Fraction(1)
_CW_LOCK = threading.Lock()
_CW_CACHE: List[Fraction] = [_ONE]  # the walk starts at 1, which is in range
_CW_STATE: List[Fraction] = [_ONE]


def rational_enumeration(n: int) -> Fraction:
    """n-th rational of [1/2, 1] in the Calkin-Wilf order (1-based).

    The Calkin-Wilf walk q -> 1/(2*floor(q) - q + 1) visits every positive
    rational exactly once; filtering to the interval keeps the enumeration
    injective and eventually total on [1/2, 1] and rational.
    """
    if n < 1:
        raise ValueError("enumeration index starts at 1")
    with _CW_LOCK:
        q = _CW_STATE[0]
        while len(_CW_CACHE) < n:
            q = 1 / (2 * (q.numerator // q.denominator) - q + 1)
            if _HALF <= q <= _ONE:
                _CW_CACHE.append(q)
        _CW_STATE[0] = q
        return _CW_CACHE[n - 1]


@dataclass
class ExoticMetric:
    """Bounded uniformly discrete metric on {1..N} with base point 1.

    d(x, x) = 0; d(2p, 2q+1) = d(2q+1, 2p) = the n-th enumerated rational
    whenever q lies in I_{p,n}; every other distance is 1/2.  Disjointness
    of the Gamma families makes the pattern collision-free, and all values
    lie in {0} union [1/2, 1] so the triangle inequality is automatic.
    """

    N: int
    family: IFamily

    def d(self, x: int, y: int) -> Fraction:
        if not (1 <= x <= self.N and 1 <= y <= self.N):
            raise ValueError(f"points must lie in 1..{self.N}")
        if x == y:
            return Fraction(0)
        if x % 2 == 1:
            x, y = y, x
        if x % 2 == 0 and y % 2 == 1:
            p, q = x // 2, (y - 1) // 2
            if p >= 1 and q >= 1:
                n = self.family.slot(p, q)
                if n is not None:
                    return rational_enumeration(n)
        return Fraction(1, 2)

    def as_space(
        self, *, exact: Optional[bool] = None, validate: bool = False
    ) -> FiniteMetricSpace:
        """The metric as a space: one ``slot`` lookup per pair (2p, 2q+1)."""
        N = self.N
        if exact is None:
            exact = N <= EXACT_SIZE_LIMIT
        m = np.full((N, N), coerce(_HALF, exact), dtype=object if exact else float)
        np.fill_diagonal(m, coerce(0, exact))
        values: Dict[int, Number] = {}
        for p in range(1, N // 2 + 1):
            for q in range(1, (N - 1) // 2 + 1):
                n = self.family.slot(p, q)
                if n is not None:
                    if n not in values:
                        values[n] = coerce(rational_enumeration(n), exact)
                    m[2 * p - 1, 2 * q] = m[2 * q, 2 * p - 1] = values[n]
        labels = [str(i) for i in range(1, N + 1)]
        rows = m.tolist()
        if validate:
            return validate_metric(rows, labels, exact=exact)
        return FiniteMetricSpace(tuple(labels), tuple(tuple(row) for row in rows), exact)


def exotic_metric(N: int, family: Optional[IFamily] = None) -> ExoticMetric:
    """Generate the metric on {1..N}; builds a family if none is supplied.

    Pattern lookups only touch elements up to N//2, so a family with at
    least that horizon suffices.
    """
    if N < 2:
        raise ValueError("need at least two points")
    needed = max(2, N // 2)
    if family is None:
        family = build_i_family(needed)
    elif family.horizon < needed:
        raise ValueError(f"family horizon {family.horizon} below required {needed}")
    return ExoticMetric(N=N, family=family)


def check_family_properties(
    family: IFamily, max_index: int, max_elem: int
) -> Dict[str, bool]:
    """Exhaustively verify properties (i)-(iv) on the given box.

    Indices k, k', n, n' range over 1..max_index and elements over
    1..max_elem (capped by the family horizon).
    """
    K = max_index
    E = min(max_elem, family.horizon)
    sets = {
        (k, n): set(p for p in family.members(k, n) if p <= E)
        for k in range(1, K + 1)
        for n in range(1, K + 1)
    }

    prop_min = all(
        p > k for (k, n), S in sets.items() for p in S
    )
    prop_disjoint = all(
        not (sets[(k, n)] & sets[(k, n2)])
        for k in range(1, K + 1)
        for n in range(1, K + 1)
        for n2 in range(n + 1, K + 1)
    )
    prop_nesting = True
    for k in range(1, K + 1):
        for k2 in range(k, K + 1):
            for n in range(1, K + 1):
                for n2 in range(1, K + 1):
                    if k == k2 and n == n2:
                        continue
                    a, b = sets[(k, n)], sets[(k2, n2)]
                    if a & b and not b <= a:
                        prop_nesting = False
    prop_descent = True
    for (k, n), S in sets.items():
        for p in S:
            for q in range(1, K + 1):
                sub = set(x for x in family.members(p, q) if x <= E)
                if not sub <= S:
                    prop_descent = False
    return {
        "min": prop_min,
        "disjoint": prop_disjoint,
        "nesting": prop_nesting,
        "descent": prop_descent,
    }


def check_gamma_properties(
    family: IFamily, max_n: int, max_elem: int
) -> Dict[str, bool]:
    """Gamma family checks: pairwise disjoint, x < y, level-1 covering."""
    E = min(max_elem, family.horizon)
    gammas = {n: gamma_pairs(family, n, E) for n in range(1, max_n + 1)}
    disjoint = all(
        not (gammas[n] & gammas[n2])
        for n in range(1, max_n + 1)
        for n2 in range(n + 1, max_n + 1)
    )
    ordered = all(k < p for g in gammas.values() for (k, p) in g)
    covered = set()
    n = 1
    while 2 ** (n - 1) + 1 <= E:  # level-1 slots that can have elements <= E
        covered |= set(family.members(1, n))
        n += 1
    covering = set(range(2, E + 1)) <= covered
    return {"disjoint": disjoint, "ordered": ordered, "covering": covering}
