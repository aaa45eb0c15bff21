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

By (ii) each element lies in at most one set per level, so the whole
family up to horizon H is one slot table: ``slots[k, p]`` is the n with p
in I_{k,n}, or 0.  It takes (H+1)^2 bytes as int8 (slots never exceed
log2(H) + 1).  The metric on {1..N} needs H = N//2, so the table is 1/32
of the float64 matrix ``ExoticMetric.as_space`` builds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .metric import FiniteMetricSpace, validate_metric
from .numerics import EXACT_SIZE_LIMIT, coerce


@dataclass
class IFamily:
    """The family I_{k,n} materialized on {1..horizon} for k <= horizon.

    ``_parents[k - 2]`` is the set I_{k0,n0} that level k splits, and
    ``_slots`` the read-only slot table they determine, so equality and
    repr leave the table out.
    """

    horizon: int
    _parents: Tuple[Tuple[int, int], ...]
    _slots: np.ndarray = field(compare=False, repr=False)

    @property
    def trace(self) -> List[Tuple[int, int, int]]:
        """Construction trace: (level, k0, n0), the level splitting I_{k0,n0}."""
        return [(k, k0, n0) for k, (k0, n0) in enumerate(self._parents, start=2)]

    def member(self, k: int, n: int, p: int) -> bool:
        """Whether p belongs to I_{k,n}; valid for p up to the horizon."""
        if k < 1 or n < 1:
            raise ValueError("family indices start at 1")
        if not 1 <= p <= self.horizon:
            raise ValueError(f"element {p} outside horizon {self.horizon}")
        return self.slot(k, p) == n

    def slot(self, k: int, p: int) -> Optional[int]:
        """The n with p in I_{k,n}, or None."""
        if not (1 <= k <= self.horizon and 1 <= p <= self.horizon):
            return None
        return int(self._slots[k, p]) or None

    def members(self, k: int, n: int) -> Tuple[int, ...]:
        """Sorted elements of I_{k,n} up to the horizon."""
        if n < 1 or not 1 <= k <= self.horizon:
            return ()
        return tuple(np.flatnonzero(self._slots[k] == n).tolist())


def build_i_family(N: int) -> IFamily:
    """Materialize the family on {1..N}, levels 1..N, with its trace."""
    if N < 2:
        raise ValueError("horizon must be at least 2")
    t = np.arange(N + 1)
    ruler = np.frexp(t & -t)[1].astype(np.int8)  # v2(t) + 1; ruler[0] = 0
    slots = np.zeros((N + 1, N + 1), dtype=np.int8)
    slots[1, 1:] = ruler[:-1]
    parents = []
    for level in range(2, N + 1):
        # The deepest existing set containing the level: its last nonzero
        # slot above it (level 1 holds every element from 2 on).
        k0 = int(np.flatnonzero(slots[:level, level])[-1])
        n0 = int(slots[k0, level])
        # Split the tail of I_{k0,n0} beyond the level with the ruler.
        tail = np.flatnonzero(slots[k0, level + 1 :] == n0) + level + 1
        slots[level, tail] = ruler[1 : len(tail) + 1]
        parents.append((k0, n0))
    slots.setflags(write=False)
    return IFamily(horizon=N, _parents=tuple(parents), _slots=slots)


def gamma_pairs(family: IFamily, n: int, N: int) -> Set[Tuple[int, int]]:
    """All pairs (k, p) with p in I_{k,n} and p <= N; every pair has k < p."""
    if family.horizon < N:
        raise ValueError(f"family horizon {family.horizon} below requested {N}")
    if n < 1 or N < 1:
        return set()
    k, p = np.nonzero(family._slots[: N + 1, : N + 1] == n)
    return set(zip(k.tolist(), p.tolist()))


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
        """The metric as a space: every pair (2p, 2q+1) in one assignment."""
        N = self.N
        if exact is None:
            exact = N <= EXACT_SIZE_LIMIT
        m = np.full((N, N), coerce(_HALF, exact), dtype=object if exact else float)
        np.fill_diagonal(m, coerce(0, exact))
        # Row and column 0 of the slot table are empty, so p and q are the
        # family indices themselves.
        table = self.family._slots[: N // 2 + 1, : (N - 1) // 2 + 1]
        p, q = np.nonzero(table)
        n = table[p, q]
        top = int(n.max(initial=0))
        values = np.array([coerce(rational_enumeration(i), exact) for i in range(1, top + 1)], m.dtype)
        m[2 * p - 1, 2 * q] = m[2 * q, 2 * p - 1] = values[n - 1]
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
