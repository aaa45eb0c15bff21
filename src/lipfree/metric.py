"""Finite metric spaces, Lipschitz potentials, point-mass functionals and
the incremental-quotient transform that links them.

The base point is always index 0 of the input ordering; remapping is the
caller's job.  All types are immutable after construction and all
operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import Error
from .numerics import (
    DEFAULT_TOLERANCE,
    EXACT_SIZE_LIMIT,
    Comparator,
    Number,
    coerce,
)


class MetricError(Error):
    """A metric axiom failed; carries a witness of the violation."""


class AsymmetricMatrix(MetricError):
    def __init__(self, i: int, j: int):
        super().__init__(f"dist[{i}][{j}] != dist[{j}][{i}]")
        self.witness = (i, j)

    def payload(self):
        return {**super().payload(), "witness": list(self.witness)}


class NegativeDistance(MetricError):
    def __init__(self, i: int, j: int):
        super().__init__(f"dist[{i}][{j}] < 0")
        self.witness = (i, j)

    def payload(self):
        return {**super().payload(), "witness": list(self.witness)}


class ZeroOffDiagonal(MetricError):
    def __init__(self, i: int, j: int):
        super().__init__(f"dist[{i}][{j}] = 0 for distinct points (duplicates are a hard error)")
        self.witness = (i, j)

    def payload(self):
        return {**super().payload(), "witness": list(self.witness)}


class NonzeroDiagonal(MetricError):
    def __init__(self, i: int):
        super().__init__(f"dist[{i}][{i}] != 0")
        self.witness = (i,)

    def payload(self):
        return {**super().payload(), "witness": list(self.witness)}


class TriangleViolation(MetricError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"dist[{i}][{k}] > dist[{i}][{j}] + dist[{j}][{k}]")
        self.witness = (i, j, k)

    def payload(self):
        return {**super().payload(), "witness": list(self.witness)}


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Point set with base point (index 0) and validated distance matrix."""

    labels: Tuple[str, ...]
    dist: Tuple[Tuple[Number, ...], ...]
    exact: bool
    tol: float = DEFAULT_TOLERANCE

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def points(self) -> range:
        return range(len(self.labels))

    @property
    def cmp(self) -> Comparator:
        return Comparator(self.exact, self.tol)

    def d(self, i: int, j: int) -> Number:
        return self.dist[i][j]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown point label {label!r}") from None

    def pairs(self):
        """All ordered pairs (i, j) with i != j."""
        n = self.n
        return ((i, j) for i in range(n) for j in range(n) if i != j)

    def with_mode(self, exact: bool, tol: float = DEFAULT_TOLERANCE) -> "FiniteMetricSpace":
        """Same space with its numbers converted to the other arithmetic mode."""
        rows = tuple(tuple(coerce(v, exact) for v in row) for row in self.dist)
        return FiniteMetricSpace(self.labels, rows, exact, tol)


def validate_metric(
    raw: Sequence[Sequence[Number]],
    labels: Sequence[str] | None = None,
    *,
    exact: bool | None = None,
    tol: float = DEFAULT_TOLERANCE,
) -> FiniteMetricSpace:
    """Check the four metric axioms and return the validated space.

    ``exact=None`` selects exact rational arithmetic for spaces with at
    most 64 points and floats otherwise.  Float triangles may fail by up to
    ``tol * max(1, largest distance)``; other float comparisons use ``tol``.
    The error raised on failure names the violated axiom and a witness; a
    triangle witness is the lexicographically first violating (i, j, k).
    """
    n = len(raw)
    if n == 0:
        raise MetricError("empty matrix")
    for i, row in enumerate(raw):
        if len(row) != n:
            raise MetricError(f"matrix is not square: row {i} has {len(row)} entries, expected {n}")
    if labels is None:
        labels = [str(i) for i in range(n)]
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise MetricError(f"{len(labels)} labels for a {n}x{n} matrix")
    if len(set(labels)) != n:
        raise MetricError("duplicate point labels")

    if exact is None:
        exact = n <= EXACT_SIZE_LIMIT
    cmp = Comparator(exact, tol)
    m = [[coerce(v, exact) for v in row] for row in raw]

    for i in range(n):
        if not cmp.is_zero(m[i][i]):
            if m[i][i] < 0:
                raise NegativeDistance(i, i)
            raise NonzeroDiagonal(i)
        m[i][i] = coerce(0, exact)
    for i in range(n):
        for j in range(i + 1, n):
            if not cmp.eq(m[i][j], m[j][i]):
                raise AsymmetricMatrix(i, j)
            if m[i][j] < 0:
                raise NegativeDistance(i, j)
            if cmp.is_zero(m[i][j]):
                raise ZeroOffDiagonal(i, j)

    if exact:
        a, threshold = _lattice(m), 0
    else:
        a = np.array(m, dtype=float)
        threshold = tol * max(1.0, float(a.max()))
    for i in range(n):
        slack = a[i, :, None] + a - a[i, None, :]
        bad = np.argwhere(slack < -threshold)
        if bad.size:
            j, k = (int(x) for x in bad[0])
            raise TriangleViolation(i, j, k)

    return FiniteMetricSpace(labels, tuple(tuple(row) for row in m), exact, tol)


def _lattice(m: Sequence[Sequence[Fraction]]) -> np.ndarray:
    """A nonnegative rational matrix times the lcm of its denominators.

    Numpy int64 when the sum of two entries cannot overflow, an ``object``
    array of Python ints otherwise; either way its arithmetic is exact.
    """
    scale = math.lcm(*(v.denominator for row in m for v in row))
    ints = [[v.numerator * (scale // v.denominator) for v in row] for row in m]
    wide = 2 * max(map(max, ints)) >= 2**63
    return np.array(ints, dtype=object if wide else np.int64)


def lip_constant(values: Sequence[Number], space: FiniteMetricSpace) -> Number:
    """Best Lipschitz constant of a function given by its value vector."""
    n = space.n
    if len(values) != n:
        raise ValueError(f"{len(values)} values for a {n}-point space")
    best = coerce(0, space.exact)
    for i in range(n):
        vi = values[i]
        for j in range(i + 1, n):
            slope = abs(vi - values[j]) / space.d(i, j)
            if slope > best:
                best = slope
    return best


def _cone_envelope(
    anchors: Sequence[int], values: Sequence[Number], space: FiniteMetricSpace
) -> List[Number]:
    """[max over k of (values[k] - d(anchors[k], z)) for z in space.points].

    The least 1-Lipschitz function that is at least values[k] at each
    anchor: a max of distance cones.
    """
    rows = [space.dist[a] for a in anchors]
    return [max(v - row[z] for v, row in zip(values, rows)) for z in space.points]


@dataclass(frozen=True)
class LipschitzPotential:
    """Real function on the points, vanishing at the base point, with its
    Lipschitz constant cached."""

    values: Tuple[Number, ...]
    lip: Number

    @classmethod
    def build(cls, values: Sequence[Number], space: FiniteMetricSpace) -> "LipschitzPotential":
        vals = tuple(coerce(v, space.exact) for v in values)
        if len(vals) != space.n:
            raise ValueError(f"{len(vals)} values for a {space.n}-point space")
        if vals[0] != 0:
            raise ValueError("potential must vanish at the base point (index 0)")
        return cls(vals, lip_constant(vals, space))

    def __call__(self, i: int) -> Number:
        return self.values[i]


def rho(space: FiniteMetricSpace) -> LipschitzPotential:
    """Distance to the base point; the canonical norm-one potential."""
    return LipschitzPotential.build([space.d(i, 0) for i in space.points], space)


def de_leeuw_transform(
    f: LipschitzPotential, space: FiniteMetricSpace
) -> Dict[Tuple[int, int], Number]:
    """Incremental quotients (f(x)-f(y))/d(x,y) over all ordered pairs.

    The sup-norm of the result equals the Lipschitz constant of ``f``.
    """
    return {(i, j): (f.values[i] - f.values[j]) / space.d(i, j) for i, j in space.pairs()}


class Functional:
    """Finitely supported signed combination of point evaluations.

    The base point never carries a coefficient (the evaluation at the base
    point is the zero functional) and stored coefficients are nonzero.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Number], space: FiniteMetricSpace):
        clean: Dict[int, Number] = {}
        for i, c in coeffs.items():
            if not 0 <= i < space.n:
                raise ValueError(f"point index {i} out of range")
            c = coerce(c, space.exact)
            if i == 0 or c == 0:
                continue
            clean[i] = c
        self._coeffs = clean

    @classmethod
    def zero(cls, space: FiniteMetricSpace) -> "Functional":
        return cls({}, space)

    @property
    def coeffs(self) -> Dict[int, Number]:
        return dict(self._coeffs)

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def is_zero(self) -> bool:
        return not self._coeffs

    def total(self) -> Number:
        """Sum of coefficients (the mass imbalance the base point absorbs)."""
        return sum(self._coeffs.values())

    def plus(self, other: "Functional", space: FiniteMetricSpace) -> "Functional":
        merged = dict(self._coeffs)
        for i, c in other._coeffs.items():
            merged[i] = merged.get(i, 0) + c
        return Functional(merged, space)

    def scaled(self, c: Number, space: FiniteMetricSpace) -> "Functional":
        c = coerce(c, space.exact)
        return Functional({i: c * v for i, v in self._coeffs.items()}, space)

    def __eq__(self, other) -> bool:
        return isinstance(other, Functional) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self):
        body = " + ".join(f"{c}*d({i})" for i, c in sorted(self._coeffs.items()))
        return f"Functional({body or '0'})"


def delta(x: int, space: FiniteMetricSpace) -> Functional:
    """Evaluation functional at point x (the zero functional for x = 0)."""
    return Functional({x: 1}, space)


def evaluate(phi: Functional, f: LipschitzPotential) -> Number:
    """Pairing <f, phi> = sum of coeffs[x] * f(x)."""
    return sum((c * f.values[i] for i, c in phi._coeffs.items()), start=0)


@dataclass(frozen=True)
class Molecule:
    """Normalized difference of two point evaluations; unit free-norm."""

    x: int
    y: int

    def __post_init__(self):
        if self.x == self.y:
            raise ValueError("molecule needs two distinct points")

    def to_functional(self, space: FiniteMetricSpace) -> Functional:
        d = space.d(self.x, self.y)
        one = coerce(1, space.exact)
        return Functional({self.x: one / d, self.y: -(one / d)}, space)


def molecule(x: int, y: int, space: FiniteMetricSpace) -> Functional:
    return Molecule(x, y).to_functional(space)


def functionals_equal(a: Functional, b: Functional, cmp: Comparator) -> bool:
    keys = set(a._coeffs) | set(b._coeffs)
    return all(cmp.eq(a._coeffs.get(k, 0), b._coeffs.get(k, 0)) for k in keys)
