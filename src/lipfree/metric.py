"""Finite metric spaces, Lipschitz potentials, point-mass functionals and
the incremental-quotient transform that links them.

The base point is always index 0 of the input ordering; remapping is the
caller's job.  All types are immutable after construction and all
operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    """A metric axiom failed; carries a witness of the violation, if any."""

    def __init__(self, message: str, witness: Tuple[int, ...] | None = None):
        super().__init__(message)
        self.witness = witness

    def payload(self):
        body = super().payload()
        if self.witness is not None:
            body["witness"] = list(self.witness)
        return body


class AsymmetricMatrix(MetricError):
    def __init__(self, i: int, j: int):
        super().__init__(f"dist[{i}][{j}] != dist[{j}][{i}]", (i, j))


class NegativeDistance(MetricError):
    def __init__(self, i: int, j: int):
        super().__init__(f"dist[{i}][{j}] < 0", (i, j))


class ZeroOffDiagonal(MetricError):
    def __init__(self, i: int, j: int):
        super().__init__(
            f"dist[{i}][{j}] = 0 for distinct points (duplicates are a hard error)", (i, j)
        )


class NonzeroDiagonal(MetricError):
    def __init__(self, i: int):
        super().__init__(f"dist[{i}][{i}] != 0", (i,))


class NonFiniteDistance(MetricError):
    def __init__(self, i: int, j: int):
        super().__init__(f"dist[{i}][{j}] is not finite", (i, j))


class TriangleViolation(MetricError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"dist[{i}][{k}] > dist[{i}][{j}] + dist[{j}][{k}]", (i, j, k))


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

    @cached_property
    def grid(self) -> Tuple[np.ndarray, int]:
        """The distance matrix as a read-only array, and its scale.

        Exact mode: ``dist`` times the lcm of its denominators, as integers
        (see ``_lattice``).  Float mode: ``dist`` as float64, scale 1.
        """
        a, scale = _lattice(self.dist) if self.exact else (np.array(self.dist, dtype=float), 1)
        a.setflags(write=False)
        return a, scale

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
    most 64 points and floats otherwise.  Float distances must be finite.
    Float triangles may fail by up to ``tol * max(1, largest distance)``;
    other float comparisons use ``tol``.  The error raised on failure names
    the violated axiom and a witness; a triangle witness is the
    lexicographically first violating (i, j, k).
    """
    labels = matrix_labels(raw, labels)
    if exact is None:
        exact = len(raw) <= EXACT_SIZE_LIMIT
    if exact:
        a, scale = _lattice([[coerce(v, True) for v in row] for row in raw])
    else:
        plain = {type(v) for row in raw for v in row} <= {int, float}
        m = raw if plain else [[coerce(v, False) for v in row] for row in raw]
        a, scale = np.array(m, dtype=float), 1
    return validate_grid(a, scale, labels, exact=exact, tol=tol)


def matrix_labels(raw: Sequence[Sequence[Number]], labels: Sequence[str] | None = None) -> Tuple[str, ...]:
    """The shape checks of ``validate_metric``: ``raw`` is a non-empty
    square matrix and ``labels`` (default "0", "1", ...) name each of its
    points once.  Returns the labels as strings."""
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
    return labels


def validate_grid(
    a: np.ndarray, scale: int, labels: Tuple[str, ...], *, exact: bool, tol: float = DEFAULT_TOLERANCE
) -> FiniteMetricSpace:
    """The axiom checks of ``validate_metric`` on a square matrix already in
    the form ``FiniteMetricSpace.grid`` holds, with ``labels`` as
    ``matrix_labels`` returns them; the space they validate keeps ``a``
    (its diagonal zeroed, read-only) as its grid.

    One code path for both modes: integers compare with tolerance 0,
    floats as the Comparator does, ``abs(x - y) <= tol``.  Exact ``dist``
    holds one ``Fraction(v, scale)`` per distinct integer ``v``.
    """
    t = 0 if exact else tol
    if not exact:
        bad = ~np.isfinite(a)
        if bad.any():
            raise NonFiniteDistance(*(int(x) for x in np.argwhere(bad)[0]))
    bad = ~(np.abs(a.diagonal()) <= t)
    if bad.any():
        i = int(np.argmax(bad))
        raise NegativeDistance(i, i) if a[i, i] < 0 else NonzeroDiagonal(i)
    np.fill_diagonal(a, 0)
    with np.errstate(over="ignore"):  # a difference that overflows is not within tol
        asym = ~(np.abs(a - a.T) <= t)
    neg = a < 0
    bad = np.triu(asym | neg | (np.abs(a) <= t), 1)
    if bad.any():
        i, j = (int(x) for x in np.argwhere(bad)[0])
        if asym[i, j]:
            raise AsymmetricMatrix(i, j)
        raise NegativeDistance(i, j) if neg[i, j] else ZeroOffDiagonal(i, j)

    witness = _triangle_witness(a, 0 if exact else tol * max(1.0, float(a.max())))
    if witness is not None:
        raise TriangleViolation(*witness)

    if exact:
        values, where = np.unique(a.ravel(), return_inverse=True)
        fractions = np.empty(len(values), dtype=object)
        fractions[:] = [Fraction(v, scale) for v in values.tolist()]
        rows = fractions[where].reshape(a.shape).tolist()
    else:
        rows = a.tolist()
    space = FiniteMetricSpace(labels, tuple(map(tuple, rows)), exact, tol)
    a.setflags(write=False)
    object.__setattr__(space, "grid", (a, scale))
    return space


def _triangle_witness(a: np.ndarray, threshold: Number) -> Tuple[int, int, int] | None:
    """The first (i, j, k), row-major, with
    ``a[i, j] + a[j, k] - a[i, k] < -threshold``, or None; the diagonal of
    ``a`` is zero and ``threshold`` is not negative.

    Both screens below are sound because rounding is monotone, so a
    smaller sum never rounds to a larger slack, and ``fmin`` skips a NaN as
    the comparison does.  For j in {i, k} the slack is 0, so only a j off
    both ends can fail, and then ``a[i, j] + a[j, k]`` is at least
    ``r[i] + c[k]``, the off-diagonal minima of row i and column k.  One
    O(n²) pass keeps only the rows with some k where
    ``r[i] + c[k] - a[i, k] < -threshold``; a matrix whose distances all
    lie in [m, 2m], such as a uniformly discrete one, keeps none.  A kept
    row fails iff ``min_j (a[i, j] + a[j, k]) - a[i, k] < -threshold`` for
    some k, and only a failing row builds the full mask, to name the
    witness.  A float sum that overflows to inf cannot violate, so
    overflow is not reported.
    """
    n = len(a)
    if n < 2:
        return None
    sums, low = a.copy(), np.empty(n, dtype=a.dtype)
    # No off-diagonal entry exceeds the largest one, so on that diagonal
    # the minima are the off-diagonal ones.
    np.fill_diagonal(sums, np.fmax.reduce(a, axis=None))
    with np.errstate(over="ignore"):
        r, c = np.fmin.reduce(sums, axis=1), np.fmin.reduce(sums, axis=0)
        np.subtract(np.add(r[:, None], c, out=sums), a, out=sums)
        rows = np.flatnonzero((sums < -threshold).any(axis=1))
        for i in rows.tolist():
            np.fmin.reduce(np.add(a[i, :, None], a, out=sums), axis=0, out=low)
            if (low - a[i] < -threshold).any():
                bad = a[i, :, None] + a - a[i, None, :] < -threshold
                j, k = (int(x) for x in np.argwhere(bad)[0])
                return i, j, k
    return None


def _lattice(m: Sequence[Sequence[Fraction]], scale: int = 1) -> Tuple[np.ndarray, int]:
    """A rational matrix as integers over one common denominator.

    Returns the matrix times ``L``, and ``L``: the lcm of ``scale`` and the
    entries' denominators.  Numpy int64 when the sum of two entries cannot
    overflow, an ``object`` array of Python ints otherwise; either way its
    arithmetic is exact.
    """
    scale = math.lcm(scale, *(v.denominator for row in m for v in row))
    ints = [[v.numerator * (scale // v.denominator) for v in row] for row in m]
    top = max((abs(v) for row in ints for v in row), default=0)
    return np.array(ints, dtype=_int_dtype(top)), scale


def _int_dtype(top: int) -> type:
    """int64 when the sum of two integers of magnitude ``top`` fits in it,
    else ``object`` (Python ints)."""
    return object if 2 * top >= 2**63 else np.int64


def _on_lattice(
    rows: Sequence[Sequence[Number]], space: FiniteMetricSpace
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Value rows and the distance matrix as arrays over one scale.

    Exact mode: both as integers of one dtype, times the returned scale.
    Float mode: float64 as given, scale 1.
    """
    d, scale = space.grid
    if not space.exact:
        return np.array(rows, dtype=float), d, 1
    v, common = _lattice([[coerce(x, True) for x in row] for row in rows], scale)
    if common != scale:
        d, _ = _lattice(space.dist, common)
    if v.dtype != d.dtype:
        v, d = v.astype(object), d.astype(object)
    return v, d, common


def _ratio_extreme(num: np.ndarray, den: np.ndarray, largest: bool) -> Number:
    """The max (``largest``) or min of ``num / den``; num >= 0, den > 0.

    Float arrays divide in IEEE double.  Integer arrays are prefiltered in
    float64, whose rounding of an integer or a quotient is correct, so the
    exact extreme is among the quotients within a relative 1e-9 of the
    float one; those few are settled by cross-multiplying Python ints, and
    only the winner becomes a Fraction.
    """
    q = np.asarray(num / den, dtype=float)
    best = q.max() if largest else q.min()
    if num.dtype == float:
        return float(best)
    near = np.flatnonzero(np.abs(q - best) <= 1e-9 * best)
    sign = 1 if largest else -1
    ps, qs = num[near].tolist(), den[near].tolist()
    bp, bq = ps[0], qs[0]
    for x, y in zip(ps, qs):
        if sign * (x * bq - bp * y) > 0:
            bp, bq = x, y
    return Fraction(bp, bq)


def lip_constant(values: Sequence[Number], space: FiniteMetricSpace) -> Number:
    """Best Lipschitz constant of a function given by its value vector."""
    n = space.n
    if len(values) != n:
        raise ValueError(f"{len(values)} values for a {n}-point space")
    if n < 2:
        return coerce(0, space.exact)
    (v,), d, _ = _on_lattice([values], space)
    i, j = np.triu_indices(n, 1)
    return _ratio_extreme(np.abs(v[i] - v[j]), d[i, j], largest=True)


def _cone_envelope(
    anchors: Sequence[int], values: Sequence[Number], space: FiniteMetricSpace
) -> List[Number]:
    """[max over k of (values[k] - d(anchors[k], z)) for z in space.points].

    The least 1-Lipschitz function that is at least values[k] at each
    anchor: a max of distance cones.  Ties go to the first anchor, which
    fixes the sign of a float zero.
    """
    (v,), d, scale = _on_lattice([values], space)
    cones = v[:, None] - d[list(anchors)]
    top = cones[cones.argmax(axis=0), np.arange(space.n)].tolist()
    return [Fraction(x, scale) for x in top] if space.exact else top


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
