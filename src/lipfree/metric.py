"""Finite metric spaces, Lipschitz potentials, point-mass functionals and
the incremental-quotient transform that links them.

The base point is always index 0 of the input ordering; remapping is the
caller's job.  All types are immutable after construction and all
operations are pure functions.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import Error
from .numerics import DEFAULT_TOLERANCE, Comparator, Number, coerce, exact_mode, left_sum


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


class InvalidPair(Error, ValueError):
    """A pair (x, y) on the diagonal or naming a point outside the space."""


def check_pair(x: int, y: int, n: int | None = None) -> None:
    """Raise ``InvalidPair`` if x == y or, given n, either point is outside range(n)."""
    if x == y:
        raise InvalidPair(f"pair ({x},{y}) lies on the diagonal")
    if n is not None and not (0 <= x < n and 0 <= y < n):
        raise InvalidPair(f"pair ({x},{y}) out of range")


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Point set with base point (index 0) and validated distance matrix.

    ``grid`` is the stored matrix: a read-only array and its scale.  Exact
    mode: the distances times the lcm of their denominators, as integers
    (see ``_lattice``).  Float mode: the distances as float64, scale 1.
    ``dist`` is a public view; inside the library only ``d`` reads it, and
    every computation reads ``grid``.
    """

    labels: Tuple[str, ...]
    grid: Tuple[np.ndarray, int]
    exact: bool
    tol: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        self.grid[0].setflags(write=False)

    @cached_property
    def dist(self) -> Tuple[Tuple[Number, ...], ...]:
        """``grid`` as nested tuples of the numbers ``_grid_rows`` gives, built on first read."""
        return tuple(map(tuple, _grid_rows(*self.grid, self.exact)))

    @cached_property
    def _numbers(self) -> Tuple[List[Number], np.ndarray]:
        """Exact mode: ``_distinct`` of ``grid``, so that each distinct distance
        becomes a ``Fraction`` once per space, for ``_pair_distances``."""
        return _distinct(*self.grid, True)

    def _key(self) -> tuple:  # equal matrices have equal grids: ``_lattice`` scales by the lcm
        a, scale = self.grid
        return self.labels, scale, tuple(a.ravel().tolist()), self.exact, self.tol

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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

    def with_mode(self, exact: bool) -> "FiniteMetricSpace":
        """Same space, tolerance included, with its numbers converted to the
        other arithmetic mode, each distinct distance once, by ``coerce``:
        an exact one to float correctly rounded, and inf past float's range.

        The converted space is not validated again.  Float to exact reads
        each rounded float as its decimal literal, and those rationals can
        break a triangle: for most float ``random_space`` instances the
        result fails ``validate_grid(exact=True)`` with ``TriangleViolation``."""
        values, where = _distinct(*self.grid, self.exact)
        return FiniteMetricSpace(self.labels, _grid_of(values, where, exact), exact, self.tol)


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
    n = len(raw)
    exact = exact_mode(n, exact)
    if exact:  # cell by cell: a table of distinct Fractions costs more in hashing than it saves
        a, scale = _grid_of([v for row in raw for v in row], np.arange(n * n).reshape(n, n), True)
    else:
        a, scale = _float_array(raw), 1
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
    (its diagonal zeroed, read-only) as its grid, and builds no ``dist``.

    One code path for both modes: integers compare with tolerance 0,
    floats as the Comparator does, ``abs(x - y) <= tol``.
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

    return FiniteMetricSpace(labels, (a, scale), exact, tol)


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
    some k.

    The kept rows are relaxed in blocks, one ``fmin`` reduction over j of
    ``a[i, j] + b[k, j]`` per block, with ``b = a.T`` so that each k reads
    a contiguous row.  When ``a`` equals its transpose exactly (always in
    exact mode, where ``validate_grid`` checks symmetry with tolerance 0
    first) ``b`` is ``a`` and a block starting at row ``k0`` needs only
    the columns k >= k0: the slack of (i, j, k) is ``a[i, j] + a[j, k] -
    a[i, k]`` and that of (k, j, i) is ``a[k, j] + a[j, i] - a[k, i]``,
    the same operands in the same order, so the same bits.  A row i >= k0
    that failed only at some k < k0 would make row k fail, and row k
    either lies in an earlier block, which did not fail, or was dropped by
    the sound screen.  A matrix asymmetric by any amount, such as a float
    one within ``tol``, reads every column (k0 = 0).  A block takes
    ``max(1, 65536 // (n * (n - k0)))`` rows: at most 65536 sums (512 KB
    of 8-byte entries) unless one row holds more, so a block stays in
    cache and its memory is bounded, while a small matrix takes few numpy
    calls.  Only the first failing row of the first failing block builds
    the full (j, k) mask, to name the witness.  A float sum that overflows
    to inf cannot violate, so overflow is not reported.  A one-point
    matrix needs no special case: every slack of its row screen is 0, so
    the screen keeps no row.
    """
    n = len(a)
    sums = a.copy()
    # No off-diagonal entry exceeds the largest one, so on that diagonal
    # the minima are the off-diagonal ones.
    np.fill_diagonal(sums, np.fmax.reduce(a, axis=None))
    with np.errstate(over="ignore"):
        r, c = np.fmin.reduce(sums, axis=1), np.fmin.reduce(sums, axis=0)
        np.subtract(np.add(r[:, None], c, out=sums), a, out=sums)
        rows = np.flatnonzero((sums < -threshold).any(axis=1))
        del sums  # so that a one-row block of a large matrix takes its place
        if not len(rows):  # as for a uniformly discrete matrix; skip the symmetry test
            return None
        symmetric = (a == a.T).all()
        b = a if symmetric else a.T.copy()
        start = 0
        while start < len(rows):
            k0 = int(rows[start]) if symmetric else 0
            block = rows[start : start + max(1, 65536 // (n * (n - k0)))]
            start += len(block)
            low = np.fmin.reduce(a[block, None, :] + b[k0:], axis=2)
            failing = (low - a[block, k0:] < -threshold).any(axis=1)
            if failing.any():
                i = int(block[failing.argmax()])
                bad = a[i, :, None] + a - a[i, None, :] < -threshold
                j, k = (int(x) for x in np.argwhere(bad)[0])
                return i, j, k
    return None


# --- The lattice: the arrays of ``FiniteMetricSpace.grid``, and the numbers read from them ---

_numerator, _denominator = operator.attrgetter("numerator"), operator.attrgetter("denominator")


def _lattice(m: Sequence[Sequence[Number]], scale: int = 1) -> Tuple[np.ndarray, int]:
    """A rational matrix, each entry read as ``coerce(v, True)`` reads it,
    as integers over one common denominator.

    Returns the matrix times ``L``, and ``L``: the lcm of ``scale`` and the
    entries' denominators, in the dtype ``_int_dtype`` picks.  Entries that
    are all ``Fraction`` or ``int`` skip ``coerce``, and both kinds are read
    in C-level ``map`` passes.
    """
    cells = list(itertools.chain.from_iterable(m))
    if not set(map(type, cells)) <= {Fraction, int}:
        cells = [coerce(v, True) for v in cells]
    dens = list(map(_denominator, cells))
    scale = math.lcm(scale, *set(dens))
    ints = list(map(operator.mul, map(_numerator, cells), map(scale.__floordiv__, dens)))
    top = max(map(abs, ints), default=0)
    return np.array(ints, dtype=_int_dtype(top)).reshape(len(m), -1), scale


def _float_array(m: Sequence[Sequence[Number]]) -> np.ndarray:
    """A matrix of numbers as float64, each entry read as ``coerce(v,
    False)`` reads it: past float's range, as ±inf.

    numpy's inferred dtype decides the route: a bool, integer or float
    matrix converts as a whole; an object, string or complex one, a ragged
    one (a cell that is a list) and one numpy cannot hold go cell by cell
    through ``coerce``, which names the first bad cell.
    """
    try:
        a = np.array(m)
        if a.ndim == 2 and a.dtype.kind in "biuf":
            return a.astype(float, copy=False)
    except (ValueError, OverflowError):  # ragged, or a number past numpy's types
        pass
    return np.array([[coerce(v, False) for v in row] for row in m], dtype=float)


def _int_dtype(top: int, terms: int = 2) -> type:
    """int64 when a sum of ``terms`` integers of magnitude at most ``top``
    fits in it, else ``object`` (Python ints).  Every exact lattice array
    follows this rule, so two of its entries add exactly; walk sums on the
    pair graph follow it for |C| + 1 terms."""
    return object if terms * top >= 2**63 else np.int64


def _grid_of(values: Sequence[Number], where: np.ndarray, exact: bool) -> Tuple[np.ndarray, int]:
    """The grid of the matrix whose cells are ``values[where]``, each value
    read as ``coerce`` reads it: exact mode on the lattice of ``_lattice``,
    float mode as float64 (past float's range, ±inf) with scale 1.  Exact
    mode raises ``NonFiniteDistance`` for the row-major first NaN or inf."""
    if not exact:
        return _float_array([values])[0][where], 1
    try:
        a, scale = _lattice([values])
    except ValueError:
        bad = np.array([isinstance(v, float) and not math.isfinite(v) for v in values])[where]
        raise NonFiniteDistance(*(int(x) for x in np.argwhere(bad)[0])) from None
    return a[0][where], scale


def _distinct(a: np.ndarray, scale: int, exact: bool) -> Tuple[List[Number], np.ndarray]:
    """The distinct entries of the grid ``(a, scale)`` as numbers, and for
    each cell the index of its entry among them: exact mode one
    ``Fraction(v, scale)`` per lattice integer ``v``, float mode one float
    per bit pattern (``-0.0`` too)."""
    keys, where = np.unique((a if exact else a.view(np.int64)).ravel(), return_inverse=True)
    values = [Fraction(v, scale) for v in keys.tolist()] if exact else keys.view(float).tolist()
    return values, where.reshape(a.shape)


def _grid_rows(a: np.ndarray, scale: int, exact: bool) -> List[List[Number]]:
    """``a / scale`` as nested lists: exact mode holds the numbers of
    ``_distinct``, float mode the entries of ``a`` as Python floats."""
    if not exact:
        return a.tolist()
    values, where = _distinct(a, scale, True)
    return np.array(values, dtype=object)[where].tolist()


def _pair_distances(pairs: Iterable[Tuple[int, int]], space: FiniteMetricSpace) -> List[Number]:
    """``space.d(x, y)`` of each pair (x, y), in one gather from ``space.grid``."""
    xy = np.fromiter(itertools.chain.from_iterable(pairs), np.intp).reshape(-1, 2)
    if not space.exact:
        return space.grid[0][xy[:, 0], xy[:, 1]].tolist()
    values, where = space._numbers
    return list(map(values.__getitem__, where[xy[:, 0], xy[:, 1]].tolist()))


def _on_lattice(
    rows: Sequence[Sequence[Number]], space: FiniteMetricSpace
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Value rows and the distance matrix as arrays over one scale.

    Exact mode: both as integers in the dtype ``_int_dtype`` picks, times
    the returned scale; numpy computes a mix of the two on Python ints.
    Float mode: float64 as given, scale 1.
    """
    d, scale = space.grid
    if not space.exact:
        return np.array(rows, dtype=float), d, 1
    v, common = _lattice(rows, scale)
    if common != scale:
        k = common // scale
        d = d.astype(_int_dtype(k * int(np.abs(d).max()))) * k
    return v, d, common


def _ratio_extreme(num: np.ndarray, den: np.ndarray, largest: bool) -> Number:
    """The max (``largest``) or min of ``num / den``; num >= 0, den > 0;
    the one-row case of ``_ratio_extremes``."""
    return _ratio_extremes(num[None], den, largest)[0]


def _ratio_extremes(num: np.ndarray, den: np.ndarray, largest: bool) -> List[Number]:
    """For each row of ``num``, the max (``largest``) or min of
    ``row / den``; num >= 0, den > 0.

    Float arrays divide in IEEE double.  Integer arrays are prefiltered in
    float64, whose rounding of an integer or a quotient is correct, so the
    exact extreme of a row is among its quotients within a relative 1e-9
    of the float one.  Many candidates can spell one ratio (every pair on
    a geodesic through a Fréchet coordinate's point has slope 1), so they
    are settled for all rows at once, not one pair at a time: each row
    starts from its first candidate and moves to one that is strictly
    better, by exact cross-multiplication, until no row has a better one;
    each move raises (or lowers) the row's ratio, so this ends.  When
    every row has one candidate there is nothing to settle.  Cross
    products run in int64 when none can overflow it and on Python ints
    otherwise; only each row's winner becomes a Fraction.
    """
    q = np.asarray(num / den, dtype=float)
    best = q.max(axis=1) if largest else q.min(axis=1)
    if num.dtype == float:
        return best.tolist()
    best = best[:, None]
    rows, cols = np.nonzero(np.abs(q - best) <= 1e-9 * best)
    p, r = num[rows, cols], den[cols]
    if len(rows) > len(num):  # some row has rival candidates
        if p.dtype != object and r.dtype != object and int(p.max()) * int(r.max()) >= 2**63:
            p, r = p.astype(object), r.astype(object)
        better = np.greater if largest else np.less
        k = np.searchsorted(rows, np.arange(len(num)))  # each row's first candidate
        while True:
            at = k[rows]
            moves = np.flatnonzero(better(p * r[at], p[at] * r))
            if not len(moves):
                break
            k[rows[moves]] = moves  # any strictly better candidate will do
        p, r = p[k], r[k]
    return list(map(Fraction, p.tolist(), r.tolist()))


def lip_constant(values: Sequence[Number], space: FiniteMetricSpace) -> Number:
    """Best Lipschitz constant of a function given by its value vector."""
    n = space.n
    if len(values) != n:
        raise ValueError(f"{len(values)} values for a {n}-point space")
    if n < 2:
        return coerce(0, space.exact)
    v, d, _ = _on_lattice([values], space)
    return _lips(v, d)[0]


def _lips(v: np.ndarray, d: np.ndarray) -> List[Number]:
    """The best Lipschitz constant of each row of ``v``, with ``v`` and the
    distances ``d`` of at least two points on one lattice (``_on_lattice``)."""
    i, j = _upper_pairs(len(d))
    return _ratio_extremes(np.abs(v[:, i] - v[:, j]), d[i, j], largest=True)


@lru_cache(maxsize=1)
def _upper_pairs(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, the pairs i < j, as read-only arrays.

    Only the last ``n`` is kept, so the cache holds at most n(n-1) int64
    indices, the size of one n x n distance matrix.
    """
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def _pinned_envelope(
    anchors: Sequence[int], values: Sequence[Number], space: FiniteMetricSpace
) -> LipschitzPotential:
    """z -> max over k of (values[k] - d(anchors[k], z)), less its value at
    the base point.

    The least 1-Lipschitz function that is at least values[k] at each
    anchor (a max of distance cones), shifted to vanish at the base point,
    so it needs no projection step.  Ties go to the first anchor, which
    fixes the sign of a float zero.
    """
    (v,), d, scale = _on_lattice([values], space)
    top = _cone_top(v, d[list(anchors)]).tolist()
    pinned = [x - top[0] for x in top]
    return LipschitzPotential.build([Fraction(x, scale) for x in pinned] if space.exact else pinned, space)


def _cone_top(v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """max over k of (v[k] - d[k, z]) for each column z of ``d``, the
    first k on ties."""
    cones = v[:, None] - d
    return cones[cones.argmax(axis=0), np.arange(d.shape[1])]


@dataclass(frozen=True)
class LipschitzPotential:
    """Real function on the points, vanishing at the base point, with its
    Lipschitz constant cached."""

    values: Tuple[Number, ...]
    lip: Number

    @classmethod
    def build(cls, values: Sequence[Number], space: FiniteMetricSpace) -> "LipschitzPotential":
        """The potential with these values, each read as ``coerce`` reads
        it, and its best Lipschitz constant.  This is the one-row case of
        ``_potentials``, which puts a family of rows on one lattice, so an
        embedding report builds its coordinates in one pass."""
        return _potentials([values], space)[0][0]

    def __call__(self, i: int) -> Number:
        return self.values[i]


def _potentials(
    rows: Sequence[Sequence[Number]], space: FiniteMetricSpace
) -> Tuple[Tuple[LipschitzPotential, ...], np.ndarray, np.ndarray]:
    """``LipschitzPotential.build`` of each row, with the checks in row
    order, and the value rows and the distance matrix on the one lattice
    (``_on_lattice``) that every row's constant is read from."""
    n, exact = space.n, space.exact
    vals = []
    for row in rows:
        row = tuple(coerce(v, exact) for v in row)
        if len(row) != n:
            raise ValueError(f"{len(row)} values for a {n}-point space")
        if row[0] != 0:
            raise ValueError("potential must vanish at the base point (index 0)")
        vals.append(row)
    v, d, _ = _on_lattice(vals, space)
    lips = _lips(v, d) if n > 1 else [coerce(0, exact)] * len(vals)
    return tuple(map(LipschitzPotential, vals, lips)), v, d


def rho(space: FiniteMetricSpace) -> LipschitzPotential:
    """Distance to the base point; the canonical norm-one potential."""
    return LipschitzPotential.build(_pair_distances([(i, 0) for i in space.points], space), space)


def de_leeuw_transform(
    f: LipschitzPotential, space: FiniteMetricSpace
) -> Dict[Tuple[int, int], Number]:
    """Incremental quotients (f(x)-f(y))/d(x,y) over all ordered pairs.

    The sup-norm of the result equals the Lipschitz constant of ``f``.
    """
    pairs = list(space.pairs())
    return {(i, j): (f.values[i] - f.values[j]) / d for (i, j), d in zip(pairs, _pair_distances(pairs, space))}


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
        return left_sum(self._coeffs.values())

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
    return left_sum(c * f.values[i] for i, c in phi._coeffs.items())


@dataclass(frozen=True)
class Molecule:
    """Normalized difference of two point evaluations; unit free-norm."""

    x: int
    y: int

    def __post_init__(self):
        if self.x == self.y:
            raise ValueError("molecule needs two distinct points")

    def to_functional(self, space: FiniteMetricSpace) -> Functional:
        (d,) = _pair_distances([(self.x, self.y)], space)
        return Functional({self.x: 1 / d, self.y: -(1 / d)}, space)


def molecule(x: int, y: int, space: FiniteMetricSpace) -> Functional:
    return Molecule(x, y).to_functional(space)


def functionals_equal(a: Functional, b: Functional, cmp: Comparator) -> bool:
    keys = set(a._coeffs) | set(b._coeffs)
    return all(cmp.eq(a._coeffs.get(k, 0), b._coeffs.get(k, 0)) for k in keys)
