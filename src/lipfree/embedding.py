"""Coordinate families for sup-norm embeddings and their quality measures.

A family F of unit-ball potentials embeds the space into l_inf^|F|.  Its
objective is the worst pair's best coordinate slope,

    alpha_F = min over pairs (x, y) of max over f in F of |(f(x)-f(y))/d(x,y)|,

which is the reciprocal of the inverse Lipschitz constant once the family
is normalized to have combined Lipschitz constant one.  The distance-to-
reference family (one coordinate per point) always achieves objective 1,
so every finite space embeds isometrically.  A seeded local search looks
for good low-dimensional families; feasibility is maintained by pulling
iterates back into the 1-Lipschitz cone with envelope midpoints.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import Error
from .metric import (
    FiniteMetricSpace,
    LipschitzPotential,
    _cone_top,
    _grid_rows,
    _on_lattice,
    _potentials,
    _ratio_extreme,
    _upper_pairs,
)
from .numerics import Number, coerce


#: Cap on the extra random restarts of a search whose restarts all end at 0.
_SEPARATING_RESTARTS = 8


class EmptyFamily(Error):
    """The objective needs at least one coordinate function."""


@dataclass(frozen=True)
class EmbeddingReport:
    """Coordinates of a map into l_inf^n with its distortion data.

    ``lip_hinv`` and ``distortion`` are None when the coordinates fail to
    separate some pair (the map is not injective, objective 0).
    """

    functions: Tuple[LipschitzPotential, ...]
    lip_h: Number
    lip_hinv: Optional[Number]
    distortion: Optional[Number]
    objective: Number


def alpha_objective(
    functions: Sequence[LipschitzPotential], space: FiniteMetricSpace
) -> Number:
    """Worst-pair best-coordinate slope of a family of potentials.

    Coordinates with Lipschitz constant above one are rescaled into the
    unit ball first; adding coordinates can only increase the value.
    """
    if not functions:
        raise EmptyFamily("objective of an empty coordinate family")
    fams = []
    for f in functions:
        if space.cmp.gt(f.lip, 1):
            fams.append(tuple(v / f.lip for v in f.values))
        else:
            fams.append(f.values)
    return _worst_pair_separation(fams, space)


def _worst_pair_separation(
    rows: Sequence[Sequence[Number]], space: FiniteMetricSpace
) -> Number:
    """min over pairs of (max over rows of |r(x) - r(y)|) / d(x, y); one on
    a single-point space, which has no pairs to separate.

    Dividing once per pair gives the max of the per-row quotients, because
    exact and correctly rounded division are both monotone.
    """
    if space.n < 2:
        return coerce(1, space.exact)
    v, d, _ = _on_lattice(rows, space)
    return _separation(v, d)


def _separation(v: np.ndarray, d: np.ndarray) -> Number:
    """``_worst_pair_separation`` of the rows ``v``, with ``v`` and the
    distances ``d`` of at least two points on one lattice."""
    i, j = _upper_pairs(len(d))
    return _ratio_extreme(_pair_spread(v, i, j), d[i, j], largest=False)


def _pair_spread(v: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """max over the rows r of ``v`` of |r[i] - r[j]|, for each pair (i, j).

    Row by row: for 3 rows of 1128 pairs, ``np.maximum`` over the rows
    took 4 us where ``max(axis=0)`` took 66 us.
    """
    return functools.reduce(np.maximum, np.abs(v.take(i, axis=1) - v.take(j, axis=1)))


def _report_from_values(
    rows: Sequence[Sequence[Number]], space: FiniteMetricSpace
) -> EmbeddingReport:
    """Normalize a family to combined Lipschitz constant 1 and measure it.

    One lattice pass (``metric._potentials``) gives every row's constant
    and the objective; a family whose largest constant is not 1 is divided
    by it and built once more.
    """
    functions, v, d = _potentials(rows, space)
    lip_h = max(f.lip for f in functions)
    if lip_h != 1:
        functions, v, d = _potentials([[x / lip_h for x in f.values] for f in functions], space)

    one = coerce(1, space.exact)
    if any(space.cmp.gt(f.lip, 1) for f in functions):  # a float rescale landed past 1 + tol
        objective = alpha_objective(functions, space)
    else:
        objective = _separation(v, d)
    if objective == 0:  # the coordinates fail to separate some pair
        return EmbeddingReport(functions, one, None, None, objective)
    lip_hinv = 1 / objective
    return EmbeddingReport(functions, one, lip_hinv, lip_hinv, objective)


def frechet_embedding(space: FiniteMetricSpace) -> EmbeddingReport:
    """One coordinate per point: f_j(x) = d(x, p_j) - d(0, p_j).

    Coordinate j attains |f_j(x) - f_j(y)| = d(x, y) at j = y, so the map
    is an isometry into l_inf^n and the objective is exactly 1.  The rows
    are differences of ``space.grid`` columns; exact mode turns each
    distinct lattice difference into one Fraction.
    """
    if space.n < 2:
        raise ValueError("need at least two points to embed")
    a, scale = space.grid
    return _report_from_values(_grid_rows((a - a[0]).T, scale, space.exact), space)


def _project_unit_ball(
    v: np.ndarray, d: np.ndarray, pairs: Tuple[np.ndarray, np.ndarray, np.ndarray]
) -> np.ndarray:
    """Pull a vector into the 1-Lipschitz cone in at most 25 envelope rounds,
    then pin the base point.

    ``pairs`` holds the pairs i < j and their distances ``d[i, j]``.
    """
    i, j, dij = pairs

    def lip(v):
        return _ratio_extreme(np.abs(v[i] - v[j]), dij, largest=True)

    for _ in range(25):
        value = lip(v)
        if value <= 1.0 + 1e-12:
            break
        v = (_cone_top(v, d) - _cone_top(-v, d)) / 2.0  # midpoint of the two envelopes
    else:
        value = lip(v)
    if value > 1.0:
        v = v / value
    return v - v[0]


def best_embedding_search(
    n: int,
    space: FiniteMetricSpace,
    iterations: int = 300,
    seed: int = 0,
) -> EmbeddingReport:
    """Seeded local search for an n-coordinate family with large objective.

    Restarts from subfamilies of the distance-to-reference coordinates and
    from random feasible vectors, and from more random vectors while every
    restart ends at objective 0; each step perturbs one value, projects
    back into the unit ball and keeps the move if the objective improves.
    Reports the best family found (a lower bound for dimension n);
    deterministic for a fixed seed.

    Runs in float mode on arrays: a family is one ``(n, points)`` float64
    matrix, and the pairs i < j with their distances are gathered once
    per search.
    """
    if n < 1:
        raise ValueError("need at least one coordinate")
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if space.n < 2:
        raise ValueError("need at least two points to embed")
    fspace = space if not space.exact else space.with_mode(exact=False)
    m = fspace.n
    d, _ = fspace.grid
    i, j = _upper_pairs(m)
    dij = d[i, j]
    pairs = i, j, dij
    rng = random.Random(seed)
    scale = float(d[:, 0].max())

    frechet_rows = (d - d[0]).T  # row j: d(x, j) - d(0, j)

    def random_rows(fam: List[np.ndarray]) -> List[np.ndarray]:
        while len(fam) < n:
            row = np.array([0.0] + [rng.uniform(-scale, scale) for _ in range(m - 1)])
            fam.append(_project_unit_ball(row, d, pairs))
        return fam

    starts: List[List[np.ndarray]] = [list(frechet_rows[: min(n, m)])]
    starts[0] += [np.zeros(m)] * (n - len(starts[0]))
    n_restarts = 4
    for _ in range(n_restarts - 1):
        if rng.random() < 0.5:
            picks = rng.sample(range(m), k=min(n, m))
            fam = list(frechet_rows[picks])
        else:
            fam = []
        starts.append(random_rows(fam))

    best_rows = None
    best_val = -1.0
    per_restart = max(1, iterations // len(starts))

    def objective(fam: np.ndarray) -> float:
        return _ratio_extreme(_pair_spread(fam, i, j), dij, largest=False)

    def climb(fam: List[np.ndarray]) -> None:
        nonlocal best_rows, best_val
        fam = np.array([_project_unit_ball(row, d, pairs) for row in fam])
        val = objective(fam)
        for _ in range(per_restart):
            k = rng.randrange(n)
            x = rng.randrange(1, m)
            delta = rng.uniform(-0.5, 0.5) * scale
            row = fam[k].copy()
            row[x] += delta
            candidate = fam.copy()
            candidate[k] = _project_unit_ball(row, d, pairs)
            cand_val = objective(candidate)
            if cand_val > val:
                fam, val = candidate, cand_val
        if val > best_val:
            best_rows, best_val = fam, val

    for fam in starts:
        climb(fam)
    # Rows that leave several disjoint pairs unseparated stay at objective 0
    # under every one-value move.  A random vector almost surely separates
    # every pair, so draw such restarts until one does.
    for _ in range(_SEPARATING_RESTARTS):
        if best_val > 0:
            break
        climb(random_rows([]))

    return _report_from_values(best_rows.tolist(), fspace)
