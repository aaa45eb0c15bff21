import dataclasses
import random
from fractions import Fraction as F

import numpy as np
import pytest

from lipfree import (
    EmptyFamily,
    LipschitzPotential,
    alpha_objective,
    best_embedding_search,
    frechet_embedding,
    rho,
    validate_metric,
)
from lipfree.embedding import EmbeddingReport, _report_from_values
from lipfree.metric import _potentials
from lipfree.numerics import coerce
from lipfree.instances import line_space, random_space, star_space


def test_frechet_is_isometric_on_random_spaces():
    for seed in range(20):
        sp = random_space(2 + seed % 7, seed)
        rep = frechet_embedding(sp)
        assert rep.distortion == 1
        assert rep.lip_h == 1 and rep.lip_hinv == 1
        assert rep.objective == 1
        assert len(rep.functions) == sp.n


def test_frechet_two_point_space():
    sp = validate_metric([[0, 3], [3, 0]])
    rep = frechet_embedding(sp)
    assert rep.objective == 1
    assert alpha_objective([rho(sp)], sp) == 1  # one coordinate already suffices


def test_frechet_objective_confirmed_by_direct_evaluation():
    sp = random_space(8, seed=5)
    rep = frechet_embedding(sp)
    worst = min(
        max(abs(f.values[x] - f.values[y]) / sp.d(x, y) for f in rep.functions)
        for x in sp.points
        for y in sp.points
        if x != y
    )
    assert worst == 1 == rep.objective


def test_alpha_objective_examples():
    st = star_space(3)  # leaves all at distance 1 from the base
    assert alpha_objective([rho(st)], st) == 0  # leaf pairs are not separated

    sp = validate_metric([[0, 2], [2, 0]])
    f = LipschitzPotential.build([0, F(3, 2)], sp)
    assert alpha_objective([f], sp) == F(3, 4)

    with pytest.raises(EmptyFamily):
        alpha_objective([], sp)


@pytest.mark.parametrize("exact", [True, False])
def test_alpha_objective_of_one_point_space_is_one(exact):
    # No pair to separate: the minimum over no pairs is taken as 1.
    sp = validate_metric([[0]], exact=exact)
    value = alpha_objective([LipschitzPotential.build([0], sp)], sp)
    assert value == 1 and type(value) is (F if exact else float)


def test_alpha_objective_rescales_fat_functions():
    sp = validate_metric([[0, 1], [1, 0]])
    f = LipschitzPotential.build([0, 5], sp)  # lip 5, rescaled to unit ball
    assert alpha_objective([f], sp) == 1


def test_alpha_objective_monotone_under_family_growth():
    sp = random_space(7, seed=8)
    rep = frechet_embedding(sp)
    fam = list(rep.functions)
    prev = None
    for k in range(1, len(fam) + 1):
        val = alpha_objective(fam[:k], sp)
        if prev is not None:
            assert val >= prev
        prev = val


def test_search_full_dimension_reaches_isometry():
    sp = random_space(5, seed=11)
    rep = best_embedding_search(sp.n, sp, iterations=50, seed=0)
    assert rep.objective == 1.0


def test_search_line_in_one_dimension():
    sp = line_space([0, 1, 2])
    rep = best_embedding_search(1, sp, iterations=50, seed=0)
    assert rep.objective == pytest.approx(1.0, abs=1e-12)


def test_search_star_bounded_by_grid_oracle():
    st = star_space(3)
    rep = best_embedding_search(1, st, iterations=500, seed=3)

    # Exhaustive 0.01-grid over the three leaf values in [-1, 1]; rounding
    # to the grid moves the objective by at most half a step.
    g = np.arange(-1.0, 1.0 + 1e-12, 0.01)
    a, b, c = np.meshgrid(g, g, g, indexing="ij")
    obj = np.minimum.reduce(
        [
            np.abs(a),
            np.abs(b),
            np.abs(c),
            np.abs(a - b) / 2,
            np.abs(a - c) / 2,
            np.abs(b - c) / 2,
        ]
    )
    grid_best = float(obj.max())
    assert rep.objective <= grid_best + 0.005 + 1e-9
    assert grid_best == pytest.approx(1 / 3, abs=0.01)


def test_search_reports_are_normalized_and_consistent():
    for seed in range(6):
        sp = random_space(5, seed + 20)
        rep = best_embedding_search(2, sp, iterations=60, seed=seed)
        fsp = sp.with_mode(exact=False)
        assert rep.objective <= 1 + 1e-12
        if rep.distortion is not None:
            assert 1 / rep.distortion <= rep.objective + 1e-12
            # distortion recomputed from scratch
            lip_h = max(f.lip for f in rep.functions)
            lip_hinv = max(
                fsp.d(x, y) / max(abs(f.values[x] - f.values[y]) for f in rep.functions)
                for x in fsp.points
                for y in fsp.points
                if x != y
            )
            assert rep.distortion == pytest.approx(lip_h * lip_hinv, rel=1e-9)


def test_search_deterministic_for_fixed_seed():
    sp = random_space(6, seed=30)
    rep1 = best_embedding_search(2, sp, iterations=80, seed=9)
    rep2 = best_embedding_search(2, sp, iterations=80, seed=9)
    assert rep1.objective == rep2.objective
    assert all(f1.values == f2.values for f1, f2 in zip(rep1.functions, rep2.functions))


def test_search_separates_when_every_restart_ends_at_zero():
    # Every regular restart here leaves several disjoint pairs unseparated,
    # which no one-value move can lift, so all of them end at objective 0.
    rep = best_embedding_search(1, random_space(10, 8), iterations=40, seed=3)
    assert rep.objective > 0 and rep.lip_hinv is not None


@pytest.mark.parametrize("iterations", [0, -5])
def test_search_rejects_fewer_than_one_iteration(iterations):
    with pytest.raises(ValueError, match="at least one iteration"):
        best_embedding_search(1, random_space(5, 2), iterations=iterations, seed=0)


def test_report_of_a_non_separating_family():
    # One coordinate that is 1 at both far points: the pair (1, 2) stays
    # unseparated, so the map is not injective.
    rep = _report_from_values([[0, 1, 1]], line_space([0, 1, 3]))
    assert rep.objective == 0 and rep.lip_h == 1
    assert rep.lip_hinv is None and rep.distortion is None


@pytest.mark.parametrize("exact", [True, False])
def test_search_rejects_a_one_point_space(exact):
    # The same error as frechet_embedding, not a report with objective 0.
    space = validate_metric([[0]], exact=exact)
    for embed in (frechet_embedding, lambda sp: best_embedding_search(2, sp, seed=0)):
        with pytest.raises(ValueError, match="need at least two points to embed"):
            embed(space)


def _per_row_report(rows, space):
    """The report as built one row at a time: ``LipschitzPotential.build``
    per row, the rescale by the largest constant, then ``alpha_objective``."""
    functions = tuple(LipschitzPotential.build(row, space) for row in rows)
    lip_h = max(f.lip for f in functions)
    if lip_h != 1:
        functions = tuple(LipschitzPotential.build([v / lip_h for v in f.values], space) for f in functions)
    one = coerce(1, space.exact)
    objective = alpha_objective(functions, space)
    if objective == 0:
        return EmbeddingReport(functions, one, None, None, objective)
    return EmbeddingReport(functions, one, 1 / objective, 1 / objective, objective)


def _report_cases():
    """(space, rows): Frechet rows and random rows with mixed denominators
    (which the report rescales) on int64 and Python-int exact grids; random
    float rows, also on a space whose tolerance is so small that a rescaled
    constant can land past 1."""
    rng = random.Random(4)
    big = F(10**20 + 39, 10**19 + 7)
    for seed in range(10):
        base = random_space(2 + seed % 6, seed)
        for mult in (1, big):
            sp = validate_metric([[v * mult for v in row] for row in base.dist])
            yield sp, [[sp.d(x, j) - sp.d(0, j) for x in sp.points] for j in sp.points]
            yield sp, [
                [0] + [F(rng.randint(-9, 9), rng.choice([1, 2, 7, 10**12 + 3])) for _ in range(sp.n - 1)]
                for _ in range(rng.randint(1, 4))
            ]
    for seed in range(200):
        fsp = random_space(3 + seed % 10, seed, exact=False)
        space = fsp if seed % 4 == 0 else dataclasses.replace(fsp, tol=1e-300)
        yield space, [[0.0] + [rng.uniform(-3, 3) for _ in range(fsp.n - 1)] for _ in range(2)]


def test_batched_report_matches_per_row_build():
    kinds = set()
    for sp, rows in _report_cases():
        functions, _, _ = _potentials(rows, sp)
        assert repr(functions) == repr(tuple(LipschitzPotential.build(row, sp) for row in rows))
        want = _per_row_report(rows, sp)
        assert repr(_report_from_values(rows, sp)) == repr(want)
        lips = [f.lip for f in functions]
        kinds.add((sp.exact, sp.grid[0].dtype.str, max(lips) != 1))
        kinds.add(("past 1 + tol", any(sp.cmp.gt(f.lip, 1) for f in want.functions)))
    assert {(True, "<i8", False), (True, "<i8", True), (True, "|O", False), (True, "|O", True)} <= kinds
    assert {(False, "<f8", True), ("past 1 + tol", True)} <= kinds


def test_batched_build_checks_rows_in_order():
    # The first bad row raises, with the message LipschitzPotential.build gives.
    sp = line_space([0, 1, 3])
    for rows, message in (
        ([[0, 1, 2], [1, 0, 0], [0, 1]], "potential must vanish at the base point"),
        ([[0, 1, 2], [0, 1], [1, 0, 0]], "2 values for a 3-point space"),
    ):
        with pytest.raises(ValueError, match=message):
            _potentials(rows, sp)
    one = validate_metric([[0]])
    functions, _, _ = _potentials([[0], [F(0)]], one)
    assert repr(functions) == repr((LipschitzPotential.build([0], one),) * 2)
    with pytest.raises(ValueError, match="2 values for a 1-point space"):
        _potentials([[0, 1]], one)
    with pytest.raises(ValueError, match="need at least two points to embed"):
        frechet_embedding(one)
