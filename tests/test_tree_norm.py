"""Godard's tree formula (``oracles.tree_norm``) against the transport
solver: exactly on tree spaces of up to 64 points, Steiner points and an
ultrametric family included, and in float mode on one full-support
256-point space."""

import random
from fractions import Fraction as F

from lipfree import Functional, LipschitzPotential, evaluate, lip_constant, optimal_coupling
from lipfree.instances import _tree_space, random_functional, tree_space
from lipfree.oracles import tree_norm


def _ultrametric(levels, branching, seed):
    """The leaves of a complete tree whose edges weigh the same on each level,
    so every leaf lies at one depth: an ultrametric space, based at a random
    leaf.  Vertices are numbered level by level, so parents come first."""
    rng = random.Random(seed)
    level_weight = [F(rng.randint(1, 12), rng.choice((1, 2, 3, 4))) for _ in range(levels)]
    parent, weight, level = [None], [F(0)], [[0]]
    for depth in range(levels):
        level.append([])
        for u in level[depth]:
            for _ in range(branching):
                level[-1].append(len(parent))
                parent.append(u)
                weight.append(level_weight[depth])
    leaves = level[-1]
    rng.shuffle(leaves)
    return _tree_space(parent, weight, leaves, exact=True), (parent, weight, leaves)


def _tree_cases():
    """(space, tree): 270 random tree spaces of 2-32 points, most with
    Steiner points, 20 of 33-64 points, each with Steiner points, and 40
    ultrametric ones.  Geodesic ties are everywhere in a tree, so the exact
    solver's float screen meets many equal shadows."""
    for seed in range(270):
        points = 2 + seed % 31
        yield tree_space(points + seed % 7 * seed % 13, points, seed)
    for seed in range(20):
        points = 33 + seed * 31 // 19
        yield tree_space(points + 1 + seed % 5 * 4, points, 270 + seed)
    for seed in range(40):
        yield _ultrametric(2 + seed % 3, 2 + seed % 2, seed)


def test_tree_norm_equals_free_norm_exactly_and_its_potential_norms():
    cases = 0
    for seed, (space, tree) in enumerate(_tree_cases()):
        phi = random_functional(space, seed)
        norm, values = tree_norm(phi, tree)
        result = optimal_coupling(phi, space)
        assert norm == result.value == evaluate(phi, result.potential)
        assert values[0] == 0
        assert lip_constant(values, space) <= 1
        assert evaluate(phi, LipschitzPotential.build(values, space)) == norm
        cases += 1
    assert cases >= 330


def test_tree_spaces_have_steiner_points_and_ultrametrics_are_ultrametric():
    space, (parent, _, vertex) = tree_space(40, 12, seed=3)
    assert space.n == 12 and len(parent) == 40 and len(set(vertex)) == 12 and vertex[0] == 0
    space, _ = _ultrametric(3, 2, seed=1)
    d = space.d
    assert space.n == 8
    assert all(d(x, z) <= max(d(x, y), d(y, z)) for x in space.points for y in space.points for z in space.points)


def test_float_tree_norm_at_256_points():
    space, tree = tree_space(384, 256, seed=28, exact=False)
    rng = random.Random(28)
    phi = Functional({i: rng.choice([-3, -2, -1, 1, 2, 3]) for i in range(1, space.n)}, space)
    norm, _ = tree_norm(phi, tree)
    assert abs(optimal_coupling(phi, space).value - norm) <= 1e-9 * norm
