"""SHA-256 digests over the reprs of every kind of certificate lipfree emits,
on spaces large enough that the solvers' tie-breaks decide the answer.

Transport (value, coupling, representation, potential) runs on exact spaces
of 32-64 points and float spaces of 66-128 points, with full and partial
support and on spaces whose distances are all 1 or 2.  The monotonicity
checker's (verdict, cycle, slack) runs on random and reversed-geodesic pair
sets of up to 60 pairs in both modes, extremal potentials on geodesic sets,
and the molecule decomposition and Frechet embedding on two spaces.

A solver rewrite must keep every answer repr for repr; a digest that moves
names an answer that changed.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from lipfree import (
    Functional,
    PairSet,
    build_extremal_potential,
    check_cyclically_monotone,
    frechet_embedding,
    molecule_decomposition,
    optimal_coupling,
    validate_metric,
)
from lipfree.instances import random_space

PINNED = {
    "transport_exact": "69f11515482feac9b76d982e877c81e4b819c440d8bffc46082a60daf5f6e8e5",
    "transport_float": "502ee2db67c98282c5abda8f1ed4ea2aedae49bf8b187873b002f5d8605fc1dd",
    "transport_ties": "5528ee9c99f0bb3d9af51888264d12073fa3b09495580cd54ea83e040bad75e3",
    "check_random": "83c919560ea62177fabf6e82b7337b721d60022d850e5c2abccc77340f37465b",
    "check_reversed_geodesic": "d9ec793fca577567c5c43c4f0e8e59d3f56199e735b5761dd3a211474f2c9d45",
    "extremal_geodesic": "f8969efbca65067e0982e87cf12077f06c465c9bbd776801cce883151814664e",
    "decomposition_and_embedding": "2d8a803fc395ccd66bde5c66bf80620105e85ecde291a3d82ba9f823408ec130",
}


def two_distance_space(n, seed, exact=True):
    """Every distance 1 or 2, so any such matrix is a metric and ties abound."""
    rng = random.Random(seed)
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.choice([1, 2])
    return validate_metric(d, exact=exact)


def functional(space, seed, support=None, values=(-4, -3, -2, -1, 1, 2, 3, 4), dens=(1, 2, 3)):
    """Rational coefficients on ``support`` random non-base points, or on all of them."""
    rng = random.Random(seed)
    points = list(range(1, space.n))
    if support is not None:
        points = sorted(rng.sample(points, support))
    return Functional({i: Fraction(rng.choice(values), rng.choice(dens)) for i in points}, space)


def solve(phi, space):
    res = optimal_coupling(phi, space)
    return res.value, res.coupling, res.representation, res.potential.values


def geodesic_pairs(space, z):
    """Every (x, y), x != y, with y on a geodesic from x to z."""
    d, _ = space.grid
    return [
        (x, y) for x in range(space.n) for y in range(space.n)
        if x != y and d[x, z] == d[x, y] + d[y, z]
    ]


def geodesic_set(space, size, rng):
    while True:
        z = rng.randrange(space.n)
        geo = geodesic_pairs(space, z)
        if len(geo) >= size and any(y != z for _, y in geo):
            return z, geo


def reversed_geodesic_set(space, size, rng):
    """A geodesic set towards z with one inner pair (x, y) reversed: (y, x)
    and (x, z) then form a violating 2-cycle, among ``size`` pairs."""
    z, geo = geodesic_set(space, size, rng)
    x, y = rng.choice([(x, y) for x, y in geo if y != z])
    rest = [p for p in geo if p not in ((x, y), (x, z))]
    pairs = rng.sample(rest, size - 2) + [(y, x), (x, z)]
    rng.shuffle(pairs)
    return pairs


def random_pairs(n, size, rng):
    seen = {}
    while len(seen) < size:
        x, y = rng.randrange(n), rng.randrange(n)
        if x != y:
            seen[(x, y)] = None
    return list(seen)


def certificate(pairs, space):
    cert = check_cyclically_monotone(PairSet.of(pairs, space), space)
    return cert.monotone, cert.cycle, cert.slack


def both_modes(space):
    return space, space.with_mode(exact=False)


def transport_exact():
    for n, seed in ((32, 1), (48, 2), (64, 3)):
        space = random_space(n, seed)
        yield solve(functional(space, seed), space)
        yield solve(functional(space, seed + 100, support=n // 4), space)


def transport_float():
    for n, seed in ((66, 4), (96, 5), (128, 6)):
        space = random_space(n, seed, exact=False)
        yield solve(functional(space, seed), space)
        yield solve(functional(space, seed + 100, support=n // 8), space)


def transport_ties():
    for n, seed, exact in ((40, 7, True), (64, 8, True), (100, 9, False)):
        space = two_distance_space(n, seed, exact)
        yield solve(functional(space, seed, values=(-1, 1), dens=(1,)), space)
        yield solve(functional(space, seed + 100, support=n // 3, values=(-2, -1, 1, 2), dens=(1,)), space)


def check_random():
    rng = random.Random(10)
    space = random_space(64, 10)
    for size in (6, 20, 40, 60):
        pairs = random_pairs(space.n, size, rng)
        for s in both_modes(space):
            yield certificate(pairs, s)


def check_reversed_geodesic():
    rng = random.Random(11)
    space = random_space(48, 11)
    for size in (4, 16, 32, 60):
        pairs = reversed_geodesic_set(space, size, rng)
        for s in both_modes(space):
            yield certificate(pairs, s)


def extremal_geodesic():
    rng = random.Random(12)
    space = random_space(48, 12)
    for size in (1, 8, 24, 60):
        _, geo = geodesic_set(space, size, rng)
        pairs = rng.sample(geo, size)
        for s in both_modes(space):
            yield certificate(pairs, s)
            yield build_extremal_potential(PairSet.of(pairs, s), s).values


def decomposition_and_embedding():
    for space in (random_space(40, 13), two_distance_space(32, 14)):
        for s in both_modes(space):
            yield molecule_decomposition(functional(s, 15), s)
            rep = frechet_embedding(s)
            yield rep.objective, rep.lip_h, rep.lip_hinv, rep.distortion, [f.values for f in rep.functions]


CASES = {f.__name__: f for f in (
    transport_exact, transport_float, transport_ties, check_random,
    check_reversed_geodesic, extremal_geodesic, decomposition_and_embedding,
)}


def digest(case):
    h = hashlib.sha256()
    for answer in CASES[case]():
        h.update(repr(answer).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_certificates_match_pinned_digests(case):
    assert digest(case) == PINNED[case]
