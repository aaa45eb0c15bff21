import random
from fractions import Fraction

import pytest

from lipfree.instances import random_space


def _fraction_closure(n, seed, max_weight=12):
    """Reference: the same random weights closed by Floyd-Warshall in
    Fraction arithmetic."""
    rng = random.Random(seed)
    w = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = Fraction(rng.randint(1, max_weight), rng.choice((1, 2, 3, 4)))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if w[i][j] > w[i][k] + w[k][j]:
                    w[i][j] = w[i][k] + w[k][j]
    return w


@pytest.mark.parametrize("exact", [True, False])
def test_random_space_equals_fraction_closure(exact):
    for n in (1, 2, 3, 7, 16, 30):
        for seed in range(4):
            for max_weight in (12, 1000):
                sp = random_space(n, seed, exact=exact, max_weight=max_weight)
                ref = _fraction_closure(n, seed, max_weight)
                expected = ref if exact else [[float(v) for v in row] for row in ref]
                assert sp.exact == exact
                assert sp.dist == tuple(map(tuple, expected))
