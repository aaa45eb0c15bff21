from fractions import Fraction as F

import pytest

from lipfree import (
    build_i_family,
    exotic_metric,
    gamma_pairs,
    rational_enumeration,
)
from lipfree.exotic import check_family_properties, check_gamma_properties
from lipfree.numerics import coerce


@pytest.fixture(scope="module")
def family():
    return build_i_family(256)


def test_level_one_is_binary_ruler(family):
    assert family.members(1, 1)[:5] == (2, 4, 6, 8, 10)
    assert family.members(1, 2)[:4] == (3, 7, 11, 15)
    assert family.members(1, 3)[:3] == (5, 13, 21)
    covered = set()
    n = 1
    while 2 ** (n - 1) + 1 <= 256:
        covered |= set(family.members(1, n))
        n += 1
    assert covered == set(range(2, 257))


def test_min_above_level_index(family):
    for k in range(1, 17):
        for n in range(1, 9):
            members = family.members(k, n)
            assert all(p > k for p in members)
            for p in range(1, min(k, family.horizon) + 1):
                assert not family.member(k, n, p)


def test_fixed_level_disjointness(family):
    for k in range(1, 13):
        seen = {}
        for n in range(1, 10):
            for p in family.members(k, n):
                assert p not in seen, (k, n, seen[p])
                seen[p] = n


def test_properties_box(family):
    report = check_family_properties(family, max_index=8, max_elem=256)
    assert all(report.values()), report


def test_construction_trace_recorded(family):
    trace = family.trace
    assert trace[0] == (2, 1, 1)
    assert len(trace) == 255  # one entry per level 2..256
    parent = {level: (k0, n0) for level, k0, n0 in trace}

    def chain(a):
        """The sets containing every I_{a,n}, innermost first."""
        while a >= 2:
            a, n = parent[a]
            yield (a, n)

    for level, k0, n0 in trace:
        assert 1 <= k0 < level
        assert family.member(k0, n0, level)
        # No level between k0 and this one lives inside I_{k0,n0}, so the
        # split set needs no descent.
        assert all((k0, n0) not in chain(a) for a in range(k0 + 1, level))


def test_gamma_properties(family):
    report = check_gamma_properties(family, max_n=8, max_elem=256)
    assert all(report.values()), report
    g1 = gamma_pairs(family, 1, 64)
    assert (1, 2) in g1  # 2 is the first element of I_{1,1}
    assert all(k < p for k, p in g1)


def test_gamma_requires_horizon(family):
    with pytest.raises(ValueError):
        gamma_pairs(family, 1, 512)


def test_rational_enumeration_walk():
    first = [rational_enumeration(i) for i in range(1, 8)]
    assert first == [F(1), F(1, 2), F(2, 3), F(3, 5), F(3, 4), F(4, 7), F(5, 7)]
    values = [rational_enumeration(i) for i in range(1, 10001)]
    assert len(set(values)) == 10000
    assert all(F(1, 2) <= q <= 1 for q in values)
    assert F(1, 2) in values[:10] and F(1) in values[:10]


def test_exotic_metric_values(family):
    em = exotic_metric(64, family)
    assert em.d(5, 5) == 0
    for x in range(2, 65):
        assert em.d(1, x) == F(1, 2) == em.d(x, 1)
    # (2p, 2q+1) with q in I_{p,n}: p=1, q=2 lies in I_{1,1}, so d(2,5)=q_1=1
    assert em.d(2, 5) == F(1) == em.d(5, 2)
    # q=3 lies in I_{1,2}, so d(2,7) = q_2 = 1/2
    assert em.d(2, 7) == F(1, 2)
    for x in range(1, 65):
        for y in range(x + 1, 65):
            v = em.d(x, y)
            assert F(1, 2) <= v <= 1
            assert v == em.d(y, x)


def test_exotic_space_validates_and_has_base_one(family):
    em = exotic_metric(48, family)
    sp = em.as_space()
    assert sp.labels[0] == "1"
    assert sp.n == 48


@pytest.mark.parametrize("N", [2, 3, 5, 17, 64, 65, 256])
def test_as_space_matches_d_entrywise(N):
    em = exotic_metric(N)
    for exact in (True, False):
        sp = em.as_space(exact=exact)
        expected = tuple(
            tuple(coerce(em.d(x, y), exact) for y in range(1, N + 1)) for x in range(1, N + 1)
        )
        assert sp.exact == exact and sp.dist == expected
        assert {type(v) for row in sp.dist for v in row} == {F if exact else float}


def test_exotic_metric_horizon_guard(family):
    small = build_i_family(8)
    with pytest.raises(ValueError):
        exotic_metric(64, small)
    em = exotic_metric(16, small)
    assert em.d(1, 16) == F(1, 2)


def test_build_family_input_validation():
    with pytest.raises(ValueError):
        build_i_family(1)
    with pytest.raises(ValueError):
        rational_enumeration(0)


def _v2(t):
    return (t & -t).bit_length() - 1


class _ReferenceFamily:
    """The dict-based recipe the slot table replaced.  Level k >= 2 maps each
    element of its parent set's tail beyond k to the element's position t in
    that tail, and the element lies in slot v2(t) + 1."""

    def __init__(self, N):
        self.horizon = N
        self.levels = {}
        for level in range(2, N + 1):
            k0 = next((k for k in range(level - 1, 1, -1) if level in self.levels[k][2]), 1)
            n0 = self.slot(k0, level)
            tail = [p for p in self.members(k0, n0) if p > level]
            self.levels[level] = (k0, n0, {p: t for t, p in enumerate(tail, start=1)})

    def slot(self, k, p):
        if not 1 <= p <= self.horizon:
            return None
        if k == 1:
            return _v2(p - 1) + 1 if p >= 2 else None
        t = self.levels[k][2].get(p) if k in self.levels else None
        return None if t is None else _v2(t) + 1

    def members(self, k, n):
        if k == 1:
            return tuple(p for p in range(2, self.horizon + 1) if _v2(p - 1) + 1 == n)
        if k not in self.levels:
            return ()
        return tuple(sorted(p for p, t in self.levels[k][2].items() if _v2(t) + 1 == n))


@pytest.mark.parametrize("horizons", [range(2, 151), range(151, 301), [1024]])
def test_slot_table_matches_reference_recipe(horizons):
    for N in horizons:
        fam, ref = build_i_family(N), _ReferenceFamily(N)
        assert fam.trace == [(k, k0, n0) for k, (k0, n0, _) in sorted(ref.levels.items())]
        indices = range(-1, N + 2)
        # members over every (k, n) covers the whole table; slot gets every
        # (k, p) on small horizons and the out-of-range rows and columns on all.
        edges = indices if N <= 64 or N in (300, 1024) else (-1, 0, 1, 2, N - 1, N, N + 1)
        for k in edges:
            assert [fam.slot(k, p) for p in indices] == [ref.slot(k, p) for p in indices]
            assert [fam.slot(p, k) for p in indices] == [ref.slot(p, k) for p in indices]
        for n in range(-1, N.bit_length() + 2):
            members = [ref.members(k, n) for k in indices]
            assert [fam.members(k, n) for k in indices] == members
            for M in (N // 2, N):
                gamma = {(k, p) for k, ps in zip(indices, members) if 1 <= k <= M for p in ps if p <= M}
                assert gamma_pairs(fam, n, M) == gamma
