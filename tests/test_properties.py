"""Property-based checks of the algebraic invariants."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from lipfree import (
    Functional,
    LipschitzPotential,
    PairMeasure,
    PairSet,
    brute_force_monotone,
    check_cyclically_monotone,
    daleth,
    de_leeuw_transform,
    evaluate,
    free_norm,
    functional_of,
    lip_constant,
    reflect,
    validate_metric,
    weight_function,
    weighted_adjoint,
)


@st.composite
def spaces(draw, min_points=2, max_points=6):
    n = draw(st.integers(min_points, max_points))
    w = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = F(draw(st.integers(1, 9)), draw(st.sampled_from([1, 2])))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if w[i][j] > w[i][k] + w[k][j]:
                    w[i][j] = w[i][k] + w[k][j]
    return validate_metric(w)


def coeffs_for(draw, space, nonzero=False):
    items = draw(
        st.lists(
            st.tuples(
                st.integers(1, space.n - 1),
                st.fractions(min_value=-5, max_value=5, max_denominator=4),
            ),
            min_size=1 if nonzero else 0,
            max_size=4,
        )
    )
    return Functional(dict(items), space)


def potential_for(draw, space):
    vals = [F(0)] + [
        draw(st.fractions(min_value=-8, max_value=8, max_denominator=4))
        for _ in range(space.n - 1)
    ]
    return LipschitzPotential.build(vals, space)


@st.composite
def space_and_measure(draw):
    space = draw(spaces())
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, space.n - 1), st.integers(0, space.n - 1)),
            min_size=1,
            max_size=5,
        ).map(lambda ps: [(x, y) for x, y in ps if x != y])
    )
    mass = {
        p: draw(st.fractions(min_value=-4, max_value=4, max_denominator=3))
        for p in set(pairs)
    }
    return space, PairMeasure(mass, space)


@settings(max_examples=60, deadline=None)
@given(space_and_measure())
def test_reflection_involution_and_cancellation(sm):
    space, mu = sm
    assert reflect(reflect(mu)) == mu
    assert functional_of(mu.plus(reflect(mu)), space).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_de_leeuw_sup_norm_is_lip(data):
    space = data.draw(spaces())
    f = potential_for(data.draw, space)
    q = de_leeuw_transform(f, space)
    assert max(abs(v) for v in q.values()) == f.lip == lip_constant(f.values, space)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_norm_homogeneity_and_triangle(data):
    space = data.draw(spaces())
    phi = coeffs_for(data.draw, space)
    psi = coeffs_for(data.draw, space)
    c = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
    assert free_norm(phi.scaled(c, space), space) == abs(c) * free_norm(phi, space)
    assert free_norm(phi.plus(psi, space), space) <= free_norm(phi, space) + free_norm(
        psi, space
    )


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_adjoint_identity(data):
    space = data.draw(spaces())
    phi = coeffs_for(data.draw, space)
    f = potential_for(data.draw, space)
    n = data.draw(st.integers(-4, 8))
    h = daleth(n, space)
    assert evaluate(weighted_adjoint(phi, h, space), f) == evaluate(
        phi, weight_function(f, h, space)
    )


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_checker_matches_bruteforce(data):
    space = data.draw(spaces(min_points=3))
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, space.n - 1), st.integers(0, space.n - 1)),
            min_size=1,
            max_size=4,
        ).map(lambda ps: [(x, y) for x, y in ps if x != y])
    )
    if not pairs:
        return
    if data.draw(st.booleans()):
        space = space.with_mode(exact=False)
    C = PairSet.of(pairs, space)
    assert check_cyclically_monotone(C, space).monotone == brute_force_monotone(C, space)
