import math
from fractions import Fraction as F

import pytest

from lipfree import (
    Functional,
    WeightFunction,
    daleth,
    delta,
    evaluate,
    pi_window,
    rho,
    weight_function,
    weighted_adjoint,
)
from lipfree.instances import line_space, random_functional, random_potential, random_space


def radii_space(radii):
    """Points on a half-line at the given distances from the base."""
    return line_space([0] + list(radii))


@pytest.mark.parametrize("n", [-3, -1, 0, 2, 5])
def test_daleth_branch_values(n):
    two = F(2)
    sp = radii_space([two**n / 2, 3 * two**n / 2, two ** (n + 2)])
    h = daleth(n, sp)
    assert h.values[1] == 1  # rho = 2^(n-1) <= 2^n
    assert h.values[2] == F(1, 2)  # rho = 1.5 * 2^n, middle branch
    assert h.values[3] == 0  # rho = 2^(n+2) >= 2^(n+1)
    assert h.values[0] == 1  # base point is inside every cutoff


def test_daleth_boundary_agreement():
    n = 1
    sp = radii_space([F(2) ** n, F(2) ** (n + 1)])
    h = daleth(n, sp)
    assert h.values[1] == 1  # both branches give 1 at rho = 2^n
    assert h.values[2] == 0  # both branches give 0 at rho = 2^(n+1)


def test_pi_window_examples():
    n = 2
    sp = radii_space([F(2) ** (-n + 1), F(1), F(2) ** n])
    win = pi_window(n, sp)
    assert win.values[0] == 0  # base point
    assert win.values[1] == 1 and win.values[3] == 1  # plateau edges
    with pytest.raises(ValueError):
        pi_window(0, sp)


def test_pi_window_difference_equals_product_form():
    for seed in range(20):
        sp = random_space(6, seed)
        for n in (1, 2, 3):
            win = pi_window(n, sp)
            outer = daleth(n, sp)
            inner = daleth(-n, sp)
            prod = tuple(a * (1 - b) for a, b in zip(outer.values, inner.values))
            assert win.values == prod


@pytest.mark.parametrize("n", [1, 3])
def test_weights_equal_when_their_values_do(n):
    sp = random_space(6, seed=3)
    for h in (daleth(n, sp), daleth(-n, sp), pi_window(n, sp)):
        assert h == WeightFunction(h.values)


def test_weight_function_identity_and_stability():
    sp = random_space(5, seed=3)
    ones = WeightFunction(tuple(F(1) for _ in sp.points))
    f = random_potential(sp, seed=4)
    assert weight_function(f, ones, sp).values == f.values

    r = rho(sp)
    n_big = max(0, math.ceil(math.log2(float(max(r.values[1:]))))) + 1
    assert weight_function(r, daleth(n_big, sp), sp).values == r.values


def test_weighting_operator_three_bound_sampled():
    for seed in range(200):
        sp = random_space(3 + seed % 5, seed + 100)
        f = random_potential(sp, seed + 200)
        n = -4 + seed % 13
        wf = weight_function(f, daleth(n, sp), sp)
        assert wf.lip <= 3 * f.lip


def test_weighted_adjoint_examples():
    sp = radii_space([1, 4, 8])
    h = daleth(0, sp)  # cutoff at radius 2: kills points at 4 and 8
    assert h.values == (F(1), F(1), F(0), F(0))
    assert weighted_adjoint(delta(2, sp), h, sp).is_zero()
    phi = Functional({1: F(2), 2: F(1), 3: F(-3)}, sp)
    assert weighted_adjoint(phi, h, sp) == Functional({1: F(2)}, sp)
    assert weighted_adjoint(phi, daleth(3, sp), sp) == phi  # 2^3 covers max rho


def test_adjoint_identity_exact():
    for seed in range(100):
        sp = random_space(3 + seed % 5, seed + 300)
        phi = random_functional(sp, seed + 400)
        f = random_potential(sp, seed + 500)
        n = -4 + seed % 13
        h = daleth(n, sp)
        assert evaluate(weighted_adjoint(phi, h, sp), f) == evaluate(
            phi, weight_function(f, h, sp)
        )


def test_adjoint_sequence_eventually_constant():
    for seed in range(20):
        sp = random_space(5, seed + 600)
        phi = random_functional(sp, seed + 700)
        max_rho = max(sp.d(x, 0) for x in sp.points)
        n0 = max(0, math.ceil(math.log2(float(max_rho))))
        for n in range(n0, n0 + 3):
            assert weighted_adjoint(phi, daleth(n, sp), sp) == phi


def test_weight_function_values_stay_in_unit_interval():
    with pytest.raises(ValueError):
        WeightFunction((F(0), F(3, 2)))
