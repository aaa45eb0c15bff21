import math
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from lipfree.instances import star_space
from lipfree.metric import Functional, LipschitzPotential, evaluate
from lipfree.numerics import Comparator, coerce, exact_repr, left_sum, round12
from lipfree.transport import PairMeasure, apply_representation


def test_coerce_exact_decimal_semantics():
    assert coerce(0.1, exact=True) == F(1, 10)
    assert coerce(3, exact=True) == F(3)
    assert coerce(F(2, 7), exact=True) == F(2, 7)
    with pytest.raises(ValueError):
        coerce(float("inf"), exact=True)


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.225073858507201e-308)
@example(1.7976931348623157e308)
@example(-1e-310)
@example(1e22)
@example(1e16)
def test_coerce_reads_a_float_as_its_decimal_literal(v):
    assert coerce(v, exact=True) == F(Decimal(repr(v)))


def test_coerce_float_mode():
    assert coerce(F(1, 4), exact=False) == 0.25
    assert isinstance(coerce(2, exact=False), float)


def test_comparator_exact():
    cmp = Comparator(exact=True)
    assert cmp.eq(F(1, 3), F(2, 6))


def test_comparator_float_tolerance():
    cmp = Comparator(exact=False, tol=1e-9)
    assert cmp.eq(1.0, 1.0 + 1e-10)
    assert not cmp.eq(1.0, 1.0 + 1e-8)
    assert cmp.le(1.0 + 1e-10, 1.0)
    assert cmp.gt(1.0 + 1e-8, 1.0)


def test_round12_and_exact_repr():
    assert round12(F(1, 3)) == 0.333333333333
    assert round12(0.3) == 0.3
    assert exact_repr(F(3, 4)) == "3/4"
    assert exact_repr(F(8, 4)) == "2"


def test_float_totals_add_left_to_right_on_every_python():
    # 0.1 ten times: 0.9999999999999999 one addition at a time, 1.0 when
    # the additions are compensated, as sum() does from Python 3.12 on.
    tenth, sequential = 0.1, 0.9999999999999999
    assert math.fsum([tenth] * 10) == 1.0 != sequential
    assert left_sum([tenth] * 10) == sequential and left_sum([], 0.0) == 0.0
    assert left_sum([F(1, 10)] * 10) == 1
    space = star_space(10).with_mode(exact=False)  # the base point at distance 1 from each leaf
    phi = Functional({i: tenth for i in range(1, 11)}, space)
    f = LipschitzPotential.build([0.0] + [1.0] * 10, space)
    mu = PairMeasure({(i, 0): tenth for i in range(1, 11)})
    assert phi.total() == evaluate(phi, f) == sequential
    assert mu.total_variation() == apply_representation(mu, f, space) == sequential
