from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from lipfree.numerics import Comparator, coerce, exact_repr, round12


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
