"""Dual-mode arithmetic: exact rationals or tolerance-gated 64-bit floats.

Exact mode represents all quantities as :class:`fractions.Fraction`
(and integer lattices), so its answers are bit-exact; ``Fraction``'s own
parser reads a float as its decimal literal ``str(value)`` (``0.1`` means
``1/10``).  Certificate checks compare through a :class:`Comparator`,
which adds a single absolute tolerance in float mode and none in exact mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Number = Union[int, float, Fraction]

DEFAULT_TOLERANCE = 1e-9
#: Spaces up to this many points run in exact mode unless told otherwise.
EXACT_SIZE_LIMIT = 64


def exact_mode(n: int, exact: bool | None = None) -> bool:
    """``exact`` if given, else whether an n-point space is small enough for exact mode."""
    return n <= EXACT_SIZE_LIMIT if exact is None else exact


def coerce(value: Number, exact: bool) -> Number:
    """Normalize one number for the requested arithmetic mode."""
    if exact:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError(f"non-finite value {value!r} in exact mode")
            return Fraction(str(value))
        raise TypeError(f"cannot use {type(value).__name__} in exact mode")
    try:
        return float(value)
    except OverflowError:  # an int or rational past float's range
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class Comparator:
    """Single point of truth for numeric comparisons.

    ``tol`` is an absolute tolerance and is ignored in exact mode.
    """

    exact: bool = True
    tol: float = DEFAULT_TOLERANCE

    def eq(self, a: Number, b: Number) -> bool:
        if self.exact:
            return a == b
        return abs(a - b) <= self.tol

    def le(self, a: Number, b: Number) -> bool:
        if self.exact:
            return a <= b
        return a <= b + self.tol

    def gt(self, a: Number, b: Number) -> bool:
        return not self.le(a, b)


def left_sum(values: Iterable[Number], start: Number = 0) -> Number:
    """``start`` plus ``values``, added one at a time from the left.

    Unlike ``sum()``, whose float additions are compensated from Python
    3.12 on, every float term costs one IEEE addition, so a float answer
    does not depend on the Python version.
    """
    total = start
    for v in values:
        total += v
    return total


def round12(x: Number) -> float:
    """Round to 12 significant digits (the fixed CLI output precision)."""
    return float(f"{float(x):.12g}")


def exact_repr(x: Number) -> str:
    """Lossless string form of a rational, e.g. ``'3/4'`` or ``'2'``."""
    f = Fraction(x) if not isinstance(x, Fraction) else x
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
