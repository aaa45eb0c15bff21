"""Radial cutoff weights and the multiplication operators they induce.

The canonical cutoffs are 1 inside the ball of radius 2^n around the base
point, 0 outside radius 2^(n+1), and linear in the distance in between;
differences of two of them give annular windows.  Multiplying a potential
by a cutoff has operator norm at most 3, and on a finite space the
adjoint action on functionals stabilizes once the cutoff covers all of M.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .metric import FiniteMetricSpace, Functional, LipschitzPotential
from .numerics import Number, coerce


@dataclass(frozen=True)
class WeightFunction:
    """Pointwise weights in [0, 1]."""

    values: Tuple[Number, ...]

    def __post_init__(self):
        for v in self.values:
            if v < 0 or v > 1:
                raise ValueError(f"weight {v} outside [0, 1]")

    def __call__(self, i: int) -> Number:
        return self.values[i]


def daleth(n: int, space: FiniteMetricSpace) -> WeightFunction:
    """Radial cutoff: 1 up to radius 2^n, 0 beyond 2^(n+1), linear between."""
    two = coerce(2, space.exact)
    lo = two**n
    hi = two ** (n + 1)
    one = coerce(1, space.exact)
    zero = coerce(0, space.exact)
    vals = []
    for i in space.points:
        r = space.d(i, 0)
        if r <= lo:
            vals.append(one)
        elif r >= hi:
            vals.append(zero)
        else:
            vals.append(2 - r / lo)
    return WeightFunction(tuple(vals))


def pi_window(n: int, space: FiniteMetricSpace) -> WeightFunction:
    """Annular window: difference of the level-n and level-(-n) cutoffs.

    Equals the product form daleth(n) * (1 - daleth(-n)) pointwise.
    """
    if n < 1:
        raise ValueError("window index must be a positive integer")
    outer = daleth(n, space)
    inner = daleth(-n, space)
    vals = tuple(a - b for a, b in zip(outer.values, inner.values))
    return WeightFunction(vals)


def weight_function(
    f: LipschitzPotential, h: WeightFunction, space: FiniteMetricSpace
) -> LipschitzPotential:
    """Pointwise product f*h; for the radial cutoffs lip grows at most 3x."""
    return LipschitzPotential.build(
        [a * b for a, b in zip(f.values, h.values)], space
    )


def weighted_adjoint(
    phi: Functional, h: WeightFunction, space: FiniteMetricSpace
) -> Functional:
    """Adjoint action on functionals: coefficients multiply by the weight.

    For a cutoff wide enough to cover all of M this is the identity; that
    is the finite-space form of the stabilization of the adjoint sequence.
    """
    return Functional({i: c * h.values[i] for i, c in phi.coeffs.items()}, space)
