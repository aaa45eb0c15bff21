"""Answer gate: oracles that run outside the timed region.

* Free-space norms are re-solved as a transport linear program with
  ``scipy.optimize.linprog(method="highs")`` on the integer matrix the
  space was built from, and must agree to a relative tolerance of 1e-9.
* Cyclical-monotonicity verdicts are decided again by an integer
  Floyd-Warshall negative-cycle search on the pair graph, compared with the
  verdict a set has by construction where it has one, and, for sets of at
  most ``BRUTE_FORCE_MAX`` distinct pairs, with lipfree's definition-verbatim
  ``brute_force_monotone``.
* ``digest`` hashes every distinct answer (exact values as ``p/q``,
  verdicts with their certificates, CLI outputs by their bytes), so
  repeated runs of one seed can be compared.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from inputs import DENOM, lcm_of_denominators, pq

REL_TOL = 1e-9
BRUTE_FORCE_MAX = 7

Pair = Tuple[int, int]


class Mismatch(Exception):
    """An answer disagreed with its oracle."""


def lp_norm(K: np.ndarray, coeffs: Dict[int, Fraction]) -> float:
    """Transport cost of the functional, with the base point absorbing the
    mass imbalance, solved as an LP on integer-scaled data."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_array

    scale = lcm_of_denominators(coeffs.values())
    supply = {i: int(c * scale) for i, c in coeffs.items() if c > 0}
    demand = {i: int(-c * scale) for i, c in coeffs.items() if c < 0}
    imbalance = sum(supply.values()) - sum(demand.values())
    if imbalance > 0:
        demand[0] = imbalance
    elif imbalance < 0:
        supply[0] = -imbalance
    if not supply:
        return 0.0
    src, snk = sorted(supply), sorted(demand)
    ns, nt = len(src), len(snk)
    cost = K[np.ix_(src, snk)].astype(float).ravel()
    var = np.arange(ns * nt)
    rows = np.concatenate([var // nt, ns + var % nt])
    a_eq = coo_array((np.ones(2 * ns * nt), (rows, np.concatenate([var, var]))), shape=(ns + nt, ns * nt))
    b_eq = [supply[s] for s in src] + [demand[t] for t in snk]
    res = linprog(cost, A_eq=a_eq.tocsr(), b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise Mismatch(f"oracle LP failed: {res.message}")
    return res.fun / (DENOM * scale)


def check_norm(value, K: np.ndarray, coeffs: Dict[int, Fraction]) -> None:
    expected = lp_norm(K, coeffs)
    if abs(float(value) - expected) > REL_TOL * max(1.0, abs(expected)):
        raise Mismatch(f"norm {value} but the LP gives {expected!r}")


def has_negative_cycle(K: np.ndarray, pairs: Iterable[Pair]) -> bool:
    """Integer Floyd-Warshall on the pair graph w(i -> j) = d(x_i, y_j) - d(x_i, y_i)."""
    nodes = sorted(set(pairs))
    xs = np.array([x for x, _ in nodes])
    ys = np.array([y for _, y in nodes])
    dist = K[xs[:, None], ys[None, :]] - K[xs, ys][:, None]
    for k in range(len(nodes)):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
        # Stopping at the first negative diagonal keeps every entry a
        # simple-path length, so int64 cannot overflow.
        if (np.diagonal(dist) < 0).any():
            return True
    return False


def check_verdict(
    monotone: bool, K: np.ndarray, pairs: Sequence[Pair], known: Optional[bool], lf, space
) -> None:
    """``space`` is the lipfree space of ``K``, for the brute-force oracle."""
    oracle = not has_negative_cycle(K, pairs)
    if known is not None and oracle != known:
        raise Mismatch(f"set built to be monotone={known} but the oracle says {oracle}")
    if monotone != oracle:
        raise Mismatch(f"verdict monotone={monotone} but the oracle says {oracle}")
    if len(set(pairs)) <= BRUTE_FORCE_MAX:
        brute = lf.brute_force_monotone(lf.PairSet.of(list(pairs), space), space)
        if brute != monotone:
            raise Mismatch(f"verdict monotone={monotone} but brute force says {brute}")


def render(answer) -> str:
    if isinstance(answer, Fraction):
        return pq(answer)
    if isinstance(answer, float):
        return f"{answer:.12g}"
    if isinstance(answer, tuple):
        return "(" + ",".join(render(a) for a in answer) + ")"
    return str(answer)


def digest(answers: Dict[str, object]) -> str:
    text = "\n".join(f"{key}={render(answers[key])}" for key in sorted(answers))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
