"""Metamorphic relations: the same problem posed two ways gives the same
answer.  Written as JSON or as CSV, an exact space gives the CLI the same
exit codes and the same bytes; an integer-distance space gives the same
norms and verdicts in exact and in float mode.  Relabelling the non-base
points, scaling the distances by a rational c > 0 (a float space by 2**k,
valid or broken), restricting the space to supp phi and the base point, and
moving the base point under a balanced functional change the answers only
as the mathematics says they must."""

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from lipfree import cli
from lipfree import io as lfio
from lipfree.instances import monotone_pair_set, random_functional, random_pair_set, random_space
from lipfree.metric import Functional, MetricError, validate_metric
from lipfree.monotonicity import PairSet, build_extremal_potential, check_cyclically_monotone
from lipfree.numerics import exact_repr
from lipfree.transport import free_norm, optimal_coupling


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 39), seed=st.integers(0, 10**6), monotone=st.booleans())
def test_json_and_csv_of_one_exact_space_print_the_same(n, seed, monotone):
    space = random_space(n, seed)
    phi = random_functional(space, seed)
    pairs = (monotone_pair_set(space, seed) if monotone else random_pair_set(space, seed, n)).pairs
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: Path(tmp, name) for name in ("s.json", "s.csv", "phi.json", "pairs.json")}
        files["s.json"].write_text(lfio.space_json(space))
        files["s.csv"].write_text(lfio.space_csv(space))
        label = space.labels
        files["phi.json"].write_text(json.dumps(
            {"coeffs": {label[i]: exact_repr(c) for i, c in phi.coeffs.items()}}))
        files["pairs.json"].write_text(json.dumps({"pairs": [[label[x], label[y]] for x, y in pairs]}))
        commands = [[cmd, "--functional", str(files["phi.json"])]
                    for cmd in ("norm", "coupling", "potential", "decompose")]
        commands += [["check-monotone", "--pairs", str(files["pairs.json"])], ["embed"]]
        for argv in commands:
            as_json = _run(argv + ["--input", str(files["s.json"])])
            assert as_json == _run(argv + ["--input", str(files["s.csv"])]), argv
            assert as_json[0] in (0, 1) and as_json[1], argv


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 47), seed=st.integers(0, 10**6))
def test_integer_distances_give_one_answer_in_both_modes(n, seed):
    rows = random_space(n, seed).grid[0].tolist()  # the k/12 space times 12
    exact, floating = validate_metric(rows, exact=True), validate_metric(rows, exact=False)
    rng = random.Random(seed)
    support = rng.sample(range(1, n), rng.randint(1, n - 1))
    coeffs = {i: rng.choice([-3, -2, -1, 1, 2, 3]) for i in support}
    value = free_norm(Functional(coeffs, exact), exact)
    assert free_norm(Functional(coeffs, floating), floating) == value
    for pairs in (monotone_pair_set(exact, seed).pairs, random_pair_set(exact, seed, n).pairs):
        verdict = check_cyclically_monotone(PairSet.of(pairs, exact), exact).monotone
        assert check_cyclically_monotone(PairSet.of(pairs, floating), floating).monotone == verdict


def _reindexed(space, order, c=1):
    """``space`` with its distances times ``c`` and point k at its point
    ``order[k]``; validated again, so the base point is ``order[0]``."""
    a, scale = space.grid
    rows = a[np.ix_(order, order)].tolist()
    if space.exact:
        rows = [[Fraction(v, scale) * c for v in row] for row in rows]
    return validate_metric(rows, exact=space.exact)


def _moved(phi, new_index, space):
    return Functional({new_index[i]: v for i, v in phi.coeffs.items()}, space)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(3, 24), seed=st.integers(0, 10**6), exact=st.booleans())
def test_relabelling_the_non_base_points_keeps_value_and_verdict(n, seed, exact):
    space = random_space(n, seed, exact=exact)
    order = [0] + random.Random(seed).sample(range(1, n), n - 1)
    new_index = {old: k for k, old in enumerate(order)}
    other = _reindexed(space, order)
    phi = random_functional(space, seed)
    value, moved = free_norm(phi, space), free_norm(_moved(phi, new_index, other), other)
    if exact:
        assert moved == value
    else:
        assert abs(moved - value) <= 1e-15 * value
    for pairs in (monotone_pair_set(space, seed).pairs, random_pair_set(space, seed, n).pairs):
        relabelled = PairSet.of([(new_index[x], new_index[y]) for x, y in pairs], other)
        verdict = check_cyclically_monotone(PairSet.of(pairs, space), space).monotone
        assert check_cyclically_monotone(relabelled, other).monotone == verdict


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(3, 24),
    seed=st.integers(0, 10**6),
    c=st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
)
def test_scaling_the_distances_scales_every_value_and_keeps_every_choice(n, seed, c):
    space = random_space(n, seed)
    scaled = _reindexed(space, list(range(n)), c)
    phi = random_functional(space, seed)
    result, other = optimal_coupling(phi, space), optimal_coupling(Functional(phi.coeffs, scaled), scaled)
    assert other.value == c * result.value and other.coupling == result.coupling
    assert other.representation == result.representation.scaled(c)
    assert other.potential.values == tuple(c * v for v in result.potential.values)
    monotone = monotone_pair_set(space, seed)
    f = build_extremal_potential(monotone, space)
    assert build_extremal_potential(PairSet.of(monotone.pairs, scaled), scaled).values == tuple(
        c * v for v in f.values
    )
    pairs = random_pair_set(space, seed, n)
    cert, scaled_cert = (check_cyclically_monotone(pairs, sp) for sp in (space, scaled))
    assert (scaled_cert.monotone, scaled_cert.cycle) == (cert.monotone, cert.cycle)
    assert scaled_cert.slack == (None if cert.monotone else c * cert.slack)


def _float_validation(a):
    """``validate_metric`` of the float matrix ``a``: the space, or the error class and witness."""
    try:
        return validate_metric(a.tolist(), exact=False)
    except MetricError as exc:
        return type(exc), exc.witness


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(3, 16),
    seed=st.integers(0, 10**6),
    k=st.integers(-900, 900),
    broken=st.sampled_from([None, "triangle", "asymmetry", "zero"]),
)
def test_scaling_a_float_space_by_a_power_of_two_scales_every_answer(n, seed, k, broken):
    # Multiplying a float by 2**k is exact in this range, so the float
    # thresholds, relative to the largest distance, decide alike at any scale.
    a = random_space(n, seed, exact=False).grid[0].copy()
    i, j, m = sorted(random.Random(seed).sample(range(n), 3))
    if broken == "triangle":
        a[i, m] = a[m, i] = a[i, j] + a[j, m] + 1 / 12
    elif broken == "asymmetry":
        a[i, j] += 1 / 12
    elif broken == "zero":
        a[i, j] = a[j, i] = 0.0
    c = 2.0**k
    space, scaled = _float_validation(a), _float_validation(a * c)
    if broken:
        assert space == scaled and space[0] is not None
        return
    assert (scaled.grid[0] == c * space.grid[0]).all()
    for pairs in (monotone_pair_set(space, seed).pairs, random_pair_set(space, seed, n).pairs):
        cert, scaled_cert = (check_cyclically_monotone(PairSet.of(pairs, sp), sp) for sp in (space, scaled))
        assert (scaled_cert.monotone, scaled_cert.cycle) == (cert.monotone, cert.cycle)
        assert scaled_cert.slack == (None if cert.monotone else c * cert.slack)
    phi = random_functional(space, seed)
    result, other = optimal_coupling(phi, space), optimal_coupling(Functional(phi.coeffs, scaled), scaled)
    assert other.coupling == result.coupling and other.value == c * result.value
    assert other.representation == result.representation.scaled(c)
    assert other.potential.values == tuple(c * v for v in result.potential.values)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(3, 32), seed=st.integers(0, 10**6))
def test_restricting_the_space_to_the_support_keeps_the_norm(n, seed):
    space = random_space(n, seed)
    phi = random_functional(space, seed)
    order = [0, *phi.support]
    sub = _reindexed(space, order)
    assert free_norm(_moved(phi, {old: k for k, old in enumerate(order)}, sub), sub) == free_norm(phi, space)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(3, 24), seed=st.integers(0, 10**6), data=st.data())
def test_moving_the_base_point_keeps_a_balanced_norm(n, seed, data):
    space = random_space(n, seed)
    coeffs = random_functional(space, seed).coeffs
    coeffs[max(coeffs)] -= sum(coeffs.values())  # balanced: the base point carries nothing
    phi = Functional(coeffs, space)
    base = data.draw(st.integers(1, n - 1))
    order = [base] + [i for i in range(n) if i != base]
    other = _reindexed(space, order)
    # phi is balanced, so the coefficient dropped at the new base point loses nothing.
    assert free_norm(_moved(phi, {old: k for k, old in enumerate(order)}, other), other) == free_norm(phi, space)
