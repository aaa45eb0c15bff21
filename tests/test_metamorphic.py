"""Metamorphic relations: the same problem posed two ways gives the same
answer.  Written as JSON or as CSV, an exact space gives the CLI the same
exit codes and the same bytes; an integer-distance space gives the same
norms and verdicts in exact and in float mode."""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from lipfree import cli
from lipfree import io as lfio
from lipfree.instances import monotone_pair_set, random_functional, random_pair_set, random_space
from lipfree.metric import Functional, validate_metric
from lipfree.monotonicity import PairSet, check_cyclically_monotone
from lipfree.numerics import exact_repr
from lipfree.transport import free_norm


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
