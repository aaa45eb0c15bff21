"""Standing defects, each pinned as a strict xfail.

Each test asserts the behaviour the ROADMAP item asks for.  Until the item
is mended the test fails, and the xfail holds; the change that mends it
makes the test pass, which a strict marker reports as a failure, so that
change must remove the marker and keep the test as the mend's guard.
"""

import json
from fractions import Fraction as F

import pytest

from lipfree import (
    PairSet,
    build_extremal_potential,
    check_cyclically_monotone,
    cli,
    validate_metric,
    verify_extremal,
)
from lipfree import io as lfio
from lipfree.instances import random_space
from lipfree.metric import ZeroOffDiagonal


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: a float space file holds 12-digit distances and no "
                   "arithmetic mode, so it reloads as a different space, or as an exact one that breaks a triangle",
                   raises=AssertionError)
def test_float_space_json_reloads_as_the_space_written(tmp_path):
    path = tmp_path / "space.json"
    for seed in range(50):
        space = validate_metric([[v * 0.1 for v in row] for row in random_space(12, seed, exact=False).dist],
                                exact=False)
        path.write_text(lfio.space_json(space))
        assert lfio.load_space(str(path), exact=False) == space
        assert lfio.load_space(str(path)) == space


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: float validation compares distances with an absolute "
                   "tolerance, so a valid space scaled by 1e-9 raises ZeroOffDiagonal",
                   raises=ZeroOffDiagonal)
def test_float_validation_accepts_a_valid_space_at_any_scale():
    rows = random_space(20, 0, exact=False).dist
    for scale in (1e-6, 1e-9):
        assert validate_metric([[v * scale for v in row] for row in rows], exact=False).n == 20


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: an exact coupling document prints its masses at 12 "
                   "digits, so they do not reproduce its value_exact",
                   raises=AssertionError)
def test_exact_coupling_document_reproduces_its_value(capsys, tmp_path):
    space, phi = tmp_path / "space.json", tmp_path / "phi.json"
    space.write_text(json.dumps({"labels": ["0", "a", "b"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}))
    phi.write_text(json.dumps({"coeffs": {"a": "1/3"}}))
    assert cli.main(["coupling", "--input", str(space), "--functional", str(phi)]) == 0
    doc = json.loads(capsys.readouterr().out)
    sp = lfio.load_space(str(space))
    cost = sum(F(str(m)) * sp.d(sp.index(x), sp.index(y)) for x, y, m in doc["coupling"])
    assert cost == F(doc["value_exact"])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: verify_extremal's absolute 1e-9 tolerance rejects a float "
                   "extremal potential whose pairs miss their distances near 6e18 by a few ulps",
                   raises=AssertionError)
def test_float_extremal_potential_passes_its_own_check_at_large_distances():
    exact = validate_metric([[v * F(2**62 + 1, 7) for v in row] for row in random_space(6, 1).dist])
    space, d = exact.with_mode(exact=False), exact.dist
    geodesic = PairSet.of([(x, y) for x in range(6) for y in range(6) if x != y and d[x][0] == d[x][y] + d[y][0]],
                          space)
    assert check_cyclically_monotone(geodesic, space).monotone
    assert verify_extremal(build_extremal_potential(geodesic, space), geodesic, space)
