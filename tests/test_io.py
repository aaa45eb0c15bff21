import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lipfree import io as lfio
from lipfree.instances import line_space, random_space


def test_load_space_json(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"labels": ["0", "x"], "dist": [[0, 0.5], [0.5, 0]]}))
    sp = lfio.load_space(str(p))
    assert sp.exact and sp.d(0, 1) == F(1, 2)


def test_load_space_accepts_fraction_strings(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"labels": ["0", "x"], "dist": [["0", "1/3"], ["1/3", 0]]}))
    sp = lfio.load_space(str(p))
    assert sp.d(0, 1) == F(1, 3)


def test_load_space_csv(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("0,x,y\n0,1,2\n1,0,1\n2,1,0\n")
    sp = lfio.load_space(str(p))
    assert sp.labels == ("0", "x", "y") and sp.d(0, 2) == 2


def test_schema_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"labels": ["0", "x"]}))
    with pytest.raises(lfio.SchemaMismatch):
        lfio.load_space(str(p))
    q = tmp_path / "worse.json"
    q.write_text("[1, 2")
    with pytest.raises(lfio.ParseError):
        lfio.load_space(str(q))
    with pytest.raises(lfio.ParseError):
        lfio.load_space(str(tmp_path / "missing.json"))


def test_functional_roundtrip(tmp_path):
    sp = line_space([0, 1, 3])
    p = tmp_path / "phi.json"
    p.write_text(json.dumps({"coeffs": {"1": "2/3", "2": -1}}))
    phi = lfio.load_functional(str(p), sp)
    assert phi.coeffs == {1: F(2, 3), 2: F(-1)}


def test_dumps_is_stable_and_rejects_nonfinite():
    doc = {"b": 1.0, "a": lfio.jsonable_number(F(1, 3))}
    out1 = lfio.dumps(doc)
    out2 = lfio.dumps(doc)
    assert out1 == out2
    assert '"b"' in out1.splitlines()[1]  # insertion order kept, not sorted
    with pytest.raises(ValueError):
        lfio.dumps({"x": float("inf")})


def test_space_doc_roundtrips_dyadic_space():
    sp = random_space(4, seed=1)
    doc = lfio.space_doc(sp)
    assert doc["labels"] == list(sp.labels)
    assert doc["dist"][0][0] == 0.0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 10**6))
def test_exact_space_reloads_losslessly(n, seed):
    # random_space distances include thirds, which 12 decimal digits
    # cannot carry
    sp = random_space(n, seed)
    with tempfile.TemporaryDirectory() as tmp:
        as_json = Path(tmp) / "s.json"
        as_csv = Path(tmp) / "s.csv"
        as_json.write_text(lfio.dumps(lfio.space_doc(sp)))
        as_csv.write_text(lfio.space_csv(sp))
        for path in (as_json, as_csv):
            back = lfio.load_space(str(path))
            assert back.labels == sp.labels
            assert back.dist == sp.dist
