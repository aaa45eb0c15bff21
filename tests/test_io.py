import csv
import enum
import io as stdio
import json
import math
import random
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lipfree import io as lfio
from lipfree.errors import Error
from lipfree.instances import line_space, random_space
from lipfree.metric import FiniteMetricSpace, validate_metric
from lipfree.numerics import round12


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


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_JSON_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    _FINITE,
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 1e16, 0.1]),
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\r\t\b\f", "\u2028", "é", "\U0001f600", "\ud800"]),
)
_JSON_DOC = st.recursive(
    _JSON_LEAF,
    lambda kids: st.one_of(
        st.lists(kids),
        st.lists(kids).map(tuple),
        st.lists(_FINITE, min_size=1),
        st.dictionaries(st.text(), kids),
    ),
    max_leaves=40,
)


def _outcome(fn):
    try:
        return fn()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(doc=_JSON_DOC)
def test_dumps_matches_json_dumps(doc):
    assert lfio.dumps(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"


@settings(max_examples=100, deadline=None)
@given(
    doc=_JSON_DOC,
    bad=st.sampled_from([math.inf, -math.inf, math.nan, object(), F(1, 3), {1, 2}, b"x", 1j]),
    where=st.integers(0, 3),
)
def test_dumps_raises_as_json_dumps(doc, bad, where):
    wrapped = [
        [doc, bad],
        {"a": doc, "b": [1.5, bad]},
        [[0.5, 2.0, bad]],
        {"k": {"deep": (doc, bad)}},
    ][where]
    expected = _outcome(lambda: json.dumps(wrapped, indent=2, allow_nan=False) + "\n")
    assert isinstance(expected, tuple) and expected[0] in (TypeError, ValueError)
    assert _outcome(lambda: lfio.dumps(wrapped)) == expected


def test_dumps_non_string_keys_and_subclasses():
    class Level(enum.IntEnum):
        LOW = 1

    doc = {1: [Level.LOW], 2.5: None, True: "t", None: [], "s": {"": {}}}
    assert lfio.dumps(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"
    cyclic = [1.0]
    cyclic.append(cyclic)
    assert _outcome(lambda: lfio.dumps(cyclic)) == (ValueError, "Circular reference detected")


def _float_spaces():
    """Float spaces with awkward digits: thirds over many decades, 12-digit
    ties, signed zeros, subnormals and huge entries (space_doc and space_csv
    read only labels, dist and mode, so these need not be metrics)."""
    for seed in range(40):
        sp = random_space(2 + seed % 11, seed, exact=False)
        scale = 10.0 ** (seed % 13 - 6) / 3
        yield FiniteMetricSpace(sp.labels, tuple(tuple(v * scale for v in row) for row in sp.dist), False)
    odd = [0.0, -0.0, 5e-324, 1e300, 0.1 + 0.2, 1.0000000000005, 2.5e-7, 123456789012.5, -1.5, 7]
    rows = tuple(tuple(odd[(i + j) % 10] for j in range(10)) for i in range(10))
    yield FiniteMetricSpace(tuple("abcdefghij"), rows, False)


def test_float_rounding_per_array_matches_per_cell():
    for sp in _float_spaces():
        doc = lfio.space_doc(sp)
        assert repr(doc["dist"]) == repr([[round12(v) for v in row] for row in sp.dist])
        buf = stdio.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(sp.labels)
        for row in sp.dist:
            writer.writerow([f"{float(v):.12g}" for v in row])
        assert lfio.space_csv(sp) == buf.getvalue()


def _reference_number(v):
    """Per-cell parse, as every cell was read before the per-array paths."""
    if isinstance(v, bool):
        raise ValueError(f"not a number: {v!r}")
    if isinstance(v, (int, float)):
        return v
    if isinstance(v, str):
        s = v.strip()
        if "/" in s:
            return F(s)
        return float(s) if ("." in s or "e" in s or "E" in s) else int(s)
    raise ValueError(f"not a number: {v!r}")


def _reference_load(path, labels, rows, exact):
    try:
        dist = [[_reference_number(v) for v in row] for row in rows]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise lfio.SchemaMismatch(f"{path}: {exc}") from exc
    return validate_metric(dist, labels, exact=exact)


def _load_outcome(fn):
    """The space's distances and grid (dtype, contents, scale), or the error."""
    try:
        sp = fn()
    except (Error, ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    a, scale = sp.grid
    return repr(sp.dist), a.dtype.str, repr(a.tolist()) if a.dtype == object else a.tobytes(), scale


_CELLS = [
    " 3 ", "1_000", "+3/4", "3/-4", "3 /4", "inf", "nan", "-Infinity", "1e400", "0x10", "",
    "1/0", "-0", "7/3", "0007/0003", "1_0/3", "+-1/2", "1/2/3", "\u0663/4", "\u00b2/3", "3/\u00b2",
    "2.5", "1e-3",
    "10" * 200, True, None, [1, 2], 2.5, 3, 10**400,
    "6/12", "0/0", "-0/5", "+0003", "1,2", "2,", "4/2/", "10" * 2200, 10**19, "99999999999999999999/7",
]


@pytest.mark.parametrize("n", [3, 66])
@pytest.mark.parametrize("exact", [None, True, False])
def test_per_array_load_matches_per_cell_reference(tmp_path, n, exact):
    labels = [f"p{i}" for i in range(n)]
    for c, cell in enumerate(_CELLS):
        # Off the diagonal every distance is 2, so any value in (0, 4] at
        # (0, 1) and (1, 0) keeps a metric.
        rows = [[0 if i == j else 2 for j in range(n)] for i in range(n)]
        rows[0][1] = rows[1][0] = cell
        as_json = tmp_path / f"c{c}.json"
        as_json.write_text(json.dumps({"labels": labels, "dist": rows}))
        buf = stdio.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [labels] + [[v if isinstance(v, str) else json.dumps(v) for v in row] for row in rows]
        )
        as_csv = tmp_path / f"c{c}.csv"
        as_csv.write_text(buf.getvalue())
        csv_rows = list(csv.reader(stdio.StringIO(buf.getvalue())))[1:]
        for path, cells in ((as_json, rows), (as_csv, csv_rows)):
            got = _load_outcome(lambda: lfio.load_space(str(path), exact=exact))
            want = _load_outcome(lambda: _reference_load(str(path), labels, cells, exact))
            assert got == want, (cell, path.suffix)


def _write_space(tmp_path, name, labels, rows):
    """The matrix as a JSON file and as a CSV file, non-strings as JSON."""
    as_json = tmp_path / f"{name}.json"
    as_json.write_text(json.dumps({"labels": labels, "dist": rows}))
    buf = stdio.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [labels] + [[v if isinstance(v, str) else json.dumps(v) for v in row] for row in rows]
    )
    as_csv = tmp_path / f"{name}.csv"
    as_csv.write_text(buf.getvalue())
    return (as_json, rows), (as_csv, list(csv.reader(stdio.StringIO(buf.getvalue())))[1:])


def _spelled(v, rng):
    """A rational as a JSON int or as one of its "p/q" spellings: reduced,
    unreduced, with a sign and leading zeros, or as a bare integer."""
    k = rng.randrange(5)
    if v.denominator == 1 and k == 0:
        return int(v)
    if v.denominator == 1 and k == 1:
        return str(v.numerator)
    if k == 2:
        return f"{3 * v.numerator}/{3 * v.denominator}"
    if k == 3:
        return f"+00{v.numerator}/0{v.denominator}"
    return f"{v.numerator}/{v.denominator}"


@pytest.mark.parametrize("exact", [None, True])
def test_lattice_load_matches_per_cell_reference(tmp_path, exact):
    # All-string and mixed int / "p/q" matrices, on int64 and Python-int
    # lattices, some with a negative, tiny, zero-denominator or asymmetric
    # entry: the same distances and grid, or the same error, as the
    # per-cell parse.
    rng = random.Random(12)
    lattices = set()
    for t in range(48):
        sp = random_space(2 + t % 9, t)
        mult = [1, F(7, 5), 12, F(10**20 + 39, 10**19 + 7)][t % 4]
        rows = [[_spelled(v * mult, rng) for v in row] for row in sp.dist]
        fault = t // 4 % 5
        if fault == 1:
            rows[0][1] = "-" + str(rows[0][1]).lstrip("+")
        elif fault == 2:
            rows[1][0] = rows[0][1] = "1/1000000"
        elif fault == 3:
            rows[1][0] = "5/0"
        elif fault == 4:
            rows[0][1] = "1/3"
        labels = [f"q{i}" for i in range(sp.n)]
        for path, cells in _write_space(tmp_path, f"m{t}", labels, rows):
            got = _load_outcome(lambda: lfio.load_space(str(path), exact=exact))
            want = _load_outcome(lambda: _reference_load(str(path), labels, cells, exact))
            assert got == want, (t, path.suffix)
            if len(got) == 4:
                lattices.add(got[1])
    assert lattices == {"|O", "<i8"}
