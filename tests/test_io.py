import csv
import io as stdio
import itertools
import json
import math
import random
import tempfile
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipfree import io as lfio
from lipfree.cli import main
from lipfree.errors import Error
from lipfree.instances import line_space, random_space
from lipfree.exotic import exotic_metric
from lipfree.metric import FiniteMetricSpace, NonFiniteDistance, ZeroOffDiagonal, validate_metric
from lipfree.numerics import coerce, round12


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


@pytest.mark.parametrize("data", [b"a,b\n0,1\n1,0\n\n", b"a,b\r\n\r\n0,1\r\n1,0\r\n"],
                         ids=["trailing blank line", "CRLF with a blank line"])
@pytest.mark.parametrize("exact", [True, False])
def test_csv_blank_lines_are_skipped(tmp_path, data, exact):
    p, plain = tmp_path / "s.csv", tmp_path / "plain.csv"
    p.write_bytes(data)
    plain.write_bytes(b"a,b\n0,1\n1,0\n")
    assert lfio.load_space(str(p), exact=exact) == lfio.load_space(str(plain), exact=exact)


def test_csv_of_blank_lines_is_empty(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("\n\n")
    with pytest.raises(lfio.SchemaMismatch, match="empty CSV"):
        lfio.load_space(str(p))


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


def _per_cell_json(sp):
    """``json.dumps`` of the space's document built cell by cell: exact
    integers as numbers, other rationals as "p/q", floats by ``round12``."""
    if sp.exact:
        dist = [[int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}" for v in row] for row in sp.dist]
    else:
        dist = [[round12(v) for v in row] for row in sp.dist]
    return json.dumps({"labels": list(sp.labels), "dist": dist}, indent=2, allow_nan=False) + "\n"


def test_space_doc_roundtrips_dyadic_space():
    sp = random_space(4, seed=1)
    text = lfio.space_json(sp)
    assert text == _per_cell_json(sp)
    doc = json.loads(text)
    assert doc["labels"] == list(sp.labels)
    assert doc["dist"][0][0] == 0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 10**6))
def test_exact_space_reloads_losslessly(n, seed):
    # random_space distances include thirds, which 12 decimal digits
    # cannot carry
    sp = random_space(n, seed)
    with tempfile.TemporaryDirectory() as tmp:
        as_json = Path(tmp) / "s.json"
        as_csv = Path(tmp) / "s.csv"
        as_json.write_text(lfio.space_json(sp))
        assert as_json.read_text() == _per_cell_json(sp)
        as_csv.write_text(lfio.space_csv(sp))
        for path in (as_json, as_csv):
            back = lfio.load_space(str(path))
            assert back.labels == sp.labels
            assert back.dist == sp.dist


def _exact_spaces():
    """Exact spaces with "p/q" cells, on int64 and Python-int lattices,
    n = 1, and labels with quotes, backslashes and non-ASCII text."""
    labels = ['q"0', "é1", "a\\b", "\U0001f600", "x\ny", "", "6", "7", "8"]
    for t in range(12):
        base = random_space(2 + t % 8, t)
        mult = [1, F(7, 5), F(10**20 + 39, 10**19 + 7), 2**64 + 1][t % 4]
        rows = [[v * mult for v in row] for row in base.dist]
        yield validate_metric(rows, labels[: base.n], exact=True)
    yield validate_metric([[0]], ['"é"'], exact=True)
    yield validate_metric([[0, 2**70], [2**70, 0]], ["\u2028", "b"], exact=True)


def test_exact_space_json_matches_per_cell():
    dtypes = set()
    for sp in _exact_spaces():
        assert lfio.space_json(sp) == _per_cell_json(sp)
        dtypes.add(sp.grid[0].dtype.str)
    assert dtypes == {"<i8", "|O"}


@pytest.mark.parametrize("N", [8, 64, 256])
def test_gen_exotic_json_is_json_dumps_layout(capsys, N):
    assert main(["gen-exotic", "--N", str(N)]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert len(doc["dist"]) == N
    assert json.dumps(doc, indent=2) + "\n" == text


def _float_spaces():
    """Float spaces with awkward digits: thirds over many decades, 12-digit
    ties, signed zeros, subnormals and huge entries (space_json and space_csv
    read only labels, grid and mode, so these need not be metrics)."""
    for seed in range(40):
        sp = random_space(2 + seed % 11, seed, exact=False)
        scale = 10.0 ** (seed % 13 - 6) / 3
        yield FiniteMetricSpace(sp.labels, (sp.grid[0] * scale, 1), False)
    odd = [0.0, -0.0, 5e-324, 1e300, 0.1 + 0.2, 1.0000000000005, 2.5e-7, 123456789012.5, -1.5, 7]
    rows = [[odd[(i + j) % 10] for j in range(10)] for i in range(10)]
    yield FiniteMetricSpace(tuple("abcdefghij"), (np.array(rows, dtype=float), 1), False)


def test_float_rounding_per_array_matches_per_cell():
    for sp in _float_spaces():
        assert lfio.space_json(sp) == _per_cell_json(sp)
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
    "10" * 200, True, None, [1, 2], [[1]], {}, {"a": 1}, 2.5, 3, 10**400, -(10**400), 2**63,
    "6/12", "0/0", "-0/5", "+0003", "1,2", "2,", "4/2/", "10" * 2200, 10**19, "99999999999999999999/7",
    # Equal in Python to the int 0 diagonal or the int 2 background, but
    # read differently: False is no number, and exact mode reads a float
    # as the decimal it prints as.
    False, 0.0, -0.0, 1.0, 2.0,
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


@pytest.mark.parametrize("n", [66, 128])
@pytest.mark.parametrize("bad", [None, "nan", "1e400", "1_0", " 3 "])
@pytest.mark.parametrize("spread", ["repeated", "distinct"])
def test_float_load_of_repeated_tokens_matches_per_cell_reference(tmp_path, n, bad, spread):
    # Off-diagonal distances in [1, 2] always form a metric.  "repeated"
    # draws them from a few spellings, most of them of equal values, so
    # the reader parses each distinct token once; "distinct" gives the
    # first row its own token per cell.  A bad token, when given, sits in
    # eight symmetric cells.
    rng = random.Random(n)
    spellings = ["1", "1.0", "1e0", "+1.5", "1.50", "2", "1.25", "0.125e1"]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            t = rng.choice(spellings) if spread == "repeated" or i else f"{1 + j / n!r}"
            rows[i][j] = rows[j][i] = t
    if bad is not None:
        for i, j in ((0, 1), (2, 5), (n - 3, n - 1), (4, n // 2)):
            rows[i][j] = rows[j][i] = bad
    labels = [f"p{i}" for i in range(n)]
    for path, cells in _write_space(tmp_path, "r", labels, rows):
        for exact in (None, False):
            got = _load_outcome(lambda: lfio.load_space(str(path), exact=exact))
            want = _load_outcome(lambda: _reference_load(str(path), labels, cells, exact))
            assert got == want, path.suffix


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
    # The int 2**70 equals the float 2.0**70, which exact mode reads as
    # 1180591620717411300000: one table entry for both would misread a cell.
    big = [[0, 2**70, 2.0**70], [2**70, 0, 2**70], [2.0**70, 2**70, 0]]
    for path, cells in _write_space(tmp_path, "big", ["a", "b", "c"], big):
        got = _load_outcome(lambda: lfio.load_space(str(path), exact=exact))
        assert got == _load_outcome(lambda: _reference_load(str(path), ["a", "b", "c"], cells, exact))
        assert "Fraction(1180591620717411300000, 1)" in got[0], path.suffix


def test_signed_zeros_may_share_a_table_entry(tmp_path):
    # 0.0 == -0.0, so the distinct-cell table reads both as the one it
    # meets first, here -0.0.  That cannot show: validate_grid zeroes the
    # diagonal and rejects every zero off it.
    labels = ["a", "b", "c", "d"]
    rows = [[0.0 if i == j else 1.5 for j in range(4)] for i in range(4)]
    rows[0][0] = -0.0
    for exact in (True, False):
        for path, cells in _write_space(tmp_path, "z", labels, rows):
            sp = lfio.load_space(str(path), exact=exact)
            assert _load_outcome(lambda: sp) == _load_outcome(lambda: _reference_load(str(path), labels, cells, exact))
            assert all(math.copysign(1.0, sp.grid[0][i, i]) == 1.0 for i in range(4))
    rows[1][2] = rows[2][1] = 0.0
    for exact in (True, False):
        for path, _ in _write_space(tmp_path, "z", labels, rows):
            with pytest.raises(ZeroOffDiagonal, match=r"dist\[1\]\[2\] = 0"):
                lfio.load_space(str(path), exact=exact)


def _json_space(tmp_path, labels, dist):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"labels": labels, "dist": dist}))
    return path


def _csv_space(tmp_path, text):
    path = tmp_path / "odd.csv"
    path.write_text(text)
    return path


# Schema oddities and the error each one raises; {p} stands for the path.
_ODDITIES = [
    ("row not an array", lambda t: _json_space(t, ["a", "b"], [[0, 1], 1]),
     "SchemaMismatch", "{p}: 'int' object is not iterable"),
    ("null row", lambda t: _json_space(t, ["a", "b"], [[0, 1], None]),
     "SchemaMismatch", "{p}: 'NoneType' object is not iterable"),
    ("bad cell before a bad row", lambda t: _json_space(t, ["a", "b"], [[0, "x"], 1]),
     "SchemaMismatch", "{p}: invalid literal for int() with base 10: 'x'"),
    ("bad row before a bad cell", lambda t: _json_space(t, ["a", "b"], [None, [1, "x"]]),
     "SchemaMismatch", "{p}: 'NoneType' object is not iterable"),
    ("string rows of bad digits", lambda t: _json_space(t, ["a", "b"], ["0x", "x0"]),
     "SchemaMismatch", "{p}: invalid literal for int() with base 10: 'x'"),
    ("ragged", lambda t: _json_space(t, ["a", "b", "c"], [[0, 1, 2], [1, 0], [2, 1, 0]]),
     "MetricError", "matrix is not square: row 1 has 2 entries, expected 3"),
    ("ragged with a bad cell", lambda t: _json_space(t, ["a", "b", "c"], [[0, 1, 2], [1, "x"], [2, 1, 0]]),
     "SchemaMismatch", "{p}: invalid literal for int() with base 10: 'x'"),
    ("CSV with too few labels", lambda t: _csv_space(t, "a,b\n0,1,2\n1,0,1\n2,1,0\n"),
     "SchemaMismatch", "{p}: 2 labels but 3 rows"),
    ("CSV with too few labels and a bad cell", lambda t: _csv_space(t, "a,b\n0,1,2\n1,0,x\n2,1,0\n"),
     "SchemaMismatch", "{p}: invalid literal for int() with base 10: 'x'"),
    ("list cell", lambda t: _json_space(t, ["a", "b"], [[0, [1]], [[1], 0]]),
     "SchemaMismatch", "{p}: not a number: [1]"),
    ("object cell", lambda t: _json_space(t, ["a", "b"], [[0, {}], [{}, 0]]),
     "SchemaMismatch", "{p}: not a number: {}"),
    ("null cell", lambda t: _json_space(t, ["a", "b"], [[0, None], [None, 0]]),
     "SchemaMismatch", "{p}: not a number: None"),
    ("duplicate labels", lambda t: _json_space(t, ["a", "a"], [[0, 1], [1, 0]]),
     "MetricError", "duplicate point labels"),
    ("duplicate labels and an int past float's range",
     lambda t: _json_space(t, ["a", "a"], [[0, 10**400], [10**400, 0]]),
     "MetricError", "duplicate point labels"),
    ("empty dist", lambda t: _json_space(t, ["a"], []), "MetricError", "empty matrix"),
]


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("make, kind, message", [c[1:] for c in _ODDITIES], ids=[c[0] for c in _ODDITIES])
def test_schema_oddities(tmp_path, exact, make, kind, message):
    path = make(tmp_path)
    with pytest.raises(Error) as info:
        lfio.load_space(str(path), exact=exact)
    assert (type(info.value).__name__, str(info.value)) == (kind, message.replace("{p}", str(path)))


@pytest.mark.parametrize("exact", [True, False])
def test_string_rows_read_as_their_characters(tmp_path, exact):
    sp = lfio.load_space(str(_json_space(tmp_path, ["a", "b"], ["01", "10"])), exact=exact)
    assert sp.dist == ((0, 1), (1, 0))


def test_each_distinct_cell_is_parsed_once(tmp_path, monkeypatch):
    calls = []
    parse = lfio._parse_number
    monkeypatch.setattr(lfio, "_parse_number", lambda v: calls.append(v) or parse(v))
    rng = random.Random(5)
    # An exact line of 32 points at twelfths, as "p/q" strings.
    xs = [0] + sorted(rng.sample(range(1, 600), 31))
    rows = [[str(F(abs(x - y), 12)) for y in xs] for x in xs]
    # A float CSV of 128 points from six spellings: "0.0" and five
    # distances in [1, 2], which always form a metric.
    n = 128
    floats = [["0.0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            floats[i][j] = floats[j][i] = rng.choice(["1.0", "1.25", "1.5", "1.75", "2.0"])
    (exact_json, _), _ = _write_space(tmp_path, "j", [f"p{i}" for i in range(32)], rows)
    _, (float_csv, _) = _write_space(tmp_path, "c", [f"q{i}" for i in range(n)], floats)
    for path, cells, exact in ((exact_json, rows, True), (float_csv, floats, False)):
        calls.clear()
        assert lfio.load_space(str(path)).exact is exact
        distinct = set(itertools.chain.from_iterable(cells))
        assert sorted(calls) == sorted(distinct)
    assert len(distinct) == 6


@pytest.mark.parametrize("n, exact", [(70, None), (5, False)])
def test_float_plain_number_json_goes_to_validate_metric(tmp_path, monkeypatch, n, exact):
    calls = []
    validate = lfio.validate_metric
    monkeypatch.setattr(lfio, "validate_metric", lambda *a, **k: calls.append(a) or validate(*a, **k))
    # Plane distances plus 1 off the diagonal: a metric in which any
    # distance may be set to 2.
    pts = np.random.default_rng(n).random((n, 2))
    rows = (np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)) + 1 - np.eye(n)).tolist()
    rows[0][1] = rows[1][0] = 2  # a JSON int among the floats is still a plain number
    labels = [f"p{i}" for i in range(n)]
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"labels": labels, "dist": rows}))
    space = lfio.load_space(str(path), exact=exact)
    assert len(calls) == 1
    assert space == validate_metric(rows, labels, exact=False) and not space.exact


def _built_spaces(tmp_path):
    """(space, the dist it should read) from every builder, the reference
    read cell by cell: an exact and a float matrix through validate_metric,
    JSON and CSV, with_mode both ways, and as_space in both modes."""
    exact_rows = [[v * F(7, 5) for v in row] for row in random_space(9, 4).dist]
    pts = np.random.default_rng(4).random((12, 3))
    float_rows = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)).tolist()
    for rows, exact in ((exact_rows, True), (float_rows, False)):
        labels = [f"p{i}" for i in range(len(rows))]
        want = tuple(map(tuple, rows))
        yield validate_metric(rows, labels, exact=exact), want
        json_path, csv_path = tmp_path / f"{exact}.json", tmp_path / f"{exact}.csv"
        cells = [[str(v) if exact else v for v in row] for row in rows]
        json_path.write_text(json.dumps({"labels": labels, "dist": cells}))
        csv_path.write_text(",".join(labels) + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
        for path in (json_path, csv_path):
            yield lfio.load_space(str(path), exact=exact), want
        sp = validate_metric(rows, exact=exact)
        yield sp.with_mode(not exact), tuple(tuple(coerce(v, not exact) for v in row) for row in rows)
    em = exotic_metric(17)
    for exact in (True, False):
        want = tuple(tuple(coerce(em.d(x, y), exact) for y in range(1, 18)) for x in range(1, 18))
        yield em.as_space(exact=exact), want


def test_every_builder_stores_one_read_only_grid(tmp_path):
    spaces = []
    for sp, want in _built_spaces(tmp_path):
        assert not sp.grid[0].flags.writeable and "dist" not in vars(sp)
        assert repr(sp.dist) == repr(want) and "dist" in vars(sp)
        spaces.append(sp)
    # One exact matrix through validate_metric, JSON and CSV: equal spaces, equal hashes.
    exact = spaces[:3]
    assert all(sp == exact[0] and hash(sp) == hash(exact[0]) for sp in exact)
    assert exact[0] != spaces[3]  # the same matrix as floats


def test_space_equality_and_hash_read_the_grid_without_building_dist(tmp_path):
    labels = ["o", "p", "q", "r"]
    small = [[0, F(1, 2), F(5, 4), 2], [F(1, 2), 0, F(3, 4), F(3, 2)],
             [F(5, 4), F(3, 4), 0, F(3, 4)], [2, F(3, 2), F(3, 4), 0]]
    # 2**62 + 1/2 on the lattice of scale 2 is past 2**62: an object-dtype grid.
    big = [[v * 2**62 + (F(1, 2) if i != j else 0) for j, v in enumerate(row)] for i, row in enumerate(small)]

    def files(rows, name, exact):
        cells = [[lfio.exact_repr(v) if exact else float(v) for v in row] for row in rows]
        json_path, csv_path = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        json_path.write_text(json.dumps({"labels": labels, "dist": cells}))
        csv_path.write_text(",".join(labels) + "\n" + "".join(",".join(map(str, r)) + "\n" for r in cells))
        return [lfio.load_space(str(path), exact=exact) for path in (json_path, csv_path)]

    groups = []
    for name, rows in (("small", small), ("big", big)):
        exact = [validate_metric(rows, labels, exact=True), *files(rows, name, True)]
        floats = [validate_metric(rows, labels, exact=False), *files(rows, f"{name}-f", False)]
        floats.append(exact[0].with_mode(False))
        if name == "small":  # its floats are short decimals, read back as the same rationals
            exact.append(floats[0].with_mode(True))
        groups += [exact, floats]
    assert groups[2][0].grid[0].dtype == object and groups[0][0].grid[0].dtype == np.int64
    changed = [
        validate_metric([[v * 2 for v in row] for row in small], labels, exact=True),  # every distance
        validate_metric([[0, F(1, 2), F(5, 4), 2], [F(1, 2), 0, F(3, 4), F(3, 2)],
                         [F(5, 4), F(3, 4), 0, 1], [2, F(3, 2), 1, 0]], labels, exact=True),  # one distance
        validate_metric(small, ["o", "p", "q", "s"], exact=True),
        validate_metric(small, labels, exact=True, tol=1e-6),
    ]
    for group in groups:
        assert all(sp == group[0] and hash(sp) == hash(group[0]) for sp in group)
    # The two matrices in both modes, and the four changes: all different.
    firsts = [group[0] for group in groups] + changed
    for i, sp in enumerate(firsts):
        assert all(sp != other and other != sp for other in firsts[i + 1:])
    assert all("dist" not in vars(sp) for sp in itertools.chain(*groups, changed))


@pytest.mark.parametrize("cell", ["Infinity", "NaN", "1e400", '"-1e400"'])
def test_non_finite_distance_is_named_in_both_modes(tmp_path, cell):
    # Cells (1, 3) and (3, 1) hold the value; (2, 3) and (3, 2) another non-finite one.
    rows = [["0", "1", "1", "1"], ["1", "0", "1", cell], ["1", "1", "0", "NaN"], ["1", cell, "NaN", "0"]]
    path = tmp_path / "space.json"
    dist = ", ".join("[" + ", ".join(r) + "]" for r in rows)
    path.write_text('{"labels": ["a", "b", "c", "d"], "dist": [%s]}' % dist)
    raw = [[_reference_number(v) for v in row] for row in json.loads(path.read_text())["dist"]]
    outcomes = set()
    for exact in (None, True, False):
        for build in (lambda: lfio.load_space(str(path), exact=exact), lambda: validate_metric(raw, exact=exact)):
            with pytest.raises(NonFiniteDistance) as exc:
                build()
            outcomes.add((type(exc.value), str(exc.value), exc.value.witness))
    assert outcomes == {(NonFiniteDistance, "dist[1][3] is not finite", (1, 3))}


def _reader_rows(path, text):
    """Every non-blank row ``csv.reader`` reads from ``text``, its
    ``csv.Error`` as the ``ParseError`` that ``load_space`` raises: the
    reference for ``io._csv_rows``, which splits plain text itself."""
    try:
        return [row for row in csv.reader(stdio.StringIO(text)) if row]
    except csv.Error as exc:
        raise lfio.ParseError(f"{path} is not valid CSV: {exc}") from exc


_CSV_TOKENS = ["0", "1", "2", "3", "1.5", "-1", "0.", ".5", "1/2", " 2", "2 ", "", "-", ".", "1e3",
               '"1"', '"1,2"', '""', '"', "1\0", "\0", "12345678901234567", "1" * 40]


def _rows_outcome(read, path, text):
    try:
        return read(str(path), text)
    except lfio.ParseError as exc:
        return str(exc)


@st.composite
def _csv_texts(draw):
    """CSV-like texts: a label row and rows of tokens, some square and
    numeric, with blank lines, trailing commas, ragged rows, CR or CRLF
    endings, quotes, NUL bytes and fields past a lowered field limit; or
    free text over the same characters."""
    if draw(st.booleans()):
        return draw(st.text(alphabet='0123456789.,- \n\r"\0', max_size=80))
    n = draw(st.integers(1, 4))
    width = st.integers(max(0, n - 1), n + 1) if draw(st.booleans()) else st.just(n)
    lines = [",".join(f"p{i}" for i in range(n))]
    for _ in range(draw(st.integers(0, n + 1))):
        cells = draw(st.lists(st.sampled_from(_CSV_TOKENS), min_size=draw(width), max_size=n + 1))
        lines.append(",".join(cells) + draw(st.sampled_from(["", "", ","])))
        lines += [""] * draw(st.integers(0, 1))
    return draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])).join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


@settings(max_examples=300, deadline=None)
@given(text=_csv_texts())
def test_csv_split_matches_the_reader(text):
    # A lowered field limit puts lines and fields past it within reach.
    limit = csv.field_size_limit(16)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_bytes(text.encode())
            read = path.read_text()  # as load_space reads it: CR and CRLF become LF
            for t in {text, read}:
                assert _rows_outcome(lfio._csv_rows, path, t) == _rows_outcome(_reader_rows, path, t)
            for exact in (None, True, False):
                outcome = _load_outcome(lambda: lfio.load_space(str(path), exact=exact))
                with mock.patch.object(lfio, "_csv_rows", _reader_rows):
                    assert _load_outcome(lambda: lfio.load_space(str(path), exact=exact)) == outcome
    finally:
        csv.field_size_limit(limit)
