"""File schemas and deterministic serialization for the CLI.

Metric space: {"labels": [...], "dist": [[...]]} with labels[0] the base
point, or a CSV square matrix whose header row holds the labels.
Functional: {"coeffs": {"label": number, ...}}.
Pair set: {"pairs": [["x", "y"], ...]}.

Numbers in input files are JSON numbers or strings: "p/q", integer or
decimal.  A distance matrix is read per array where it can be:

- in exact mode, a square matrix whose cells are all JSON integers or
  ASCII ``[+-]digits[/digits]`` strings (JSON or CSV) goes straight onto
  the integer lattice that ``FiniteMetricSpace.grid`` holds, with one
  pattern match over the joined cells and one parse per distinct cell;
- a JSON matrix of plain numbers skips the per-cell parse;
- in float mode a CSV file is read with one ``float`` per distinct cell,
  one gather into the array and one finiteness check over it
  (``_csv_float_grid``).

Any other matrix, one with a zero denominator, and a CSV file with a
cell ``float`` rejects or reads as non-finite, goes through the per-cell
parse, so what is accepted and every error message stay the same on
every path.  A zero denominator is a ``SchemaMismatch``.

Emitted numbers are fixed at 12 significant digits, except the distances
of an exact space, which are written losslessly (integers as numbers,
other rationals as "p/q" strings); float distances are rounded once per
distinct bit pattern and scattered back (``_distinct12``).  ``dumps``
writes exactly the bytes of ``json.dumps(doc, indent=2,
allow_nan=False)``.  Keys keep their construction order, so identical
runs are byte-identical.
"""

from __future__ import annotations

import csv
import io as _stdio
import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from .errors import Error
from .metric import (
    FiniteMetricSpace,
    Functional,
    LipschitzPotential,
    _int_dtype,
    matrix_labels,
    validate_grid,
    validate_metric,
)
from .monotonicity import CycleCertificate, PairSet
from .numerics import EXACT_SIZE_LIMIT, Number, exact_repr, round12
from .transport import PairMeasure, TransportResult


class ParseError(Error):
    """The input file could not be read as JSON/CSV."""


class SchemaMismatch(Error):
    """The input parsed but does not match the declared schema."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # a ValueError, so it would pass as one
        raise ParseError(f"{path} is not text in the expected encoding: {exc}") from exc


def _read_json(path: str) -> Any:
    text = _read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def load_space(path: str, *, exact: bool | None = None, tol: float = 1e-9) -> FiniteMetricSpace:
    """Load a metric space from JSON or CSV (by extension) and validate it."""
    if path.endswith(".csv"):
        rows = list(csv.reader(_stdio.StringIO(_read_text(path))))
        if not rows:
            raise SchemaMismatch(f"{path}: empty CSV")
        labels, dist = rows[0], rows[1:]
        if exact is None:
            exact = len(dist) <= EXACT_SIZE_LIMIT
        grid = _lattice_grid(dist) if exact else _csv_float_grid(dist)
        if grid is None:
            dist = _parse_rows(path, dist)
        if len(dist) != len(labels):
            raise SchemaMismatch(f"{path}: {len(labels)} labels but {len(dist)} rows")
    else:
        doc = _read_json(path)
        if not isinstance(doc, dict) or "labels" not in doc or "dist" not in doc:
            raise SchemaMismatch(f'{path}: expected {{"labels": [...], "dist": [[...]]}}')
        labels = doc["labels"]
        dist = doc["dist"]
        if not isinstance(labels, list) or not isinstance(dist, list):
            raise SchemaMismatch(f"{path}: labels and dist must be arrays")
        if exact is None:
            exact = len(dist) <= EXACT_SIZE_LIMIT
        grid = _lattice_grid(dist) if exact else None
        if grid is None:
            try:
                plain = set(map(type, itertools.chain.from_iterable(dist))) <= {int, float}
            except TypeError:  # a row that is not an array: the per-cell path reports it
                plain = False
            if not plain:
                dist = _parse_rows(path, dist)
            elif not exact and _square(dist):
                grid = np.array(dist, dtype=float), 1
    if grid is None:
        return validate_metric(dist, labels, exact=exact, tol=tol)
    return validate_grid(*grid, matrix_labels(dist, labels), exact=exact, tol=tol)


def _square(rows) -> bool:
    n = len(rows)
    return n > 0 and all(type(row) is list and len(row) == n for row in rows)


def _csv_float_grid(cells: List[List[str]]) -> Tuple[np.ndarray, int] | None:
    """A square matrix of CSV cells as finite float64, scale 1, or None
    when a cell is not that (``_parse_number`` then reads it or reports it).

    Each distinct cell is read once, and the matrix is gathered from that
    table in one step.
    """
    if not _square(cells):
        return None
    n = len(cells)
    chain = itertools.chain.from_iterable
    try:
        value = {t: float(t) for t in dict.fromkeys(chain(cells))}
    except ValueError:
        return None
    a = np.fromiter(map(value.__getitem__, chain(cells)), dtype=float, count=n * n)
    return (a.reshape(n, n), 1) if np.isfinite(a).all() else None


def _lattice_grid(rows) -> Tuple[np.ndarray, int] | None:
    """A square matrix of ints and ASCII ``[+-]digits[/digits]`` strings
    on its integer lattice, as ``metric._lattice`` builds it from the
    parsed rationals: the lcm of the reduced denominators, and int64
    unless a sum of two entries could overflow.  None for any other
    matrix, and for a zero denominator or a string past ``int``'s digit
    limit, so the per-cell parse reads it or reports it.

    Every other JSON value prints with some other character, and a cell
    holding a comma adds a token, so one character-class match over the
    joined cells leaves only signs, digits and slashes in each cell; each
    distinct cell is then split at its first slash, and ``int`` rejects
    any other arrangement of them.
    """
    if not _square(rows):
        return None
    text = ",".join(map(str, itertools.chain.from_iterable(rows)))
    tokens = text.split(",")
    if len(tokens) != len(rows) ** 2 or not re.fullmatch("[0-9+/,-]*", text):
        return None
    reduced = {}
    try:
        for token in dict.fromkeys(tokens):
            num, slash, den = token.partition("/")
            if slash and not den.isdigit():
                return None
            p, q = int(num), int(den or 1)
            if q == 0:
                return None
            g = math.gcd(p, q)
            reduced[token] = p // g, q // g
    except ValueError:
        return None
    scale = math.lcm(*{q for _, q in reduced.values()})
    value = {token: p * (scale // q) for token, (p, q) in reduced.items()}
    dtype = _int_dtype(max(map(abs, value.values())))
    a = np.array([value[t] for t in tokens], dtype=dtype)
    return a.reshape(len(rows), len(rows)), scale


def _parse_rows(path: str, rows) -> List[List[Number]]:
    try:
        return [[_parse_number(v) for v in row] for row in rows]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaMismatch(f"{path}: {exc}") from exc


def _parse_number(v) -> Number:
    if isinstance(v, bool):
        raise ValueError(f"not a number: {v!r}")
    if isinstance(v, (int, float)):
        return v
    if isinstance(v, str):
        s = v.strip()
        if "/" in s:
            num, _, den = s.partition("/")
            digits = num[1:] if num[:1] in ("+", "-") else num
            if s.isascii() and digits.isdigit() and den.isdigit():
                return Fraction(int(num), int(den))
            return Fraction(s)
        return float(s) if ("." in s or "e" in s or "E" in s) else int(s)
    raise ValueError(f"not a number: {v!r}")


def load_functional(path: str, space: FiniteMetricSpace) -> Functional:
    doc = _read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("coeffs"), dict):
        raise SchemaMismatch(f'{path}: expected {{"coeffs": {{"label": number}}}}')
    coeffs = {}
    for label, value in doc["coeffs"].items():
        try:
            i = space.index(label)
        except KeyError as exc:
            raise SchemaMismatch(f"{path}: {exc.args[0]}") from exc
        try:
            coeffs[i] = _parse_number(value)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise SchemaMismatch(f"{path}: {exc}") from exc
    return Functional(coeffs, space)


def load_pair_set(path: str, space: FiniteMetricSpace) -> PairSet:
    doc = _read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("pairs"), list):
        raise SchemaMismatch(f'{path}: expected {{"pairs": [["x", "y"], ...]}}')
    pairs = []
    for entry in doc["pairs"]:
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaMismatch(f"{path}: each pair must be a [x, y] array")
        try:
            pairs.append((space.index(str(entry[0])), space.index(str(entry[1]))))
        except KeyError as exc:
            raise SchemaMismatch(f"{path}: {exc.args[0]}") from exc
    try:
        return PairSet.of(pairs, space)
    except ValueError as exc:
        raise SchemaMismatch(f"{path}: {exc}") from exc


def jsonable_number(x: Number) -> float:
    return round12(x)


def _exact_number(x: Fraction):
    """An integer as a JSON number, any other rational as a "p/q" string."""
    return int(x) if x.denominator == 1 else exact_repr(x)


def space_doc(space: FiniteMetricSpace) -> Dict:
    if space.exact:
        dist = [[_exact_number(v) for v in row] for row in space.dist]
    else:
        text, where = _distinct12(space)
        dist = np.array(list(map(float, text)), dtype=object)[where].tolist()
    return {"labels": list(space.labels), "dist": dist}


def space_csv(space: FiniteMetricSpace) -> str:
    buf = _stdio.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(space.labels)
    if space.exact:
        rows = [[exact_repr(v) for v in row] for row in space.dist]
    else:
        text, where = _distinct12(space)
        rows = np.array(text, dtype=object)[where].tolist()
    # Numbers hold no comma, quote or newline, so no cell needs quoting.
    buf.writelines(",".join(row) + "\n" for row in rows)
    return buf.getvalue()


def _distinct12(space: FiniteMetricSpace) -> Tuple[List[str], np.ndarray]:
    """The distinct distances at 12 significant digits, as ``round12``
    writes them, and for each cell the index of its distance among them.

    Distinct means a distinct bit pattern, so ``-0.0`` keeps its sign;
    all of them are formatted by one ``%``.
    """
    a, _ = space.grid
    bits, where = np.unique(a.view(np.int64), return_inverse=True)
    text = " ".join(["%.12g"] * len(bits)) % tuple(bits.view(float).tolist())
    return text.split(" "), where.reshape(a.shape)


def potential_doc(f: LipschitzPotential, space: FiniteMetricSpace) -> Dict:
    return {space.labels[i]: jsonable_number(v) for i, v in enumerate(f.values)}


def measure_doc(mu: PairMeasure, space: FiniteMetricSpace) -> List:
    return [
        [space.labels[x], space.labels[y], jsonable_number(m)]
        for (x, y), m in sorted(mu.mass.items())
    ]


def transport_doc(result: TransportResult, space: FiniteMetricSpace) -> Dict:
    doc = {
        "value": jsonable_number(result.value),
        "coupling": measure_doc(result.coupling, space),
        "representation": measure_doc(result.representation, space),
        "potential": potential_doc(result.potential, space),
    }
    if space.exact:
        doc["value_exact"] = exact_repr(result.value)
    return doc


def certificate_doc(cert: CycleCertificate, space: FiniteMetricSpace) -> Dict:
    doc: Dict[str, Any] = {"monotone": cert.monotone}
    if not cert.monotone:
        doc["cycle"] = [[space.labels[x], space.labels[y]] for x, y in cert.cycle]
        doc["slack"] = jsonable_number(cert.slack)
    return doc


def dumps(doc: Any) -> str:
    """Fixed-format JSON: stable key order as constructed, no NaN/Inf.

    The text is that of ``json.dumps(doc, indent=2, allow_nan=False)``,
    whose indented form runs the standard library's pure-Python encoder;
    ``_encode`` writes the same bytes for the types the CLI emits, and a
    list of floats in one ``join`` (see ``_float_texts``).  Anything else
    (other types, non-finite floats, non-string keys, a cycle) goes to
    ``json.dumps``, which writes it or raises its usual ``TypeError`` or
    ``ValueError``.
    """
    try:
        return _encode(doc, "\n") + "\n"
    except (_Unsupported, RecursionError):
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"


class _Unsupported(Exception):
    """A value ``_encode`` leaves to ``json.dumps``."""


_quote = json.encoder.encode_basestring_ascii


def _encode(o: Any, newline: str) -> str:
    """``o`` as indented JSON; ``newline`` is a newline plus the indent of
    the line ``o`` starts on."""
    t = type(o)
    if t is str:
        return _quote(o)
    if t is float:
        if not math.isfinite(o):
            raise _Unsupported
        return float.__repr__(o)
    if t is int:
        return int.__repr__(o)
    if o is None:
        return "null"
    if t is bool:
        return "true" if o else "false"
    inner = newline + "  "
    if t is list or t is tuple:
        if not o:
            return "[]"
        if set(map(type, o)) == {float}:
            items = _float_texts(o)
        else:
            items = [_encode(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if t is dict:
        if not o:
            return "{}"
        if not all(type(k) is str for k in o):
            raise _Unsupported
        items = [_quote(k) + ": " + _encode(v, inner) for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise _Unsupported


def _float_texts(o) -> Iterator[str]:
    """``float.__repr__`` of each float in ``o``, formatted once per
    distinct object: ``space_doc`` puts one float object per distinct
    distance in every cell that holds it.  ``o`` holds its floats, so no
    two of them share an id.
    """
    ids = list(map(id, o))
    first = dict(zip(ids, o))
    if not all(map(math.isfinite, first.values())):
        raise _Unsupported
    text = dict(zip(first, map(float.__repr__, first.values())))
    return map(text.__getitem__, ids)
