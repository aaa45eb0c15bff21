"""File schemas and deterministic serialization for the CLI.

Metric space: {"labels": [...], "dist": [[...]]} with labels[0] the base
point, or a CSV square matrix whose header row holds the labels.
Functional: {"coeffs": {"label": number, ...}}.
Pair set: {"pairs": [["x", "y"], ...]}.

Numbers in input files are JSON numbers or strings: "p/q", integer or
decimal.  CSV text with a NUL byte anywhere is a ``ParseError`` on every
Python version; other CSV text is read as ``csv.reader`` reads it, blank
lines skipped.  Text with no quote or carriage return and no line longer
than ``csv.field_size_limit()``, such as every file ``space_csv`` writes,
is split at each newline and comma directly, which is what the reader
would do; any other text goes through the reader, whose ``csv.Error`` (a
field past the limit) is a ``ParseError``.  A distance matrix is read in
one pass (``load_space``):

- its cells go into a table of distinct cells, first occurrences first,
  keyed by value, or by type and value when the cells' types mix (the
  int 0 equals ``False`` and the int ``2**70`` the float ``2.0**70``);
- ``_parse_number`` reads each distinct cell once, so the first cell it
  rejects is the row-major first bad cell, and a ``SchemaMismatch``
  names it as a cell-by-cell parse would (a zero denominator included);
- ``metric._grid_of`` puts the distinct values, read as ``coerce`` reads
  them, on the integer lattice of ``FiniteMetricSpace.grid`` (exact mode)
  or makes one float64 of each, ±inf past float's range (float mode), and
  gathers the matrix; ``validate_grid`` checks it, and a non-finite value
  is a ``NonFiniteDistance`` in either mode.

In float mode a JSON matrix of plain numbers has nothing to parse and
goes to ``validate_metric`` as it is.

Emitted numbers are fixed at 12 significant digits, except the distances
of an exact space, which are written losslessly (integers as numbers,
other rationals as "p/q" strings).  An answer past float's range raises
``OutOfRange``.  ``dumps`` is ``json.dumps(doc, indent=2,
allow_nan=False)``; keys keep their construction order, so identical runs
are byte-identical.  A space is written as text in the same layout
(``space_json``) or as CSV (``space_csv``), each distinct entry of the
grid formatted once and scattered back (``_distinct_text``).  Loading
this module loads no solver: ``load_pair_set`` imports ``PairSet`` when it
runs, and the other solver types are annotations only.
"""

from __future__ import annotations

import csv
import io as _stdio
import itertools
import json
import math
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

import numpy as np

from .errors import Error
from .metric import (
    FiniteMetricSpace,
    Functional,
    InvalidPair,
    LipschitzPotential,
    _distinct,
    _grid_of,
    matrix_labels,
    validate_grid,
    validate_metric,
)
from .numerics import DEFAULT_TOLERANCE, Number, coerce, exact_mode, exact_repr, round12

if TYPE_CHECKING:
    from .monotonicity import CycleCertificate, PairSet
    from .transport import PairMeasure, TransportResult


class ParseError(Error):
    """The input file could not be read as JSON/CSV."""


class SchemaMismatch(Error):
    """The input parsed but does not match the declared schema."""


class WriteError(Error):
    """An output file could not be written."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # a ValueError, so it would pass as one
        raise ParseError(f"{path} is not text in the expected encoding: {exc}") from exc


def write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc


def _read_json(path: str) -> Any:
    text = _read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def load_space(
    path: str, *, exact: bool | None = None, tol: float = DEFAULT_TOLERANCE
) -> FiniteMetricSpace:
    """Load a metric space from JSON or CSV (by extension) and validate it."""
    is_csv = path.endswith(".csv")
    if is_csv:
        rows = _csv_rows(path, _read_text(path))
        if not rows:
            raise SchemaMismatch(f"{path}: empty CSV")
        labels, dist = rows[0], rows[1:]
    else:
        doc = _read_json(path)
        if not isinstance(doc, dict) or "labels" not in doc or "dist" not in doc:
            raise SchemaMismatch(f'{path}: expected {{"labels": [...], "dist": [[...]]}}')
        labels, dist = doc["labels"], doc["dist"]
        if not isinstance(labels, list) or not isinstance(dist, list):
            raise SchemaMismatch(f"{path}: labels and dist must be arrays")
    exact = exact_mode(len(dist), exact)
    try:
        types = {str} if is_csv else set(map(type, itertools.chain.from_iterable(dist)))
        plain = not (is_csv or exact) and types <= {int, float}
        if not plain:
            keys = itertools.chain.from_iterable(dist)
            mixed = len(types) > 1
            if mixed:  # by type too, since False == 0 and 2**70 == 2.0**70
                keys = zip(map(type, itertools.chain.from_iterable(dist)), keys)
            index = defaultdict()  # each distinct key, at its position in order of first occurrence
            index.default_factory = index.__len__
            where = np.fromiter(map(index.__getitem__, keys), np.intp)
    except TypeError:  # a row that is not an array, or a cell that cannot be hashed
        _parse_cells(path, itertools.chain.from_iterable(dist))  # raises for the first of them
        raise
    if plain:  # JSON numbers in float mode: nothing to parse
        return validate_metric(dist, labels, exact=False, tol=tol)
    values = _parse_cells(path, [v for _, v in index] if mixed else index)
    if is_csv and len(dist) != len(labels):
        raise SchemaMismatch(f"{path}: {len(labels)} labels but {len(dist)} rows")
    labels = matrix_labels(dist, labels)
    a, scale = _grid_of(values, where.reshape(len(labels), -1), exact)
    return validate_grid(a, scale, labels, exact=exact, tol=tol)


def _csv_rows(path: str, text: str) -> List[List[str]]:
    """The non-blank rows ``csv.reader`` reads from ``text``; its
    ``csv.Error`` (a field past ``csv.field_size_limit()``) is a
    ``ParseError``, and so is any NUL byte in ``text``, which Python 3.10's
    reader rejects and later ones read as a character.

    Text with no quote or carriage return, and no line longer than the
    field limit, is what the reader would just cut at each ``\\n`` and
    each comma, so it is split directly.  The reader reads a blank line as
    [], which is no row of the matrix.
    """
    if "\0" in text:
        raise ParseError(f"{path} is not valid CSV: it holds a NUL byte")
    lines = text.split("\n")
    if not ('"' in text or "\r" in text) and max(map(len, lines)) <= csv.field_size_limit():
        return [line.split(",") for line in lines if line]
    try:
        return [row for row in csv.reader(_stdio.StringIO(text)) if row]
    except csv.Error as exc:
        raise ParseError(f"{path} is not valid CSV: {exc}") from exc


def _parse_cells(path: str, cells) -> List[Number]:
    """``_parse_number`` of each cell, in order; the first failure, or a
    row that is not an array in a chained iterable of rows, raises a
    ``SchemaMismatch``."""
    try:
        return list(map(_parse_number, cells))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaMismatch(f"{path}: {exc}") from exc


def _parse_number(v) -> Number:
    if isinstance(v, str):
        s = v.strip()
        if "/" in s:
            return Fraction(s)
        return float(s) if ("." in s or "e" in s or "E" in s) else int(s)
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return v
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
        c = coeffs[i] = _parse_cells(path, [value])[0]
        # Exact mode reads any int or rational; only a float can be infinite or NaN.
        if (isinstance(c, float) or not space.exact) and not math.isfinite(coerce(c, False)):
            raise SchemaMismatch(f"{path}: coefficient of {label!r} is not finite")
    return Functional(coeffs, space)


def load_pair_set(path: str, space: FiniteMetricSpace) -> PairSet:
    from .monotonicity import PairSet
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
    except InvalidPair as exc:
        raise SchemaMismatch(f"{path}: {exc}") from exc


class OutOfRange(Error):
    """An answer too large in magnitude to write as a JSON number."""


def jsonable_number(x: Number) -> float:
    """``round12(x)``; an exact answer past float's range, or a float one
    that overflowed to infinity, is ``OutOfRange``."""
    try:
        r = round12(x)
    except OverflowError:
        r = math.inf
    if math.isinf(r):
        raise OutOfRange("an answer is past float's range and cannot be written")
    return r


def space_json(space: FiniteMetricSpace) -> str:
    """The space as ``dumps`` writes ``{"labels": [...], "dist": [[...]]}``.

    An exact integer is a JSON number, any other rational a "p/q" string,
    and a float the shortest repr of its 12-digit text; one ``json.dumps``
    encodes the distinct entries, whose texts hold no ", ".
    """
    text, where = _distinct_text(space)
    values = [t if "/" in t else int(t) for t in text] if space.exact else list(map(float, text))
    cells = json.dumps(values, allow_nan=False)[1:-1].split(", ")
    rows = np.array(cells, dtype=object)[where].tolist()
    return (
        '{\n  "labels": [\n    ' + ",\n    ".join(map(json.dumps, space.labels))
        + '\n  ],\n  "dist": [\n    '
        + ",\n    ".join("[\n      " + ",\n      ".join(row) + "\n    ]" for row in rows)
        + "\n  ]\n}\n"
    )


def space_csv(space: FiniteMetricSpace) -> str:
    buf = _stdio.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(space.labels)
    text, where = _distinct_text(space)
    # Numbers hold no comma, quote or newline, so no cell needs quoting.
    buf.writelines(",".join(row) + "\n" for row in np.array(text, dtype=object)[where].tolist())
    return buf.getvalue()


def _distinct_text(space: FiniteMetricSpace) -> Tuple[List[str], np.ndarray]:
    """The grid's distinct entries (``metric._distinct``) as text, and for
    each cell the index of its entry among them: exact entries losslessly
    (``exact_repr``), float ones at 12 significant digits as ``round12``
    writes them, all by one ``%``."""
    values, where = _distinct(*space.grid, space.exact)
    if space.exact:
        return list(map(exact_repr, values)), where
    return (" ".join(["%.12g"] * len(values)) % tuple(values)).split(" "), where


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
    """Fixed-format JSON: stable key order as constructed, no NaN/Inf."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
