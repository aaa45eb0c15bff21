"""File schemas and deterministic serialization for the CLI.

Metric space: {"labels": [...], "dist": [[...]]} with labels[0] the base
point, or a CSV square matrix whose header row holds the labels.
Functional: {"coeffs": {"label": number, ...}}.
Pair set: {"pairs": [["x", "y"], ...]}.

Emitted numbers are fixed at 12 significant digits, except the distances
of an exact space, which are written losslessly (integers as numbers,
other rationals as "p/q" strings).  Keys keep their construction order,
so identical runs are byte-identical.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List

from .errors import Error
from .metric import FiniteMetricSpace, Functional, LipschitzPotential, validate_metric
from .monotonicity import CycleCertificate, PairSet
from .numerics import Number, exact_repr, round12
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


def _read_json(path: str) -> Any:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def load_space(path: str, *, exact: bool | None = None, tol: float = 1e-9) -> FiniteMetricSpace:
    """Load a metric space from JSON or CSV (by extension) and validate it."""
    if path.endswith(".csv"):
        rows = list(csv.reader(_stdio.StringIO(_read_text(path))))
        if not rows:
            raise SchemaMismatch(f"{path}: empty CSV")
        labels = rows[0]
        try:
            dist = [[_parse_number(v) for v in row] for row in rows[1:]]
        except ValueError as exc:
            raise SchemaMismatch(f"{path}: {exc}") from exc
        if len(dist) != len(labels):
            raise SchemaMismatch(f"{path}: {len(labels)} labels but {len(dist)} rows")
        return validate_metric(dist, labels, exact=exact, tol=tol)
    doc = _read_json(path)
    if not isinstance(doc, dict) or "labels" not in doc or "dist" not in doc:
        raise SchemaMismatch(f'{path}: expected {{"labels": [...], "dist": [[...]]}}')
    labels = doc["labels"]
    dist = doc["dist"]
    if not isinstance(labels, list) or not isinstance(dist, list):
        raise SchemaMismatch(f"{path}: labels and dist must be arrays")
    try:
        dist = [[_parse_number(v) for v in row] for row in dist]
    except (TypeError, ValueError) as exc:
        raise SchemaMismatch(f"{path}: {exc}") from exc
    return validate_metric(dist, labels, exact=exact, tol=tol)


def _parse_number(v) -> Number:
    if isinstance(v, bool):
        raise ValueError(f"not a number: {v!r}")
    if isinstance(v, (int, float)):
        return v
    if isinstance(v, str):
        s = v.strip()
        if "/" in s:
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
        except (TypeError, ValueError) as exc:
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
    number = _exact_number if space.exact else jsonable_number
    return {
        "labels": list(space.labels),
        "dist": [[number(v) for v in row] for row in space.dist],
    }


def space_csv(space: FiniteMetricSpace) -> str:
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(space.labels)
    for row in space.dist:
        writer.writerow([exact_repr(v) if space.exact else f"{float(v):.12g}" for v in row])
    return buf.getvalue()


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
