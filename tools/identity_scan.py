"""Run one fixed corpus against two lipfree source trees and compare the answers.

    python tools/identity_scan.py --src A/src --src B/src [--scale tiny|full]

Each tree runs the corpus in a fresh interpreter that imports lipfree from
that tree alone, in an empty working directory, with ``PYTHONHASHSEED=0``.
Each case is hashed as the repr of what lipfree answers (a space, a
report, a certificate, or an error's class, text and witness).  For each
family the scan prints the case count and one SHA-256 over its cases,
per tree.  After those lines it prints, for each family that differs, how
many of its cases differ and the first five of their names.  Cases are
matched by name (the k-th repeat of a name as ``name #k``), so a case that
only one tree answers counts as differing.  It exits 0 when every family
agrees and 1 when one differs; 2 if a tree cannot run the corpus.

The corpus is built here with ``random`` and numpy, never with lipfree, so
both trees answer the same questions.  Families:

- ``validate_metric`` and ``load_space``: valid and broken matrices (each
  axiom, triangles, non-finite and non-numeric cells) in exact, float and
  automatic mode, the latter from JSON and CSV files, the float ones also
  scaled by 2**-40 and 2**-80 in float mode, and numpy int64 matrices in
  each mode;
- ``embedding``: Frechet and local-search reports;
- ``transport``: ``optimal_coupling`` results and molecule decompositions
  on exact, float and two-distance spaces, with full and partial support,
  and ``functional_of``, ``apply_representation`` and
  ``norming_functions_check`` of each result's representation and of random
  positive and signed pair measures; and ``optimal_coupling`` on tie-heavy
  line, star and taxicab-grid spaces in both modes, with functionals whose
  imbalance the base point takes on either side, on float spaces where the
  solver clamps negative reduced costs, on one full-support float space, and
  on the exact spaces scaled near both ends of float's range (int64 and
  ``object`` lattices); and ``oracles.tree_norm`` next to
  ``optimal_coupling`` on exact tree spaces with Steiner points;
- ``monotonicity``: cyclical-monotonicity certificates on random,
  geodesic, reversed-geodesic, one-pair and repeated-pair sets in both
  modes, on the solver spaces, on an exact space whose lattice holds
  Python ints (``object``) and on the float copy of an exact space scaled
  by 2**-45, ``cycle_slack`` of each violating cycle, and
  ``build_extremal_potential`` of every set: the potential with its
  ``verify_extremal`` verdict, or the ``NotMonotone`` certificate;
- ``metric``: ``rho``, ``de_leeuw_transform``, molecules, ``daleth``,
  ``pi_window`` and ``weighted_adjoint`` on the solver spaces, and
  ``with_mode`` both ways on int64, ``object`` and float spaces scaled by
  powers of two near both ends of float's range, and ``coerce`` in both
  modes on random float bit patterns;
- ``cli``: exit code, stdout and stderr of the argument sets of selftest
  criterion C12 on exact JSON and float CSV spaces, of ``norm``,
  ``coupling``, ``potential`` and ``decompose`` on two exact spaces with
  answers past float's range (a potential above it, a coupling mass above
  it and a potential below its smallest subnormal), and, at full scale, of
  ``selftest --iters 2``;
- ``csv``: ``load_space`` in each mode on odd CSV texts (quotes, CR and
  CRLF endings, NUL bytes, blank lines, trailing commas, ragged rows, a
  field past ``csv.field_size_limit()`` and a long line of short fields,
  and random texts over those characters), and ``norm``, ``coupling`` and
  ``decompose`` on float CSV spaces of 65 to 128 points.

``--scale tiny`` takes about a second per tree and ``--scale full`` about
a minute for two trees, on a 2-core Linux VM.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

FAMILIES = ("validate_metric", "load_space", "embedding", "transport", "monotonicity", "metric", "cli", "csv")

#: Seeds of 16-point float spaces, ``_closure`` times 0.1, on whose
#: full-support functional the transport solver clamps a negative float
#: reduced cost to 0 most often among seeds 0-59 (15 to 30 times, counted on
#: a copy of the solver that counts its clamps).
_CLAMP_SEEDS = (23, 36, 58, 54, 27, 26)

#: Per scale: sizes of the validation matrices and of the exact and float
#: solver spaces, the seeds per size, the largest pair set, the number of
#: random CSV texts, the float CSV spaces with the functionals on each, the
#: size of the spaces scaled near the ends of float's range, the size of
#: the exact ``object``-lattice space of the monotonicity family and of its
#: float space with distances near 2**-45, the sizes of the tie-heavy
#: transport spaces, the clamp seeds, the size of the full-support float
#: transport case, and the number of random float bit patterns given to
#: ``coerce``.
SCALES = {
    "tiny": {"validate": (3, 9), "exact": (6,), "float": (66,), "seeds": 1, "pairs": 12, "csv_texts": 8,
             "csv": (66,), "csv_functionals": 1, "scaled": 4, "huge": 6, "small": 6,
             "ties": (7,), "clamp": _CLAMP_SEEDS[:2], "full_support": 66, "bits": 64, "trees": (9,)},
    "full": {"validate": (3, 9, 20, 33, 64, 65, 130), "exact": (8, 20, 40, 64), "float": (66, 100, 128), "seeds": 3,
             "pairs": 40, "csv_texts": 200, "csv": (65, 97, 128), "csv_functionals": 24, "scaled": 12, "huge": 20, "small": 20,
             "ties": (7, 16, 33), "clamp": _CLAMP_SEEDS, "full_support": 128, "bits": 4000,
             "trees": (9, 17, 33, 48, 64)},
}

#: Powers of two that put a closure's distances near both ends of float's
#: range: past it, subnormal, normal and near the largest float.
_SCALE_EXPONENTS = (-1100, -1074, -1060, -1022, 0, 1000, 1017, 1030)

#: Powers of two that scale the float validation matrices far below 1, where
#: a threshold that does not follow the distances rejects a valid space.
_SMALL_EXPONENTS = (-40, -80)


# --- the corpus, run inside the child interpreter ---------------------------------

def _closure(n, rng, top=48):
    """Integer shortest-path closure of random symmetric weights 1..top."""
    import numpy as np

    w = rng.integers(1, top + 1, size=(n, n))
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0)
    for k in range(n):
        np.minimum(w, w[:, k, None] + w[None, k, :], out=w)
    return w.tolist()


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # an error is an answer too, with its witness or certificate
        return type(exc).__name__, str(exc), getattr(exc, "witness", None), getattr(exc, "certificate", None)


def _space_key(space):
    return space.labels, space.exact, space.tol, space.dist


def _broken(rows, rng):
    """(name, matrix) for each way a matrix can fail, on copies of ``rows``."""
    n = len(rows)
    out = []

    def edit(name, cells):
        m = [list(r) for r in rows]
        for (i, j), v in cells.items():
            m[i][j] = v
        out.append((name, m))

    if n < 3:
        return out
    i, j, k = sorted(int(x) for x in rng.choice(n, size=3, replace=False))
    detour = min(rows[i][x] + rows[x][k] for x in range(n) if x not in (i, k))
    edit("triangle", {(i, k): detour + detour / 7 + 1, (k, i): detour + detour / 7 + 1})
    edit("asymmetric", {(i, j): rows[i][j] + Fraction(1, 12) if isinstance(rows[i][j], Fraction) else rows[i][j] + 1 / 12})
    edit("negative", {(i, j): -rows[i][j], (j, i): -rows[i][j]})
    edit("zero", {(j, k): 0, (k, j): 0})
    edit("diagonal", {(j, j): rows[i][j]})
    for label, cell in (("nan", math.nan), ("inf", math.inf), ("None", None), ("True", True), ("str", "3"),
                        ("1/3", Fraction(1, 3)), ("10**400", 10**400), ("list", [1]), ("dict", {})):
        edit(f"cell={label}", {(i, j): cell, (j, i): cell})
    out.append(("non-square", [list(r) for r in rows[:-1]] + [list(rows[-1][:-1])]))
    return out


def _matrices(sizes, rng):
    """(name, matrix) pairs: exact, float and past-int64 versions of a
    closure per size, each valid and broken."""
    big = Fraction(10**20 + 39, 10**19 + 7)
    for n in sizes:
        K = _closure(n, rng)
        for kind, rows in (
            ("exact", [[Fraction(v, 12) for v in r] for r in K]),
            ("float", [[v / 12 for v in r] for r in K]),
            ("big", [[Fraction(v, 12) * big for v in r] for r in K]),
        ):
            yield f"{kind}{n}/valid", rows
            for name, m in _broken(rows, rng):
                yield f"{kind}{n}/{name}", m


def _cell_text(v):
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return repr(v) if isinstance(v, float) else str(v)


def _json_cell(v):
    if isinstance(v, Fraction):
        return _cell_text(v)
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    return v


def _write_space(name, rows):
    """The matrix as ``name.json`` and ``name.csv`` in the working directory."""
    labels = [f"p{i}" for i in range(len(rows))]
    Path(f"{name}.json").write_text(json.dumps({"labels": labels, "dist": [[_json_cell(v) for v in r] for r in rows]}))
    text = ",".join(labels) + "\n" + "".join(",".join(_cell_text(v) for v in r) + "\n" for r in rows)
    Path(f"{name}.csv").write_text(text)
    return f"{name}.json", f"{name}.csv"


def _functional(lf, space, rng, support=None):
    points = list(range(1, space.n))
    if support is not None:
        points = sorted(int(x) for x in rng.choice(points, size=support, replace=False))
    return lf.Functional({i: Fraction(int(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])), int(rng.choice([1, 2, 3]))) for i in points}, space)


def _pair_measure(lf, space, rng, size, signed):
    """A pair measure on at most ``size`` random pairs with masses k/q,
    positive or, when ``signed``, of either sign."""
    mass = {}
    for _ in range(size):
        x, y = (int(v) for v in rng.choice(space.n, size=2, replace=False))
        m = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        mass[(x, y)] = -m if signed and rng.random() < 0.5 else m
    return lf.PairMeasure(mass, space)


def _measure_cases(lf, case, phi, mu, f, space):
    """``functional_of``, ``apply_representation`` and
    ``norming_functions_check`` of the pair measure ``mu``."""
    yield "transport", f"{case}/functional_of", _outcome(lambda: lf.functional_of(mu, space))
    yield "transport", f"{case}/apply", _outcome(lambda: lf.apply_representation(mu, f, space))
    yield "transport", f"{case}/norming", _outcome(lambda: lf.norming_functions_check(phi, f, mu, space))


def _scaled_spaces(lf, rng, n):
    """(name, space or the error that rejects it): an int64, an ``object``
    and a float lattice of one closure, each scaled by 2**k for k in
    ``_SCALE_EXPONENTS``.  The float ones have integer distances times a
    power of two, exact in float64, and tolerance 0, which a subnormal
    distance needs to pass as nonzero."""
    K = _closure(n, rng)
    big = Fraction(10**20 + 39, 10**19 + 7)
    for k in _SCALE_EXPONENTS:
        s = Fraction(2) ** k
        yield f"int{n}*2**{k}", _outcome(lambda: lf.validate_metric([[Fraction(v, 12) * s for v in r] for r in K], exact=True))
        yield f"big{n}*2**{k}", _outcome(lambda: lf.validate_metric([[v * big * s for v in r] for r in K], exact=True))
        yield f"float{n}*2**{k}", _outcome(lambda: lf.validate_metric([[float(v * s) for v in r] for r in K], exact=False, tol=0.0))


def _pair_sets(space, rng, size):
    """(name, pairs): random, geodesic (monotone) and reversed-geodesic sets
    of at most ``size`` pairs, a one-pair set and a set that repeats a pair."""
    d = space.dist
    n = space.n
    out = []
    for size in (4, size):
        seen = {}
        while len(seen) < min(size, n * (n - 1)):
            x, y = (int(v) for v in rng.integers(0, n, size=2))
            if x != y:
                seen[(x, y)] = None
        out.append((f"random{size}", list(seen)))
    p, q = out[0][1][:2]
    out += [("one pair", [p]), ("repeated pair", [q, p, q, q])]
    z = int(rng.integers(0, n))
    geo = [(x, y) for x in range(n) for y in range(n) if x != y and d[x][z] == d[x][y] + d[y][z]]
    if len(geo) > size:
        geo = [geo[k] for k in sorted(rng.choice(len(geo), size=size, replace=False))]
    out.append(("geodesic", geo))
    inner = [(x, y) for x, y in geo if y != z]
    if inner:
        x, y = inner[int(rng.integers(0, len(inner)))]
        out.append(("reversed", [p for p in geo if p not in ((x, y), (x, z))] + [(y, x), (x, z)]))
    return out


#: Hand-written CSV texts: (name, text).
_ODD_CSV = [
    ("plain", "a,b\n0,1\n1,0\n"),
    ("no final newline", "a,b\n0,1\n1,0"),
    ("CRLF", "a,b\r\n0,1\r\n1,0\r\n"),
    ("CR", "a,b\r0,1\r1,0\r"),
    ("blank lines", "\na,b\n\n0,1\n\n\n1,0\n\n"),
    ("spaces", "a , b\n 0,1 \n1 ,0\n"),
    ("trailing commas", "a,b,\n0,1,\n1,0,\n"),
    ("ragged", "a,b,c\n0,1,2\n1,0\n2,1,0\n"),
    ("quoted cells", 'a,b\n"0","1"\n"1",0\n'),
    ("quoted comma", '"a,x",b\n0,"1,5"\n"1,5",0\n'),
    ("quoted newline", '"a\nx",b\n0,1\n1,0\n'),
    ("stray quote", 'a,b\n0,1"\n1,0\n'),
    ("NUL in a cell", "a,b\n0,1\0\n1\0,0\n"),
    ("NUL in a label", "a\0,b\n0,1\n1,0\n"),
    ("decimals", "a,b,c\n0,.5,1.\n.5,0,0.5\n1.,0.5,0\n"),
    ("negative", "a,b\n0,-1\n-1,0\n"),
    ("dash", "a,b\n0,-\n-,0\n"),
    ("empty cells", "a,b\n0,\n,0\n"),
    ("field past the limit", "a,b\n0," + "9" * 140000 + "\n" + "9" * 140000 + ",0\n"),
    ("long line of short fields", "a" * 70000 + "," + "b" * 70000 + "\n0,1\n1,0\n"),
]


def _random_csv(rng):
    """A CSV-like text over digits, ``.``, ``,``, ``-``, space, CR, LF, quote
    and NUL: a label row and rows of 0-4 cells, some of them square."""
    n = int(rng.integers(1, 4))
    tokens = ["0", "1", "2", "1.5", "-1", ".5", " 2", "", "-", '"1"', '"1,2"', '"', "1\0", "3/2"]
    lines = [",".join(f"p{i}" for i in range(n))]
    for _ in range(int(rng.integers(0, n + 2))):
        width = n if rng.random() < 0.6 else int(rng.integers(0, n + 2))
        lines.append(",".join(tokens[int(k)] for k in rng.integers(0, len(tokens), size=width)))
        if rng.random() < 0.2:
            lines.append("")
    return str(rng.choice(["\n", "\n", "\r\n", "\r"])).join(lines) + str(rng.choice(["\n", ""]))


def _monotonicity_cases(lf, name, space, rng, size):
    """Certificates, slacks and extremal potentials of the pair sets of
    ``_pair_sets`` on an exact space and its float copy, or on a float space."""
    for mode_space in (space, space.with_mode(exact=not space.exact)) if space.exact else (space,):
        for set_name, pairs in _pair_sets(mode_space, rng, size):
            pair_set = lf.PairSet.of(pairs, mode_space)
            case = f"{name}/exact={mode_space.exact}/{set_name}"
            certificate = lf.check_cyclically_monotone(pair_set, mode_space)
            yield "monotonicity", case, certificate
            if not certificate.monotone:
                yield "monotonicity", f"{case}/slack", _outcome(lambda: lf.cycle_slack(certificate.cycle, mode_space))
            f = _outcome(lambda: lf.build_extremal_potential(pair_set, mode_space))
            yield "monotonicity", f"{case}/extremal", f
            if isinstance(f, lf.LipschitzPotential):
                yield "monotonicity", f"{case}/verify", lf.verify_extremal(f, pair_set, mode_space)


def _tie_spaces(n, rng):
    """(name, distance rows): ``n`` points on a line at distinct small integers,
    a star of ``n - 1`` leaves around the base point, and a taxicab grid of
    about ``n`` points; every distance is a small integer, so many paths tie."""
    positions = [0] + sorted(int(v) for v in rng.choice(range(1, 2 * n), size=n - 1, replace=False))
    yield f"line{n}", [[abs(a - b) for b in positions] for a in positions]
    yield f"star{n}", [[0 if i == j else 1 if 0 in (i, j) else 2 for j in range(n)] for i in range(n)]
    side = max(2, round(math.sqrt(n)))
    cells = [(i // side, i % side) for i in range(side * side)]
    yield f"grid{side}x{side}", [[abs(a - c) + abs(b - d) for c, d in cells] for a, b in cells]


def _transport_cases(lf, sizes):
    """Transport results on tie-heavy spaces in both modes, with functionals
    whose imbalance the base point takes as a sink (all coefficients
    positive) or as a source (all negative); on float spaces where the
    solver clamps reduced costs; and one full-support float case with
    coefficients in +-{1, 2, 3}."""
    import numpy as np

    rng = np.random.default_rng(20261021)
    for n in sizes["ties"]:
        for name, rows in _tie_spaces(n, rng):
            exact = lf.validate_metric(rows)
            for space in (exact, exact.with_mode(exact=False)):
                functionals = [("random", _functional(lf, space, rng)), ("partial", _functional(lf, space, rng, 2))]
                for sign in (1, -1):
                    coeffs = {i: sign * int(rng.integers(1, 4)) for i in range(1, space.n) if rng.random() < 0.7}
                    functionals.append((f"sign={sign}", lf.Functional(coeffs or {1: sign}, space)))
                for phi_name, phi in functionals:
                    case = f"{name}/exact={space.exact}/{phi_name}"
                    yield "transport", case, _outcome(lambda: lf.optimal_coupling(phi, space))
    for seed in sizes["clamp"]:
        r = np.random.default_rng(seed)
        space = lf.validate_metric([[v * 0.1 for v in row] for row in _closure(16, r)], exact=False)
        phi = _functional(lf, space, r)
        yield "transport", f"clamp/seed={seed}", _outcome(lambda: lf.optimal_coupling(phi, space))
    n = sizes["full_support"]
    space = lf.validate_metric([[v / 12 for v in row] for row in _closure(n, rng)], exact=False)
    phi = lf.Functional({i: int(rng.choice([-3, -2, -1, 1, 2, 3])) for i in range(1, n)}, space)
    yield "transport", f"full_support{n}", _outcome(lambda: lf.optimal_coupling(phi, space))


def _tree(points, rng):
    """(distance rows, (parent, weight, vertex)): a random recursive tree on
    about 1.5 times ``points`` vertices with weights k/q (k in 1..12, q in
    1..4), restricted to vertex 0 (the base point) and a random sample of
    the others; the vertices left out are Steiner points."""
    vertices = points + points // 2
    parent = [None] + [int(rng.integers(0, v)) for v in range(1, vertices)]
    weight = [Fraction(0)] + [Fraction(int(rng.integers(1, 13)), int(rng.integers(1, 5))) for _ in range(1, vertices)]
    vertex = [0] + sorted(int(v) for v in rng.choice(range(1, vertices), size=points - 1, replace=False))
    up = []  # each point's ancestors (itself first) with its distance to each
    for v in vertex:
        chain, total = {}, Fraction(0)
        while v is not None:
            chain[v] = total
            total, v = total + weight[v], parent[v]
        up.append(chain)
    rows = [[min(a[v] + b[v] for v in a if v in b) for b in up] for a in up]
    return rows, (parent, weight, vertex)


def _tree_cases(lf, sizes):
    """``oracles.tree_norm`` and ``optimal_coupling`` of random functionals
    on exact tree spaces, whose geodesic ties make many paths tie."""
    import numpy as np

    from lipfree import oracles

    rng = np.random.default_rng(20261023)
    for points in sizes["trees"]:
        rows, tree = _tree(points, rng)
        space = lf.validate_metric(rows, exact=True)
        for support in (None, points // 3):
            phi = _functional(lf, space, rng, support)
            case = f"tree{points}/support={support}"
            yield "transport", f"{case}/tree_norm", _outcome(lambda: oracles.tree_norm(phi, tree))
            yield "transport", case, _outcome(lambda: lf.optimal_coupling(phi, space))


def _scaled_transport_cases(lf, name, space, rng):
    """``optimal_coupling`` on an exact space scaled near an end of float's
    range, with a full-support functional and a random one."""
    full = lf.Functional({i: int(rng.choice([-3, -2, -1, 1, 2, 3])) for i in range(1, space.n)}, space)
    for phi_name, phi in (("full", full), ("random", _functional(lf, space, rng))):
        yield "transport", f"{name}/{phi_name}", _outcome(lambda: lf.optimal_coupling(phi, space))


def _coerce_cases(sizes):
    """``coerce`` in both modes on random 64-bit patterns read as floats
    (any sign, exponent and payload, NaN and infinity included) and on the
    ends of float's range."""
    import numpy as np

    from lipfree.numerics import coerce

    rng = np.random.default_rng(20261022)
    bits = rng.integers(0, 2**64, size=sizes["bits"], dtype=np.uint64).view(np.float64).tolist()
    for x in [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf, -math.inf, math.nan] + bits:
        for exact in (True, False):
            yield "metric", f"coerce/{x!r}/exact={exact}", _outcome(lambda: coerce(x, exact))


def _cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def corpus(scale):
    """Yield (family, case, answer) for every case of the corpus."""
    import numpy as np

    import lipfree as lf
    from lipfree import cli, io as lfio

    sizes = SCALES[scale]
    rng = np.random.default_rng(20261020)
    for k, (name, rows) in enumerate(_matrices(sizes["validate"], rng)):
        for mode in (None, True, False):
            yield "validate_metric", f"{name}/exact={mode}", _outcome(lambda: _space_key(lf.validate_metric(rows, exact=mode)))
        if name.startswith("float"):
            for e in _SMALL_EXPONENTS:
                small = [[v * 2.0**e if type(v) is float else v for v in r] for r in rows]
                yield "validate_metric", f"{name}*2**{e}", _outcome(lambda: _space_key(lf.validate_metric(small, exact=False)))
        for path in _write_space(f"m{k}", rows):
            for mode in (None, True, False):
                yield "load_space", f"{name}/{path}/exact={mode}", _outcome(lambda: _space_key(lfio.load_space(path, exact=mode)))
    int_rng = np.random.default_rng(20261025)
    for n in sizes["validate"]:
        rows = np.array(_closure(n, int_rng), dtype=np.int64)
        for mode in (None, True, False):
            yield "validate_metric", f"int64_{n}/exact={mode}", _outcome(lambda: _space_key(lf.validate_metric(rows, exact=mode)))

    spaces = []
    for seed in range(sizes["seeds"]):
        for n in sizes["exact"]:
            spaces.append((f"exact{n}s{seed}", lf.validate_metric([[Fraction(v, 12) for v in r] for r in _closure(n, rng)])))
        for n in sizes["float"]:
            spaces.append((f"float{n}s{seed}", lf.validate_metric([[v / 12 for v in r] for r in _closure(n, rng)], exact=False)))
        two = [[0] * sizes["exact"][-1] for _ in range(sizes["exact"][-1])]
        for i in range(len(two)):
            for j in range(i + 1, len(two)):
                two[i][j] = two[j][i] = int(rng.integers(1, 3))
        spaces.append((f"ties{len(two)}s{seed}", lf.validate_metric(two)))

    for name, space in spaces:
        yield "embedding", f"{name}/frechet", _outcome(lambda: lf.frechet_embedding(space))
        for dim in (1, 3):
            yield "embedding", f"{name}/search{dim}", _outcome(lambda: lf.best_embedding_search(dim, space, iterations=30, seed=dim))
        for support in (None, 2, space.n // 3):
            phi = _functional(lf, space, rng, support)
            case = f"{name}/support={support}"
            result = lf.optimal_coupling(phi, space)
            yield "transport", case, result
            yield "transport", f"{case}/decomposition", _outcome(lambda: lf.molecule_decomposition(phi, space))
            yield from _measure_cases(lf, case, phi, result.representation, result.potential, space)
            if support is None:
                full, potential = phi, result.potential
        for signed in (False, True):
            mu = _pair_measure(lf, space, rng, sizes["pairs"], signed)
            phi = _outcome(lambda: lf.functional_of(mu, space))
            yield from _measure_cases(lf, f"{name}/measure/signed={signed}", phi, mu, potential, space)

        yield "metric", f"{name}/rho", _outcome(lambda: lf.rho(space))
        for f_name, f in (("rho", lf.rho(space)), ("potential", potential)):
            yield "metric", f"{name}/de_leeuw/{f_name}", _outcome(lambda: lf.de_leeuw_transform(f, space))
        for x, y in (rng.choice(space.n, size=2, replace=False) for _ in range(4)):
            yield "metric", f"{name}/molecule/{x},{y}", _outcome(lambda: lf.molecule(int(x), int(y), space))
        for level in range(-5, 4):
            h = _outcome(lambda: lf.daleth(level, space))
            yield "metric", f"{name}/daleth/{level}", h
            yield "metric", f"{name}/adjoint/{level}", _outcome(lambda: lf.weighted_adjoint(full, h, space))
            if level > 0:
                yield "metric", f"{name}/pi_window/{level}", _outcome(lambda: lf.pi_window(level, space))

        yield from _monotonicity_cases(lf, name, space, rng, sizes["pairs"])

    yield from _transport_cases(lf, sizes)
    yield from _tree_cases(lf, sizes)

    n = sizes["huge"]  # distances near 2**62 * 48 / 7: the lattice and the pair graph hold Python ints
    huge = lf.validate_metric([[Fraction(v * (2**62 + 1), 7) for v in r] for r in _closure(n, rng)])
    yield from _monotonicity_cases(lf, f"huge{n}", huge, rng, sizes["pairs"])
    small_rng = np.random.default_rng(20261026)  # its own stream, so that the cases above keep theirs
    n = sizes["small"]
    small = lf.validate_metric([[Fraction(v, 12) * Fraction(2) ** -45 for v in r] for r in _closure(n, small_rng)])
    yield from _monotonicity_cases(lf, f"small{n}", small.with_mode(exact=False), small_rng, sizes["pairs"])

    scaled_rng = np.random.default_rng(20261024)
    for name, space in _scaled_spaces(lf, rng, sizes["scaled"]):
        if isinstance(space, lf.FiniteMetricSpace) and space.exact:
            yield from _scaled_transport_cases(lf, name, space, scaled_rng)
        for step in ("", "/with_mode", "/with_mode/back"):
            if step:
                space = _outcome(lambda: space.with_mode(exact=not space.exact))
            if not isinstance(space, lf.FiniteMetricSpace):  # the error is the answer
                yield "metric", name + step, space
                break
            yield "metric", name + step, _space_key(space)
    yield from _coerce_cases(sizes)

    for name, space in spaces[:2] if scale == "tiny" else spaces:
        files = _write_space(f"cli_{name}", space.dist)
        labels = [f"p{i}" for i in range(space.n)]  # as _write_space names the points
        phi = _functional(lf, space, rng, support=min(4, space.n - 1))
        Path("phi.json").write_text(json.dumps({"coeffs": {labels[i]: float(c) for i, c in sorted(phi.coeffs.items())}}))
        Path("pairs.json").write_text(json.dumps({"pairs": [[labels[1], labels[2]], [labels[2], labels[1]]]}))
        for path in files:
            for argv in (
                ["norm", "--input", path, "--functional", "phi.json"],
                ["coupling", "--input", path, "--functional", "phi.json"],
                ["potential", "--input", path, "--functional", "phi.json"],
                ["decompose", "--input", path, "--functional", "phi.json"],
                ["check-monotone", "--input", path, "--pairs", "pairs.json"],
                ["embed", "--input", path, "--dim", "2", "--iters", "40", "--seed", "7"],
            ):
                yield "cli", " ".join(argv), _cli(cli.main, argv)
    big = 10**400
    for name, dist, coeffs in (
        ("past_potential", [[0, 1, str(big)], [1, 0, str(big + 1)], [str(big), str(big + 1), 0]], {"a": 1}),
        ("past_coupling", [[0, f"1/{big}"], [f"1/{big}", 0]], {"a": str(big)}),
    ):
        Path(f"{name}.json").write_text(json.dumps({"labels": ["o", "a", "b"][: len(dist)], "dist": dist}))
        Path(f"{name}_phi.json").write_text(json.dumps({"coeffs": coeffs}))
        for command in ("norm", "coupling", "potential", "decompose"):
            argv = [command, "--input", f"{name}.json", "--functional", f"{name}_phi.json"]
            yield "cli", " ".join(argv), _cli(cli.main, argv)
    yield "cli", "gen-exotic --N 32", _cli(cli.main, ["gen-exotic", "--N", "32"])
    if scale == "full":
        yield "cli", "selftest --iters 2", _cli(cli.main, ["selftest", "--iters", "2"])

    texts = _ODD_CSV + [(f"random{k}", _random_csv(rng)) for k in range(sizes["csv_texts"])]
    for name, text in texts:
        Path("odd.csv").write_bytes(text.encode())
        for mode in (None, True, False):
            yield "csv", f"{name}/exact={mode}", _outcome(lambda: _space_key(lfio.load_space("odd.csv", exact=mode)))
    for n in sizes["csv"]:
        _, path = _write_space(f"csv{n}", [[v / 12 for v in r] for r in _closure(n, rng)])
        for k in range(sizes["csv_functionals"]):
            support = sorted(int(x) for x in rng.choice(range(1, n), size=int(rng.integers(2, n)), replace=False))
            coeffs = {f"p{i}": float(rng.choice([-4, -2, -1, 1, 2, 4])) / float(rng.choice([1, 3])) for i in support}
            Path("phi.json").write_text(json.dumps({"coeffs": coeffs}))
            for command in ("norm", "coupling", "decompose"):
                argv = [command, "--input", path, "--functional", "phi.json"]
                yield "csv", f"{n}/{k}/{command}", _cli(cli.main, argv)


def _run_corpus(scale):
    import lipfree

    print(f"# lipfree {Path(lipfree.__file__).resolve().parent}", flush=True)
    for family, case, answer in corpus(scale):
        digest = hashlib.sha256(repr(answer).encode()).hexdigest()
        print(f"{family}\t{case}\t{digest}")
    return 0


# --- the comparison, run in the parent interpreter --------------------------------

def _scan(src, scale):
    """Start the corpus on one tree; returns the running process and its directory."""
    work = tempfile.TemporaryDirectory(prefix="identity_scan_")
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--corpus", scale],
        cwd=work.name, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    return proc, work


def _parse(src, out):
    """The (case, digest) lists by family, or None if lipfree came from elsewhere."""
    lines = out.splitlines()
    if not lines or lines[0] != f"# lipfree {(src / 'lipfree').resolve()}":
        return None
    cases = {family: [] for family in FAMILIES}
    for line in lines[1:]:
        family, case, digest = line.split("\t")
        cases[family].append((case, digest))
    return cases


def _by_name(cases):
    """{case name: digest}, the k-th repeat of a name (k > 1) as ``name #k``."""
    seen = collections.Counter()
    named = {}
    for case, digest in cases:
        seen[case] += 1
        named[case if seen[case] == 1 else f"{case} #{seen[case]}"] = digest
    return named


def main(argv=None):
    parser = argparse.ArgumentParser(description="Compare lipfree's answers between two source trees.")
    parser.add_argument("--src", action="append", type=Path, help="a source tree (the directory holding lipfree/); give two")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--corpus", choices=sorted(SCALES), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.corpus:
        return _run_corpus(args.corpus)
    if not args.src or len(args.src) != 2:
        parser.error("give --src twice")
    runs = [_scan(src, args.scale) for src in args.src]
    results = []
    for src, (proc, work) in zip(args.src, runs):
        with work:
            out, err = proc.communicate()
        results.append(_parse(src, out) if proc.returncode == 0 else None)
        if results[-1] is None:
            sys.stderr.write(f"identity scan: the corpus did not run on lipfree from {src}:\n{err}")
    if None in results:
        return 2
    a, b = results
    differing = []
    for family in FAMILIES:
        digests = [hashlib.sha256("".join(f"{c}\t{d}\n" for c, d in r[family]).encode()).hexdigest() for r in (a, b)]
        verdict = "same" if digests[0] == digests[1] else "DIFFERENT"
        print(f"{family:16s} {len(a[family]):5d} / {len(b[family]):5d} cases  {digests[0]}  {digests[1]}  {verdict}")
        if verdict != "same":
            differing.append(family)
    for family in differing:
        x, y = _by_name(a[family]), _by_name(b[family])
        names = [case for case in {**x, **y} if x.get(case) != y.get(case)]
        print(f"{family}: {len(names)} cases differ; the first {min(5, len(names))}:")
        for case in names[:5]:
            print(f"  {case}")
    if differing:
        return 1
    print("identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
