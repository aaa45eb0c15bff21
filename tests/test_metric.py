import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from lipfree import (
    AsymmetricMatrix,
    Functional,
    LipschitzPotential,
    Molecule,
    NegativeDistance,
    PairMeasure,
    PairSet,
    TriangleViolation,
    WeightFunction,
    ZeroOffDiagonal,
    apply_representation,
    build_extremal_potential,
    cycle_slack,
    daleth,
    de_leeuw_transform,
    delta,
    evaluate,
    functional_of,
    lip_constant,
    molecule,
    norming_functions_check,
    optimal_coupling,
    pair_graph,
    pi_window,
    rho,
    validate_metric,
    verify_extremal,
)
from lipfree.embedding import _worst_pair_separation
from lipfree.metric import (
    MetricError,
    NonFiniteDistance,
    NonzeroDiagonal,
    _int_dtype,
    _lattice,
    _pair_distances,
    _pinned_envelope,
    _ratio_extreme,
    _ratio_extremes,
    _triangle_witness,
    functionals_equal,
    validate_grid,
)
from lipfree.instances import line_space, random_functional, random_space
from lipfree.monotonicity import _bellman_ford
from lipfree.numerics import coerce, left_sum


LINE = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]  # colinear 0, a, b


def test_validate_line_metric():
    sp = validate_metric(LINE, ["0", "a", "b"])
    assert sp.n == 3 and sp.exact
    assert sp.d(0, 2) == 2 and sp.d(sp.index("a"), sp.index("b")) == 1


def test_validate_triangle_violation():
    bad = [[0, 1, 1], [1, 0, 5], [1, 5, 0]]
    with pytest.raises(TriangleViolation) as exc:
        validate_metric(bad)
    i, j, k = exc.value.witness
    m = [[F(v) for v in row] for row in bad]
    assert m[i][k] > m[i][j] + m[j][k]


def test_validate_rejects_each_axiom():
    with pytest.raises(AsymmetricMatrix):
        validate_metric([[0, 1], [2, 0]])
    with pytest.raises(NegativeDistance):
        validate_metric([[0, -1], [-1, 0]])
    with pytest.raises(ZeroOffDiagonal):
        validate_metric([[0, 0], [0, 0]])
    with pytest.raises(NonzeroDiagonal):
        validate_metric([[1, 1], [1, 0]])
    with pytest.raises(MetricError):
        validate_metric([[0, 1], [1, 0], [1, 1]])


def _first_axiom_failure(m, exact, tol=1e-9):
    """Reference scan for every axiom but the triangle: the error class and
    witness validate_metric must raise, or None."""
    eq = (lambda a, b: a == b) if exact else (lambda a, b: abs(a - b) <= tol)
    n = len(m)
    for i in range(n):
        if not eq(m[i][i], 0):
            return (NegativeDistance, (i, i)) if m[i][i] < 0 else (NonzeroDiagonal, (i,))
    for i in range(n):
        for j in range(i + 1, n):
            if not eq(m[i][j], m[j][i]):
                return AsymmetricMatrix, (i, j)
            if m[i][j] < 0:
                return NegativeDistance, (i, j)
            if eq(m[i][j], 0):
                return ZeroOffDiagonal, (i, j)
    return None


def test_validate_witness_is_row_major_first_failure():
    # Several axioms broken at once; the precedence is diagonal first, then
    # per pair in row-major order: asymmetric, negative, zero.
    rng = random.Random(8)
    failures = 0
    for trial in range(150):
        sp = random_space(rng.randint(2, 9), trial)
        for exact in (True, False):
            m = [[v if exact else float(v) for v in row] for row in sp.dist]
            for _ in range(rng.randint(2, 4)):
                i, j = rng.randrange(sp.n), rng.randrange(sp.n)
                kind = rng.choice(["asym", "neg", "zero", "diag", "noise", "tiny"])
                if kind == "diag":
                    m[i][i] = rng.choice([F(1, 7), F(-1, 7), F(1, 10**10)])
                elif i == j:
                    continue
                elif kind == "asym":
                    m[i][j] = m[i][j] * 2
                elif kind == "neg":
                    m[i][j] = m[j][i] = -m[i][j]
                elif kind == "zero":
                    m[i][j] = m[j][i] = 0
                elif kind == "noise":
                    m[i][j] += F(1, 10**10)
                else:  # opposite signs, equal within the float tolerance
                    m[i][j], m[j][i] = F(-1, 10**10), F(1, 10**10)
                if not exact:
                    for x, y in ((i, j), (j, i), (i, i)):
                        m[x][y] = float(m[x][y])
            expected = _first_axiom_failure(m, exact)
            if expected is None:
                try:
                    valid = validate_metric(m, exact=exact)
                except TriangleViolation:
                    continue
                zero_diagonal = [[0 if x == y else v for y, v in enumerate(r)] for x, r in enumerate(m)]
                assert valid.dist == tuple(map(tuple, zero_diagonal))
                continue
            failures += 1
            with pytest.raises(MetricError) as exc:
                validate_metric(m, exact=exact)
            assert (type(exc.value), exc.value.witness) == expected
    assert failures >= 150


def test_validate_exotic_truncation_is_exact_metric():
    from lipfree.exotic import exotic_metric

    em = exotic_metric(64)
    rows = [[em.d(x, y) for y in range(1, 65)] for x in range(1, 65)]
    sp = validate_metric(rows, [str(i) for i in range(1, 65)], exact=True)
    assert sp.exact and sp.n == 64


def test_lip_constant_rho_and_constant():
    for seed in range(5):
        sp = random_space(6, seed)
        assert lip_constant([sp.d(i, 0) for i in sp.points], sp) == 1
        assert lip_constant([F(7)] * sp.n, sp) == 0


def test_lip_constant_of_a_one_point_space_is_zero():
    # No pair to take a quotient over: the empty max is 0, in the space's mode.
    value = lip_constant([F(0)], validate_metric([[0]], exact=True))
    assert value == 0 and type(value) is F


@pytest.mark.parametrize("exact", [True, False])
def test_a_one_point_space_validates_in_both_modes(exact):
    sp = validate_metric([[0]], ["p"], exact=exact)
    assert sp.n == 1 and sp.exact is exact and sp.labels == ("p",) and sp.dist == ((0,),)
    for dtype in (np.int64, float, object):
        assert _triangle_witness(np.zeros((1, 1), dtype=dtype), 0) is None


BIG = F(10**20 + 39, 10**19 + 7)


def _kernel_cases():
    """(space, value vectors) in both modes: int64 and Python-int lattices,
    denominators up to 10**20+39, ties and signed float zeros."""
    rng = random.Random(5)
    for seed in range(8):
        base = random_space(3 + seed, seed)
        for mult in (1, F(10**12, 10**12 + 3), BIG):
            rows = [[v * mult for v in row] for row in base.dist]
            sp = validate_metric(rows, exact=True)
            assert (sp.grid[0].dtype == object) == (mult is BIG)
            j = rng.randrange(sp.n)
            vectors = [
                [F(rng.randint(-9, 9), rng.choice([1, 2, 3, 10**12 + 3, 10**20 + 39])) for _ in sp.points],
                [sp.d(x, j) - sp.d(0, j) for x in sp.points],
                [sp.d(x, 0) * rng.choice([1, F(1, 2)]) for x in sp.points],
            ]
            yield sp, vectors
            fsp = validate_metric(rows, exact=False)
            yield fsp, [
                [rng.uniform(-3, 3) for _ in sp.points],
                [fsp.d(x, j) - fsp.d(0, j) for x in sp.points],
                [-fsp.d(x, 0) if x else -0.0 for x in sp.points],
            ]


def _lip_reference(vals, sp):
    """The pair loop: Fraction arithmetic in exact mode, the same IEEE
    operations in float mode."""
    best = F(0) if sp.exact else 0.0
    for i in sp.points:
        for j in range(i + 1, sp.n):
            slope = abs(vals[i] - vals[j]) / sp.d(i, j)
            if slope > best:
                best = slope
    return best


def _cone_reference(anchors, values, sp):
    rows = [sp.dist[a] for a in anchors]
    return [max(v - row[z] for v, row in zip(values, rows)) for z in sp.points]


def _worst_pair_reference(rows, sp):
    best = None
    for i in sp.points:
        for j in range(i + 1, sp.n):
            sep = max(abs(r[i] - r[j]) for r in rows) / sp.d(i, j)
            if best is None or sep < best:
                best = sep
    return best


def test_lip_constant_matches_bruteforce():
    for sp, vectors in _kernel_cases():
        for vals in vectors:
            assert repr(lip_constant(vals, sp)) == repr(_lip_reference(vals, sp))


def test_cone_envelope_matches_bruteforce():
    rng = random.Random(6)
    for sp, vectors in _kernel_cases():
        for vals in vectors:
            sample = sorted(rng.sample(range(sp.n), rng.randint(1, sp.n)))
            for anchors, values in ((sample, [vals[a] for a in sample]), (sp.points, [-v for v in vals])):
                want = _cone_reference(anchors, values, sp)
                got = _pinned_envelope(anchors, values, sp).values
                assert repr(got) == repr(tuple(v - want[0] for v in want))


def test_ratio_extreme_settles_float_inversions():
    # Above 2**53, int64 quotients in float64 can order two ratios the wrong
    # way round; the exact settle must still return the true extremes.
    num = np.array([2126256059769359426, 2126256059770338820], dtype=np.int64)
    den = np.array([1652365709465708537, 1652365709466469649], dtype=np.int64)
    assert num[0] / den[0] < num[1] / den[1]
    big, small = F(int(num[0]), int(den[0])), F(int(num[1]), int(den[1]))
    assert big > small
    assert _ratio_extreme(num, den, largest=True) == big
    assert _ratio_extreme(num, den, largest=False) == small


@pytest.mark.parametrize(
    "mult, dtype, fast",
    [
        (1, "<i8", True),
        (F(7, 5), "<i8", True),
        (F(3, 10**14), "<i8", True),
        (2**55, "<i8", False),  # entries past 2**53
        (F(1, 2**55), "<i8", False),  # scale past 2**53
        (F(10**20 + 39, 10**19 + 7), "|O", False),
    ],
)
def test_with_mode_to_float_matches_per_cell(mult, dtype, fast):
    for seed in range(8):
        sp = validate_metric([[v * mult for v in row] for row in random_space(2 + seed, seed).dist])
        a, scale = sp.grid
        assert a.dtype.str == dtype
        assert (scale < 2**53 and abs(a).max() < 2**53) == fast
        fsp = sp.with_mode(exact=False)
        want = tuple(tuple(float(v) for v in row) for row in sp.dist)
        assert repr(fsp.dist) == repr(want) and not fsp.exact
        grid, one = fsp.grid
        assert one == 1 and grid.tobytes() == np.array(want).tobytes() and not grid.flags.writeable
        # and back: float to exact, each float read with decimal-literal semantics
        esp = fsp.with_mode(exact=True)
        want = tuple(tuple(coerce(v, True) for v in row) for row in fsp.dist)
        assert repr(esp.dist) == repr(want) and esp.exact
        grid, scale = esp.grid
        ref, ref_scale = _lattice(want)
        assert scale == ref_scale and grid.dtype == ref.dtype and grid.tolist() == ref.tolist()


def _per_cell_validate(raw, exact):
    """``validate_metric`` with every cell read by ``coerce`` on its own, in
    row-major order: exact mode scales the Fractions by the lcm of their
    denominators, and a cell ``coerce`` rejects as non-finite is a
    ``NonFiniteDistance``."""
    labels = tuple(str(i) for i in range(len(raw)))
    rows = []
    for i, row in enumerate(raw):
        rows.append([])
        for j, v in enumerate(row):
            try:
                rows[-1].append(coerce(v, exact))
            except ValueError:
                if not exact:
                    raise
                raise NonFiniteDistance(i, j) from None
    if not exact:
        return validate_grid(np.array(rows, dtype=float), 1, labels, exact=False)
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    ints = [[int(v * scale) for v in row] for row in rows]
    top = max(abs(v) for row in ints for v in row)
    return validate_grid(np.array(ints, dtype=_int_dtype(top)), scale, labels, exact=True)


def _outcome(fn):
    """The space's distances and grid, or the error's class, text and witness."""
    try:
        sp = fn()
    except (MetricError, TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    a, scale = sp.grid
    return repr(sp.dist), a.dtype.str, repr(a.tolist()), scale


_ODD_CELLS = [
    None, True, False, "3", " 2.5 ", "abc", b"3", F(5, 2), F(1, 3), 10**400, -(10**400),
    [1], [1, 2], {}, {"a": 1}, 1j, 2**63, 2**63 + 1, 2**70, 2.5, 3, math.nan, math.inf, np.float64(1.5),
]


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("cell", _ODD_CELLS, ids=repr)
def test_validate_metric_reads_each_cell_as_coerce_does(exact, cell):
    # numpy's inferred dtype picks the float route and the lattice skips
    # ``coerce`` for ints and Fractions; the value, error class, text and
    # witness stay those of the per-cell read, with the cell alone, behind
    # a bad string, and ahead of a non-finite float.
    rows = [[0 if i == j else 2 for j in range(3)] for i in range(3)]
    rows[0][1] = rows[1][0] = cell
    cases = [rows, [r[:] for r in rows], [r[:] for r in rows]]
    cases[1][0][2] = cases[1][2][0] = "x"
    cases[2][2][1] = math.nan
    for raw in cases:
        want = _outcome(lambda: _per_cell_validate(raw, exact))
        assert _outcome(lambda: validate_metric(raw, exact=exact)) == want, raw


@pytest.mark.parametrize("exact", [True, False])
def test_validate_metric_reads_whole_matrices_as_coerce_does(exact):
    # Matrices that numpy reads whole: all bool, all one-element lists
    # (a 3-D array), ints past int64 with and without a negative entry.
    for raw in (
        [[False, True], [True, False]],
        [[[0], [1]], [[1], [0]]],
        [[0, 2**64], [2**64, 0]],
        [[0, -1], [2**63, 0]],
        [[0, 2**62], [2**62, 0]],
        [[0.0, 0.5], [0.5, 0.0]],
    ):
        want = _outcome(lambda: _per_cell_validate(raw, exact))
        assert _outcome(lambda: validate_metric(raw, exact=exact)) == want, raw


def test_with_mode_to_float_rounds_each_exact_distance_once():
    # Past 2**53 a float numerator over a float denominator rounds twice;
    # 10**400 and the distances to it are past float's range.
    p = F(2072911645936348997, 11)
    assert float(p.numerator) / p.denominator != float(p.numerator / p.denominator)
    sp = line_space([0, p, 2**70 + 1, 10**400])
    fsp = sp.with_mode(exact=False)
    assert not fsp.exact and fsp.grid[1] == 1
    for i in sp.points:
        for j in sp.points:
            v, r = sp.d(i, j), fsp.d(i, j)
            assert type(r) is float and r == fsp.grid[0][i, j]
            if v >= 2**1024:
                assert r == math.inf
            else:  # no float lies closer to v
                assert all(abs(F(r) - v) <= abs(F(math.nextafter(r, t)) - v) for t in (-1, math.inf))
    assert fsp.d(0, 1) == float(p.numerator / p.denominator) and fsp.d(0, 3) == math.inf


def test_with_mode_keeps_the_tolerance():
    sp = validate_metric(random_space(5, 0).dist, tol=1e-6)
    fsp = sp.with_mode(exact=False)
    assert sp.exact and not fsp.exact and fsp.tol == 1e-6
    esp = fsp.with_mode(exact=True)
    assert esp.exact and esp.tol == 1e-6


def test_worst_pair_separation_matches_bruteforce():
    for sp, vectors in _kernel_cases():
        for k in range(1, len(vectors) + 1):
            rows = vectors[:k]
            assert repr(_worst_pair_separation(rows, sp)) == repr(_worst_pair_reference(rows, sp))


def test_de_leeuw_of_rho_hits_one_toward_base():
    sp = random_space(7, seed=3)
    q = de_leeuw_transform(rho(sp), sp)
    for x in range(1, sp.n):
        assert q[(x, 0)] == 1


def test_de_leeuw_constant_and_antisymmetry():
    sp = random_space(6, seed=9)
    zero = LipschitzPotential.build([0] * sp.n, sp)
    assert all(v == 0 for v in de_leeuw_transform(zero, sp).values())
    rng = random.Random(1)
    vals = [F(0)] + [F(rng.randint(-8, 8), 2) for _ in range(sp.n - 1)]
    f = LipschitzPotential.build(vals, sp)
    q = de_leeuw_transform(f, sp)
    for (x, y), v in q.items():
        assert v == -q[(y, x)]
    assert max(abs(v) for v in q.values()) == f.lip


def test_evaluate_examples():
    sp = validate_metric(LINE, ["0", "a", "b"])
    a, b = 1, 2
    assert evaluate(delta(a, sp), rho(sp)) == sp.d(a, 0)
    f = LipschitzPotential.build([0, sp.d(a, b), 0], sp)
    assert evaluate(molecule(a, b, sp), f) == 1


def test_evaluate_bilinear():
    sp = random_space(6, seed=11)
    rng = random.Random(2)
    for _ in range(20):
        phi = Functional({rng.randrange(1, 6): F(rng.randint(-3, 3) or 1)}, sp)
        psi = Functional({rng.randrange(1, 6): F(rng.randint(-3, 3) or 2)}, sp)
        vals = [F(0)] + [F(rng.randint(-5, 5)) for _ in range(sp.n - 1)]
        f = LipschitzPotential.build(vals, sp)
        assert evaluate(phi.plus(psi, sp), f) == evaluate(phi, f) + evaluate(psi, f)


def test_rho_examples():
    sp = validate_metric([[0, 3], [3, 0]])
    r = rho(sp)
    assert r.values == (F(0), F(3)) and r.lip == 1

    from lipfree.exotic import exotic_metric

    em = exotic_metric(64)
    sp64 = em.as_space()
    r64 = rho(sp64)
    assert r64.values[0] == 0
    assert all(v == F(1, 2) for v in r64.values[1:])


def test_functional_normalizes_base_and_zeros():
    sp = validate_metric(LINE)
    phi = Functional({0: F(5), 1: F(0), 2: F(3)}, sp)
    assert phi.coeffs == {2: F(3)}
    assert Functional({0: F(1)}, sp).is_zero()


def test_molecule_is_unit_norm_certified_by_norming_function():
    from lipfree import free_norm

    sp = random_space(6, seed=21)
    for x, y in [(1, 2), (3, 0), (4, 5)]:
        m = molecule(x, y, sp)
        f_vals = [sp.d(z, y) - sp.d(0, y) for z in sp.points]
        f = LipschitzPotential.build(f_vals, sp)
        assert f.lip == 1
        assert evaluate(m, f) == 1
        assert free_norm(m, sp) == 1


def test_potential_must_vanish_at_base():
    sp = validate_metric(LINE)
    with pytest.raises(ValueError):
        LipschitzPotential.build([1, 0, 0], sp)


def test_validate_modes_agree_on_random_matrices():
    # Exact and float validation must agree on clear verdicts either way,
    # and the float triangle tolerance must grow with the distances.
    for trial in range(300):
        sp = random_space(4 + trial % 9, trial + 4000)
        for scale in (1, 1e8):
            rows = [[float(v) * scale for v in row] for row in sp.dist]
            ok_float = validate_metric(rows, exact=False)
            assert ok_float.n == sp.n
            # break one triangle decisively and expect both modes to reject
            i, j = 1, 2
            bad = [row[:] for row in rows]
            bump = float(max(max(r) for r in rows)) * 3
            bad[i][j] = bad[j][i] = bad[i][j] + bump
            for exact in (True, False):
                with pytest.raises(TriangleViolation):
                    validate_metric(bad, exact=exact)


def _first_triangle_violation(m):
    """Reference: the lexicographically first (i, j, k) with
    m[i][k] > m[i][j] + m[j][k], in Fraction arithmetic, or None."""
    n = len(m)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if m[i][k] > m[i][j] + m[j][k]:
                    return (i, j, k)
    return None


def _assert_exact_check_matches_reference(rows):
    witness = _first_triangle_violation(rows)
    if witness is None:
        assert validate_metric(rows, exact=True).dist == tuple(map(tuple, rows))
    else:
        with pytest.raises(TriangleViolation) as exc:
            validate_metric(rows, exact=True)
        assert exc.value.witness == witness
    return witness


def test_exact_triangle_witness_is_lexicographically_first():
    rng = random.Random(77)
    broken = 0
    for trial in range(80):
        sp = random_space(rng.randint(3, 10), seed=trial)
        rows = [list(r) for r in sp.dist]
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(sp.n), 2)
            rows[i][j] = rows[j][i] = rows[i][j] * rng.choice([F(1, 3), F(1, 2), F(3, 2), 3])
        broken += _assert_exact_check_matches_reference(rows) is not None
    assert broken >= 40


def test_exact_triangle_check_beyond_int64():
    # Denominators whose lcm pushes the integer matrix past int64, so the
    # check runs on Python ints; the break is far below float resolution.
    big = F(10**20 + 39, 10**19 + 7)
    for seed in range(6):
        sp = random_space(4 + seed, seed)
        rows = [[v * big for v in row] for row in sp.dist]
        assert _lattice(rows)[0].dtype == object
        assert _assert_exact_check_matches_reference(rows) is None
        i, j, k = 1, 2, 3
        rows[i][k] = rows[k][i] = rows[i][j] + rows[j][k] + F(1, 10**30)
        assert _assert_exact_check_matches_reference(rows) is not None


def _triangle_reference(a, threshold):
    """The full-mask loop, one row at a time, that the min-plus prefilter
    of ``_triangle_witness`` guards."""
    for i in range(len(a)):
        bad = a[i, :, None] + a - a[i, None, :] < -threshold
        if bad.any():
            j, k = np.argwhere(bad)[0]
            return i, int(j), int(k)
    return None


def _dyadic_metric(n, seed):
    """A shortest-path closure of integer weights times 2**-7: every sum and
    difference below is exact in float64, and the largest distance is below
    1, so the float triangle threshold equals ``tol``."""
    rng = np.random.default_rng(seed)
    w = rng.integers(1, 64, size=(n, n))
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0)
    for k in range(n):
        np.minimum(w, w[:, k, None] + w[None, k, :], out=w)
    return w * 2.0**-7


@pytest.mark.parametrize("i, k", [(3, 40), (125, 127)])
def test_triangle_prefilter_at_and_past_threshold(i, k):
    tol = 2.0**-20
    a = _dyadic_metric(128, seed=i)
    # Raise d(i, k) to the shortest detour plus the threshold: every triangle
    # through (i, k) then has slack of at least -tol, and equal to -tol on
    # the best detour.
    detour = min(a[i, j] + a[j, k] for j in range(128) if j not in (i, k))
    a[i, k] = a[k, i] = detour + tol
    assert a.max() < 1 and (a[i, :, None] + a - a[i, None, :]).min() == -tol
    assert _triangle_witness(a, tol) is None
    assert validate_metric(a.tolist(), exact=False, tol=tol).d(i, k) == detour + tol
    a[i, k] = a[k, i] = np.nextafter(detour + tol, 2.0)
    witness = _triangle_reference(a, tol)
    assert witness is not None and witness[0] == i
    assert _triangle_witness(a, tol) == witness
    with pytest.raises(TriangleViolation) as exc:
        validate_metric(a.tolist(), exact=False, tol=tol)
    assert exc.value.witness == witness


def test_triangle_prefilter_matches_full_mask():
    # Random non-metrics with NaN entries and broken triangles, in float64,
    # int64 and Python-int arrays: the same witness or None as the full mask.
    rng = np.random.default_rng(11)
    found = 0
    for trial in range(300):
        n = int(rng.integers(2, 14))
        a = rng.integers(1, 20, size=(n, n)).astype(float)
        a = np.minimum(a, a.T)
        np.fill_diagonal(a, 0)
        if trial % 3 == 0:
            a[rng.random((n, n)) < 0.1] = np.nan
        threshold = float(rng.choice([0.0, 0.5, 3.0]))
        cases = [a]
        if trial % 3:
            cases += [a.astype(np.int64), a.astype(np.int64).astype(object)]
        for b in cases:
            witness = _triangle_reference(b, threshold)
            assert _triangle_witness(b, threshold) == witness
            found += witness is not None
    assert found >= 100


def test_triangle_screen_matches_full_mask():
    # The row screen compares r[i] + c[k] with a[i, k], r and c the
    # off-diagonal row and column minima.  Asymmetric matrices tell the two
    # minima apart; uniformly discrete ones (every distance in [1/2, 1],
    # as in the exotic metric) pass the screen in every row unless broken.
    rng = np.random.default_rng(21)
    found = 0
    for trial in range(300):
        n = int(rng.integers(2, 14))
        if trial % 2:
            a = rng.integers(1, 20, size=(n, n))
            threshold = float(rng.choice([0.0, 0.5, 3.0]))
        else:
            a = rng.integers(12, 25, size=(n, n))  # [1/2, 1] in 24ths
            if trial % 4 == 0:
                i, k = rng.integers(0, n, size=2)
                a[i, k] = 25 + int(rng.integers(0, 30))
            threshold = 0.0
        np.fill_diagonal(a, 0)
        for b in (a.astype(float), a.astype(float) / 24, a, a.astype(object)):
            witness = _triangle_reference(b, threshold)
            assert _triangle_witness(b, threshold) == witness
            found += witness is not None
    assert found >= 300


def test_triangle_screen_on_float_matrices_asymmetric_within_tol():
    # Every distance near 3/8, symmetric only to within tol, except a short
    # detour i -> j -> k of 1/4 + 1/4 whose reverse legs are longer: r[i]
    # and c[k] are attained on the detour, so raising d(i, k) to the
    # threshold and one ulp past it puts the screen on its boundary.
    tol = 2.0**-20
    rng = np.random.default_rng(4)
    for trial in range(40):
        n = int(rng.integers(3, 30))
        a = 3 / 8 + rng.integers(-2, 3, size=(n, n)) * 2.0**-23  # asymmetric by at most tol / 2
        np.fill_diagonal(a, 0)
        i, j, k = (int(x) for x in rng.choice(n, size=3, replace=False))
        a[i, j] = a[j, k] = 1 / 4
        a[j, i] = a[k, j] = 1 / 4 + 2.0**-22
        for a_ik, violated in ((1 / 2 + tol, False), (np.nextafter(1 / 2 + tol, 1.0), True)):
            a[i, k] = a[k, i] = a_ik
            witness = _triangle_reference(a, tol)
            assert (witness is not None) == violated
            assert _triangle_witness(a, tol) == witness
            try:
                validate_metric(a.tolist(), exact=False, tol=tol)
            except TriangleViolation as exc:
                assert exc.witness == witness
            else:
                assert witness is None


def _kept_rows(a, threshold):
    """The rows that the O(n²) screen of ``_triangle_witness`` keeps: some
    k with r[i] + c[k] - a[i, k] < -threshold, r and c the off-diagonal
    row and column minima."""
    sums = a.copy()
    np.fill_diagonal(sums, a.max())
    r, c = sums.min(axis=1), sums.min(axis=0)
    return np.flatnonzero((r[:, None] + c - a < -threshold).any(axis=1)).tolist()


def _shifted_line(n, rng):
    """Integer distances |t_x - t_y| + 800 for points t_x in [0, 1000]: a
    metric whose screen keeps the rows of points near either end and drops
    the middle ones, in shuffled order."""
    t = rng.integers(0, 1001, size=n)
    a = np.abs(t[:, None] - t[None, :]) + 800
    np.fill_diagonal(a, 0)
    return a, t


def _blocks(kept, n):
    """The kept rows in the blocks that ``_triangle_witness`` relaxes on a
    symmetric matrix: a block starting at row k0 takes
    ``max(1, 65536 // (n * (n - k0)))`` rows."""
    blocks, start = [], 0
    while start < len(kept):
        step = max(1, 65536 // (n * (n - kept[start])))
        blocks.append(kept[start : start + step])
        start += step
    return blocks


@pytest.mark.parametrize("n", range(1, 141))
def test_triangle_blocks_report_the_first_failing_row(n):
    # On a symmetric matrix a block reads only the columns k >= k0, its
    # first row.  A broken pair (i, k) makes rows i and k fail and no
    # other, so the witness must come from min(i, k) wherever k lies:
    # before k0, at it or after it, with i the first, a middle or the last
    # row of its block, or a row the screen drops until the break.  Grids:
    # int64, float, Python int (past 2**62), and the float grid one ulp off
    # symmetric in one entry, which reads every column; thresholds 0 and
    # positive.
    rng = np.random.default_rng(n)
    base, t = _shifted_line(n, rng)
    place, partner = divmod(n % 10, 3)  # place 3: a dropped row
    threshold = (0, 5)[n // 10 % 2]
    kept = _kept_rows(base, threshold)
    blocks = _blocks(kept, n)
    assert sum(blocks, []) == kept
    a = base.copy()
    if blocks and n > 2:
        block = blocks[len(blocks) // 2]
        k0 = block[0]
        if place < 3:
            i = block[(0, len(block) // 2, -1)[place]]
        else:
            i = next((x for x in range(n) if x not in kept), k0)
        others = (range(k0), [k0], range(k0 + 1, n))[partner]
        others = [x for x in others if x != i]
        if others:
            # The farthest such point: a[i, k] is then no row's minimum.
            k = max(others, key=lambda x: (abs(int(t[i] - t[x])), -x))
            detour = min(a[i, j] + a[j, k] for j in range(n) if j not in (i, k))
            a[i, k] = a[k, i] = detour + threshold + 1
    lopsided = a * 2.0**-7
    if n > 1:
        p, q = (int(x) for x in rng.choice(n, size=2, replace=False))
        lopsided[p, q] = np.nextafter(lopsided[p, q], np.inf)
    for grid, unit in ((a, 1), (a * 2.0**-7, 2.0**-7), (lopsided, 2.0**-7), (a.astype(object) * (2**62 + 1), 2**62 + 1)):
        if grid.dtype == object and n not in (3, 9, 33, 64, 65, 128):
            continue
        witness = _triangle_reference(grid, threshold * unit)
        assert _triangle_witness(grid, threshold * unit) == witness
        if grid is not lopsided:
            assert (witness is None) == (a == base).all()


@pytest.mark.parametrize("i, k", [(125, 3), (70, 69), (40, 0)])
def test_asymmetric_float_violation_left_of_the_block_start(i, k):
    # Within tol of symmetric, d(i, k) one ulp past the threshold and d(k, i)
    # on it: only row i fails, at a column k < i that a block starting at
    # row i would not read if it took the matrix for symmetric.
    tol = 2.0**-20
    a = _dyadic_metric(128, seed=i)
    detour = min(a[i, j] + a[j, k] for j in range(128) if j not in (i, k))
    a[i, k] = a[k, i] = detour + tol
    assert _triangle_witness(a, tol) is None
    a[i, k] = np.nextafter(detour + tol, 2.0)
    witness = _triangle_reference(a, tol)
    assert witness is not None and witness[0] == i and witness[2] == k
    assert _triangle_witness(a, tol) == witness
    with pytest.raises(TriangleViolation) as exc:
        validate_metric(a.tolist(), exact=False, tol=tol)
    assert exc.value.witness == witness


def test_ratio_extreme_settles_ties_in_integers():
    # Rows of one value spelled many ways, and near ties closer than float
    # resolution: the same extreme as a Fraction max or min.
    rng = random.Random(9)
    for trial in range(300):
        base = [(rng.randint(0 if trial % 50 == 0 else 1, 50), rng.randint(1, 50)) for _ in range(3)]
        num, den = [], []
        for _ in range(rng.randint(1, 30)):
            p, q = rng.choice(base)
            k = rng.choice([1, 2, 3, 10**6, 10**15])
            num.append(p * k)
            den.append(q * k)
            if p and rng.random() < 0.5:
                num.append(p * 10**15 + rng.choice([-1, 1]))
                den.append(q * 10**15)
        dtypes = [np.int64, object]
        if trial % 3 == 0:
            num, den, dtypes = [v * 10**20 for v in num], [v * 10**20 + 1 for v in den], [object]
        fractions = [F(x, y) for x, y in zip(num, den)]
        for dtype in dtypes:
            arrays = np.array(num, dtype=dtype), np.array(den, dtype=dtype)
            assert repr(_ratio_extreme(*arrays, largest=True)) == repr(max(fractions))
            assert repr(_ratio_extreme(*arrays, largest=False)) == repr(min(fractions))


def _ratio_extreme_loop(num, den, largest):
    """The per-row settle loop ``_ratio_extremes`` replaced: the float
    prefilter, then one cross-multiplication of Python ints per candidate."""
    q = np.asarray(num / den, dtype=float)
    best = q.max() if largest else q.min()
    near = np.flatnonzero(np.abs(q - best) <= 1e-9 * best)
    sign = 1 if largest else -1
    ps, qs = num[near].tolist(), den[near].tolist()
    bp, bq = ps[0], qs[0]
    for x, y in zip(ps, qs):
        if sign * (x * bq - bp * y) > 0:
            bp, bq = x, y
    return F(bp, bq)


def test_ratio_extremes_match_the_settle_loop_on_ties():
    # Rows where most pairs tie at one ratio spelled many ways (as slope 1
    # does on a Fréchet coordinate), with near ties below float resolution
    # and zero numerators; int64 rows, rows whose cross products pass
    # int64 (settled on Python ints), and object rows past 2**62.
    rng = random.Random(25)
    for trial in range(200):
        m, rows = rng.randint(1, 60), rng.randint(1, 6)
        den = [rng.choice([1, 2, 3, 6, 12]) * rng.choice([1, 7, 10**6]) for _ in range(m)]
        if trial % 4 == 1:
            den = [y * 10**9 + rng.choice([0, 1]) for y in den]
        num = []
        for _ in range(rows):
            # Ties at p/q, the other entries on one side of it, so that the
            # ties hold the max (below) or the min (above).
            p, q = rng.choice([(1, 1), (2, 3), (0, 1), (5, 7)])
            side = rng.choice([-1, 1])
            row = [y * p // q if rng.random() < 0.8 else y * p // q + side * rng.randint(0, y * p // q) for y in den]
            if p and rng.random() < 0.5:  # a near tie past the others, below float resolution on large rows
                k = rng.randrange(m)
                row[k] = max(0, row[k] - side * rng.choice([1, den[k] // 10**10 + 1]))
            num.append(row)
        dtypes = [np.int64, object] if trial % 4 != 2 else [object]
        if trial % 4 == 2:
            num, den = [[v * 2**62 for v in row] for row in num], [y * 2**62 + 1 for y in den]
        for dtype in dtypes:
            N, D = np.array(num, dtype=dtype), np.array(den, dtype=dtype)
            for largest in (True, False):
                expected = [_ratio_extreme_loop(row, D, largest) for row in N]
                assert list(map(repr, _ratio_extremes(N, D, largest))) == list(map(repr, expected))
                assert repr(_ratio_extreme(N[0], D, largest)) == repr(expected[0])


def test_nan_entries_fail_before_the_triangle_check():
    # A non-finite distance is its own error, raised before any axiom, with
    # the row-major first non-finite entry as witness.
    a = _dyadic_metric(128, seed=5)
    a[7, 90] = a[90, 7] = np.nan
    with pytest.raises(NonFiniteDistance) as exc:
        validate_metric(a.tolist(), exact=False)
    assert exc.value.witness == (7, 90)
    a[7, 7] = np.nan
    with pytest.raises(NonFiniteDistance) as exc:
        validate_metric(a.tolist(), exact=False)
    assert exc.value.witness == (7, 7)
    a = _dyadic_metric(128, seed=5)
    a[90, 7] = -np.inf  # asymmetric and negative too
    a[3, 3] = 1.0  # a nonzero diagonal entry ahead of it in row-major order
    with pytest.raises(NonFiniteDistance) as exc:
        validate_metric(a.tolist(), exact=False)
    assert exc.value.witness == (90, 7)


def test_float_validation_emits_no_warnings():
    big = [[0.0 if i == j else 1e308 for j in range(3)] for i in range(3)]
    inf = [[0.0, math.inf, 1.0], [math.inf, 0.0, 1.0], [1.0, 1.0, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_metric(big, exact=False).n == 3  # the triangle sums overflow
        with pytest.raises(NonFiniteDistance):
            validate_metric(inf, exact=False)  # inf - inf would be NaN in the symmetry check
        with pytest.raises(AsymmetricMatrix):
            validate_metric([[0.0, 1e308], [-1e308, 0.0]], exact=False)  # the difference overflows


def test_error_payloads():
    cases = [
        (MetricError("empty matrix"), "empty matrix", None),
        (AsymmetricMatrix(0, 1), "dist[0][1] != dist[1][0]", [0, 1]),
        (NegativeDistance(2, 3), "dist[2][3] < 0", [2, 3]),
        (ZeroOffDiagonal(1, 2), "dist[1][2] = 0 for distinct points (duplicates are a hard error)", [1, 2]),
        (NonzeroDiagonal(4), "dist[4][4] != 0", [4]),
        (NonFiniteDistance(1, 2), "dist[1][2] is not finite", [1, 2]),
        (TriangleViolation(0, 1, 2), "dist[0][2] > dist[0][1] + dist[1][2]", [0, 1, 2]),
    ]
    for exc, message, witness in cases:
        body = {"type": type(exc).__name__, "message": message}
        if witness is not None:
            body["witness"] = witness
        assert str(exc) == message
        assert exc.payload() == body and list(exc.payload()) == list(body)


def _reader_space(kind):
    """A new space of one closure: exact int64, exact ``object`` or float."""
    rows = random_space(9, seed=3).dist
    if kind == "object":
        big = F(10**20 + 39, 10**19 + 7)
        return validate_metric([[v * big for v in r] for r in rows])
    if kind == "float":
        return validate_metric([[float(v) for v in r] for r in rows], exact=False)
    return validate_metric(rows)


@pytest.mark.parametrize("kind", ["int64", "object", "float"])
def test_distance_readers_gather_from_the_grid_as_space_d_reads(kind):
    # Every reader, the transport solve included, gathers from space.grid
    # and builds no dist; each answer equals, repr for repr, its formula
    # through space.d on a second, equal space.
    space, ref = _reader_space(kind), _reader_space(kind)
    assert space == ref and (space.grid[0].dtype == object) == (kind == "object")
    d, cmp, zero = ref.d, ref.cmp, coerce(0, ref.exact)
    phi = random_functional(space, seed=5)
    result = optimal_coupling(phi, space)
    rep, f = result.representation, result.potential
    signed = PairMeasure({(1, 2): 3, (2, 4): -1, (5, 0): F(1, 2), (3, 7): F(-2, 3)}, space)
    C = PairSet.of([(x, 0) for x in range(1, ref.n)], ref)
    cycle = ((1, 2), (2, 1), (4, 3))

    def functional_of_ref(mu):
        coeffs = {}
        for (x, y), m in mu.mass.items():
            w = m / d(x, y)
            coeffs[x] = coeffs.get(x, 0) + w
            coeffs[y] = coeffs.get(y, 0) - w
        return Functional(coeffs, ref)

    def extremal_ref():
        nodes, weight = pair_graph(C, ref)
        dist, _, _ = _bellman_ford(weight, list(weight[0]))
        return _pinned_envelope([x for x, _ in nodes], [d(x, y) - dp for (x, y), dp in zip(nodes, dist)], ref)

    def daleth_ref(n):
        lo, hi = coerce(2, ref.exact) ** n, coerce(2, ref.exact) ** (n + 1)
        r = [d(i, 0) for i in ref.points]
        return WeightFunction(tuple(coerce(1, ref.exact) if v <= lo else zero if v >= hi else 2 - v / lo for v in r))

    g = build_extremal_potential(C, space)
    answers = [
        functional_of(rep, space).coeffs,
        functional_of(signed, space).coeffs,
        apply_representation(rep, f, space),
        apply_representation(signed, f, space),
        norming_functions_check(phi, f, rep, space),
        g,
        verify_extremal(g, C, space),
        cycle_slack(cycle, space),
        rho(space),
        de_leeuw_transform(f, space),
        molecule(2, 5, space).coeffs,
        Molecule(7, 1).to_functional(space).coeffs,
        [daleth(n, space) for n in (-3, -1, 0, 1)],
        pi_window(1, space),
    ]
    assert "dist" not in space.__dict__
    ys = [y for _, y in cycle]
    wanted = [
        functional_of_ref(rep).coeffs,
        functional_of_ref(signed).coeffs,
        left_sum(m * (f.values[x] - f.values[y]) / d(x, y) for (x, y), m in rep.mass.items()),
        left_sum(m * (f.values[x] - f.values[y]) / d(x, y) for (x, y), m in signed.mass.items()),
        functionals_equal(functional_of_ref(rep), phi, cmp) and not cmp.gt(f.lip, 1)
        and all(cmp.eq((f.values[x] - f.values[y]) / d(x, y), 1) for x, y in rep.support),
        extremal_ref(),
        not cmp.gt(g.lip, 1) and all(cmp.eq(g.values[x] - g.values[y], d(x, y)) for x, y in C.pairs),
        left_sum((d(x, y2) - d(x, y) for (x, y), y2 in zip(cycle, ys[1:] + ys[:1])), zero),
        LipschitzPotential.build([d(i, 0) for i in ref.points], ref),
        {(i, j): (f.values[i] - f.values[j]) / d(i, j) for i, j in ref.pairs()},
        {2: 1 / d(2, 5), 5: -(1 / d(2, 5))},
        {7: 1 / d(7, 1), 1: -(1 / d(7, 1))},
        [daleth_ref(n) for n in (-3, -1, 0, 1)],
        WeightFunction(tuple(a - b for a, b in zip(daleth_ref(1).values, daleth_ref(-1).values))),
    ]
    assert list(map(repr, answers)) == list(map(repr, wanted))
    # optimal_coupling's representation, on the space the solve ran on.
    assert repr(rep) == repr(PairMeasure({p: m * d(*p) for p, m in result.coupling.mass.items()}))


@pytest.mark.parametrize("kind", ["int64", "object"])
def test_each_distinct_distance_is_one_number_per_space(kind):
    # _pair_distances reads one table of the space's distinct distances, so
    # repeated reads share each Fraction instead of building it.
    space = _reader_space(kind)
    pairs = list(space.pairs())
    first, again = _pair_distances(pairs, space), _pair_distances(pairs, space)
    assert first == again == [space.d(x, y) for x, y in pairs]
    assert len(set(map(id, first + again))) == len(set(first))
