import collections
import contextlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import lipfree
from lipfree import monotonicity
from lipfree import io as lfio
from lipfree import (
    EmptySet,
    InvalidPair,
    LipschitzPotential,
    NotMonotone,
    PairMeasure,
    PairSet,
    TooLarge,
    brute_force_monotone,
    build_extremal_potential,
    check_cyclically_monotone,
    cycle_slack,
    pair_graph,
    rho,
    validate_metric,
    verify_extremal,
)
from lipfree.instances import (
    line_space,
    monotone_pair_set,
    random_pair_set,
    random_space,
    star_space,
)
from lipfree.metric import _pinned_envelope
from lipfree.monotonicity import FLOAT_CYCLE_EPS, CycleCertificate, _bellman_ford, _lattice_pair_graph


@pytest.mark.parametrize(
    "pair, message",
    [
        ((1, 1), "pair (1,1) lies on the diagonal"),
        ((0, 3), "pair (0,3) out of range"),
        ((-1, 2), "pair (-1,2) out of range"),
    ],
)
def test_pair_sets_and_measures_share_one_pair_check(pair, message):
    space = line_space([0, 1, 2])
    for make in (lambda: PairSet.of([(0, 1), pair], space), lambda: PairMeasure({pair: 1}, space)):
        with pytest.raises(lipfree.Error) as caught:
            make()
        assert type(caught.value) is InvalidPair and str(caught.value) == message
        assert isinstance(caught.value, ValueError)
    if pair[0] == pair[1]:  # without a space only the diagonal is checked
        with pytest.raises(InvalidPair):
            PairMeasure({pair: 1})
    else:
        assert PairMeasure({pair: 1}).mass == {pair: 1}


def test_pair_set_keeps_the_callers_pairs_and_rejects_malformed_ones():
    space = line_space([0, 1, 2])
    pairs = [(0, 1), (2, 1), (0, 1)]
    C = PairSet.of(pairs, space)
    assert C.pairs == tuple(pairs) and all(a is b for a, b in zip(C.pairs, pairs))
    assert PairSet.of([[2, 0]], space).pairs == ((2, 0),)
    # InvalidPair cases are in test_pair_sets_and_measures_share_one_pair_check.
    for bad, error in [((0, 1, 2), ValueError), (3, TypeError)]:
        with pytest.raises(error) as caught:
            PairSet.of([(0, 1), bad], space)
        assert type(caught.value) is error


def test_pair_graph_two_cycle_weight():
    sp = random_space(5, seed=0)
    a, b = 1, 3
    C = PairSet.of([(a, b), (b, a)], sp)
    nodes, w = pair_graph(C, sp)
    i, j = nodes.index((a, b)), nodes.index((b, a))
    assert w[i][j] + w[j][i] == -2 * sp.d(a, b)


def test_pair_graph_singleton_has_no_cycle():
    sp = random_space(4, seed=1)
    C = PairSet.of([(2, 0)], sp)
    nodes, _ = pair_graph(C, sp)
    assert len(nodes) == 1
    assert check_cyclically_monotone(C, sp).monotone


def test_pair_graph_cycle_weights_match_definition_sums():
    rng = random.Random(7)
    for seed in range(10):
        sp = random_space(6, seed + 10)
        C = random_pair_set(sp, seed + 20, size=5)
        nodes, w = pair_graph(C, sp)
        k = len(nodes)
        if k < 2:
            continue
        idx = rng.sample(range(k), min(3, k))
        # cycle weight along idx == rotated-target cost minus kept cost
        total_w = sum(
            w[idx[t]][idx[(t + 1) % len(idx)]] for t in range(len(idx))
        )
        kept = sum(sp.d(*nodes[i]) for i in idx)
        rotated = sum(
            sp.d(nodes[idx[t]][0], nodes[idx[(t + 1) % len(idx)]][1])
            for t in range(len(idx))
        )
        assert total_w == rotated - kept
        assert cycle_slack([nodes[i] for i in idx], sp) == total_w


def test_check_two_cycle_slack():
    sp = validate_metric([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    cert = check_cyclically_monotone(PairSet.of([(1, 2), (2, 1)], sp), sp)
    assert not cert.monotone
    assert cert.slack == -2
    assert set(cert.cycle) == {(1, 2), (2, 1)}


def test_check_trivial_monotone_sets():
    sp = random_space(5, seed=2)
    assert check_cyclically_monotone(PairSet.of([(3, 0)], sp), sp).monotone
    assert check_cyclically_monotone(PairSet(()), sp).monotone
    assert brute_force_monotone(PairSet(()), sp)


def test_chain_on_line_is_monotone():
    sp = line_space([0, 1, 2, 4])
    C = PairSet.of([(3, 2), (2, 1)], sp)
    assert check_cyclically_monotone(C, sp).monotone
    assert brute_force_monotone(C, sp)


def test_brute_force_limits_and_two_cycle():
    sp = random_space(4, seed=3)
    assert not brute_force_monotone(PairSet.of([(1, 2), (2, 1)], sp), sp)
    big = PairSet.of([(x, y) for x in range(4) for y in range(4) if x != y], sp)
    with pytest.raises(TooLarge):
        brute_force_monotone(big, sp)


def test_checker_agrees_with_bruteforce_exhaustively_small():
    sp = random_space(4, seed=4)
    universe = [(x, y) for x in range(4) for y in range(4) if x != y]
    rng = random.Random(5)
    sets = [p for k in (1, 2) for p in itertools.combinations(universe, k)]
    sets += [rng.sample(universe, rng.randint(3, 5)) for _ in range(200)]
    # In float mode the thirds in this space give zero-weight cycles up to
    # round-off next to negative ones; scaled up, the round-off outgrows an
    # absolute threshold.  Each float space is checked against the exact
    # verdict on the same rational matrix.
    cases = [(sp, sp), (sp.with_mode(exact=False), sp)]
    for scale in (10**4, 10**6):
        rows = [[v * scale for v in row] for row in sp.dist]
        cases.append((validate_metric(rows, exact=False), validate_metric(rows, exact=True)))
    for s, truth in cases:
        eps = 0 if s.exact else FLOAT_CYCLE_EPS * max(1.0, max(map(max, s.dist)))
        for pairs in sets:
            C = PairSet.of(pairs, s)
            cert = check_cyclically_monotone(C, s)
            assert cert.monotone == brute_force_monotone(C, s)
            assert cert.monotone == check_cyclically_monotone(C, truth).monotone
            assert cert.monotone or cycle_slack(cert.cycle, s) == cert.slack < -eps


def test_certificate_slack_is_sound():
    found = 0
    for seed in range(60):
        sp = random_space(5, seed + 30)
        C = random_pair_set(sp, seed + 60, size=4)
        cert = check_cyclically_monotone(C, sp)
        if cert.monotone:
            continue
        found += 1
        assert cert.slack < 0
        assert cycle_slack(cert.cycle, sp) == cert.slack
        k = len(cert.cycle)
        kept = sum(sp.d(x, y) for x, y in cert.cycle)
        rotated = sum(
            sp.d(cert.cycle[t][0], cert.cycle[(t + 1) % k][1]) for t in range(k)
        )
        assert kept - rotated == -cert.slack  # violates the inequality by |slack|
    assert found >= 10


def test_build_extremal_on_base_pair():
    sp = random_space(5, seed=6)
    C = PairSet.of([(2, 0)], sp)
    f = build_extremal_potential(C, sp)
    assert f.values[2] - f.values[0] == sp.d(2, 0)
    assert verify_extremal(f, C, sp)
    assert verify_extremal(rho(sp), PairSet.of([(x, 0) for x in range(1, sp.n)], sp), sp)


def test_build_extremal_on_coupling_supports():
    for seed in range(30):
        sp = random_space(3 + seed % 7, seed + 90)
        C = monotone_pair_set(sp, seed + 120)
        f = build_extremal_potential(C, sp)
        assert f.lip <= 1
        assert verify_extremal(f, C, sp)


def test_line_chain_alignment_forced():
    sp = line_space([0, 1, 2, 4])
    x0, x1, x2 = 3, 2, 1  # positions 4, 2, 1
    C = PairSet.of([(x0, x1), (x1, x2)], sp)
    f = build_extremal_potential(C, sp)
    assert f.values[x0] - f.values[x2] == sp.d(x0, x2)


def test_build_extremal_raises():
    sp = random_space(4, seed=7)
    with pytest.raises(EmptySet):
        build_extremal_potential(PairSet(()), sp)
    with pytest.raises(NotMonotone) as exc:
        build_extremal_potential(PairSet.of([(1, 2), (2, 1)], sp), sp)
    cert = exc.value.certificate
    assert cycle_slack(cert.cycle, sp) == cert.slack < 0
    # The CLI error body is the base one; the certificate stays on the exception.
    assert exc.value.payload() == {"type": "NotMonotone", "message": str(exc.value)}


def test_verify_extremal_rejects_zero_function():
    sp = random_space(4, seed=8)
    zero = LipschitzPotential.build([0] * sp.n, sp)
    assert not verify_extremal(zero, PairSet.of([(1, 2)], sp), sp)


def test_verify_extremal_rejects_a_potential_outside_the_unit_ball():
    # f attains the distance on the pair (1, 0), but rises by 2 from 1 to 2.
    sp = line_space([0, 1, 2])
    f = LipschitzPotential.build([0, 1, 3], sp)
    assert f.lip == 2
    assert not verify_extremal(f, PairSet.of([(1, 0)], sp), sp)


def test_equivalence_monotone_iff_extremal_exists():
    for seed in range(60):
        exact = random_space(5, seed + 150)
        C = random_pair_set(exact, seed + 200, size=3)
        for sp in (exact, exact.with_mode(exact=False)):
            cert = check_cyclically_monotone(C, sp)
            try:
                f = build_extremal_potential(C, sp)
                built = verify_extremal(f, C, sp)
            except NotMonotone as exc:
                assert exc.certificate == cert
                built = False
            assert cert.monotone == built


def test_duplicate_pairs_are_deduplicated():
    sp = random_space(4, seed=9)
    C = PairSet.of([(1, 2), (1, 2), (1, 2)], sp)
    nodes, _ = pair_graph(C, sp)
    assert nodes == ((1, 2),)
    assert check_cyclically_monotone(C, sp).monotone


def _assert_pair_graph_is_the_definition(C, sp):
    nodes, w = pair_graph(C, sp)
    assert nodes == C.deduplicated()
    expected = [[sp.d(xi, yj) - sp.d(xi, yi) for _, yj in nodes] for xi, yi in nodes]
    assert w == expected
    assert [[(type(v), repr(v)) for v in row] for row in w] == [
        [(type(v), repr(v)) for v in row] for row in expected
    ]


def test_pair_graph_gathers_the_definition_in_every_grid_kind(tmp_path):
    exact = [random_space(9, seed) for seed in (3, 4)]
    huge = validate_metric(
        [[Fraction(v * (2**62 + 1), 7) for v in row] for row in random_space(8, 5).grid[0].tolist()]
    )
    assert huge.grid[0].dtype == object and huge.grid[0].max() > 2**62
    csv = tmp_path / "float.csv"
    csv.write_text(lfio.space_csv(random_space(66, 6, exact=False)))
    loaded = lfio.load_space(str(csv))
    assert not loaded.exact and loaded.n == 66
    spaces = exact + [huge, loaded] + [sp.with_mode(exact=False) for sp in exact + [huge]]
    for k, sp in enumerate(spaces):
        for size in (1, 6, 25):
            _assert_pair_graph_is_the_definition(random_pair_set(sp, 40 + k, size), sp)
        _assert_pair_graph_is_the_definition(PairSet.of([(2, 1), (1, 2), (2, 1), (2, 1)], sp), sp)
        assert pair_graph(PairSet.of([], sp), sp) == ((), [])


@pytest.mark.parametrize("exact", [True, False])
def test_check_monotone_reads_the_grid_and_builds_no_dist(exact):
    sp = random_space(12, 4, exact=exact)
    cert = check_cyclically_monotone(random_pair_set(sp, 5, 30), sp)
    assert not cert.monotone and type(cert.slack) is (Fraction if exact else float)
    assert "dist" not in sp.__dict__
    assert cert.slack == cycle_slack(cert.cycle, sp) < 0
    total, k = (Fraction(0) if exact else 0.0), len(cert.cycle)
    for t, (x, y) in enumerate(cert.cycle):  # left to right, as cycle_slack adds
        total += sp.d(x, cert.cycle[(t + 1) % k][1]) - sp.d(x, y)
    assert type(total) is type(cert.slack) and total == cert.slack


def _fraction_path(C, sp):
    """The answers of the Fraction Bellman-Ford on the pair graph's rows:
    from zeros the certificate, walking ``pred`` into the cycle as the check
    does; from row 0 the extremal potential of a monotone set."""
    nodes, weight = pair_graph(C, sp)
    n = len(nodes)
    _, pred, flagged = _bellman_ford(weight, [Fraction(0)] * n)
    if flagged >= 0:
        cycle = _named_cycle(pred, flagged, nodes)
        return CycleCertificate(False, cycle, cycle_slack(cycle, sp)), None
    if not n:
        return CycleCertificate(True), None
    dist, _, _ = _bellman_ford(weight, list(weight[0]))
    values = [sp.d(x, y) - dp for (x, y), dp in zip(nodes, dist)]
    return CycleCertificate(True), _pinned_envelope([x for x, _ in nodes], values, sp)


def _named_cycle(pred, flagged, nodes):
    """The cycle that a Bellman-Ford state names, walked as the check walks
    it: n steps back from ``flagged``, then round the cycle."""
    v = flagged
    for _ in nodes:
        v = pred[v]
    cycle, u = [v], pred[v]
    while u != v:
        cycle.append(u)
        u = pred[u]
    return tuple(nodes[i] for i in reversed(cycle))


def _geodesic_sets(sp, seed):
    """A geodesic (monotone) set towards a point z and its reversal: one
    inner pair (x, y) turned round beside (x, z), a violating 2-cycle."""
    rng = random.Random(seed)
    z = rng.randrange(sp.n)
    geo = [(x, y) for x, y in sp.pairs() if sp.d(x, z) == sp.d(x, y) + sp.d(y, z)]
    geo = rng.sample(geo, min(len(geo), 24))
    x, y = next((x, y) for x, y in geo if y != z and (x, z) in geo)
    return geo, [p for p in geo if p != (x, y)] + [(y, x)]


# Distances near 2**62 on an int64 grid: walk sums of three pairs leave int64.
_D = 2**62 - 2**59
_WIDE = [(1, 2), (2, 1), (0, 1)]


@pytest.mark.parametrize("kind", ["int64", "object", "wide"])
def test_exact_answers_match_the_fraction_bellman_ford(kind):
    # The lattice fixpoint answers monotone sets; the Fraction path is the
    # reference for verdicts, extremal values (repr for repr) and the
    # NotMonotone certificates.
    if kind == "wide":
        sp = line_space([_D + 2**58, _D, 0, 2**61, 2**60])
        assert sp.grid[0].dtype == np.int64 and 4 * _D >= 2**63
    else:
        base = random_space(12, 31)
        sp = base if kind == "int64" else validate_metric(
            [[v * Fraction(2**62 + 1, 7) for v in row] for row in base.dist]
        )
        assert (sp.grid[0].dtype == object) == (kind == "object")
    sets = [[], [(3, 1)], [(2, 4), (3, 1), (2, 4), (2, 4)], _WIDE]
    for seed in range(6):
        sets.append(list(random_pair_set(sp, seed, size=2 + 3 * seed).pairs))
        sets.extend(_geodesic_sets(sp, seed))
    violating = 0
    for pairs in sets:
        C = PairSet.of(pairs, sp)
        ref_cert, ref_f = _fraction_path(C, sp)
        cert = check_cyclically_monotone(C, sp)
        assert repr(cert) == repr(ref_cert)
        if not pairs:
            continue
        try:
            f = build_extremal_potential(C, sp)
        except NotMonotone as exc:
            violating += 1
            assert ref_f is None and repr(exc.certificate) == repr(ref_cert)
        else:
            assert repr(f) == repr(ref_f) and verify_extremal(f, C, sp)
    assert 6 <= violating <= len(sets) - 6


def test_only_float_and_violating_sets_run_the_fraction_bellman_ford(monkeypatch):
    calls = []

    def counted(weight, dist):
        calls.append(len(weight))
        return _bellman_ford(weight, dist)

    monkeypatch.setattr(monotonicity, "_bellman_ford", counted)
    sp = random_space(10, 2)
    geo, rev = _geodesic_sets(sp, 3)
    for space, pairs, runs in ((sp, geo, False), (sp.with_mode(exact=False), geo, True), (sp, rev, True)):
        C = PairSet.of(pairs, space)
        calls.clear()
        check_cyclically_monotone(C, space)
        assert bool(calls) == runs
        calls.clear()
        with pytest.raises(NotMonotone) if pairs is rev else contextlib.nullcontext():
            build_extremal_potential(C, space)
        assert bool(calls) == runs


# --- Bellman-Ford's rounds on a violating set end in a uniform shift ------------
#
# A Gauss-Seidel round commutes with adding one constant to every distance:
# each comparison di + w < dj is unchanged, so the same arcs relax with the
# same pred.  Once a round's dist is the previous round's plus a constant
# delta, every later round adds delta too and writes the same pred and
# flagged, so the state after the last round is known after that round.


def _lattice_rounds(weight, dist):
    """``_bellman_ford`` on lattice integers, yielding (dist, pred, flagged)
    after each round; the integers are the ``Fraction`` weights times one
    positive scale, so every comparison decides as the ``Fraction`` one."""
    n = len(weight)
    pred = [-1] * n
    for _ in range(n):
        flagged = -1
        for i in range(n):
            di, wi = dist[i], weight[i]
            for j in range(n):
                nd = di + wi[j]
                if nd < dist[j]:
                    dist[j], pred[j], flagged = nd, i, j
        yield list(dist), list(pred), flagged
        if flagged < 0:
            return


def _reversed_geodesic(sp, rng, size):
    """At most ``size`` pairs of a geodesic set towards a point z, holding an
    inner pair (x, y) turned round and (x, z): a violating 2-cycle."""
    while True:
        z = rng.randrange(sp.n)
        geo = [(x, y) for x, y in sp.pairs() if sp.d(x, z) == sp.d(x, y) + sp.d(y, z)]
        inner = [(x, y) for x, y in geo if y != z]
        if inner:
            break
    x, y = rng.choice(inner)
    rest = [p for p in geo if p not in ((x, y), (x, z))]
    return rng.sample(rest, min(len(rest), size - 2)) + [(y, x), (x, z)]


def _violating_candidates():
    """(space, pairs): random and reversed-geodesic sets of 3-12 pairs on
    random spaces, tie-heavy line and star spaces, and a space whose lattice
    holds Python ints (``object``)."""
    base = random_space(12, 31)
    spaces = [random_space(n, seed) for n, seed in ((9, 1), (12, 2), (16, 3))]
    spaces += [line_space([0, 3, 1, 4, 2, 7, 5, 6, 9]), star_space(8)]
    spaces.append(validate_metric([[v * Fraction(2**62 + 1, 7) for v in row] for row in base.dist]))
    assert spaces[-1].grid[0].dtype == object
    rng = random.Random(2029)
    for k, sp in enumerate(spaces):
        for seed in range(36):
            yield sp, random_pair_set(sp, 100 * k + seed, size=3 + seed % 10).pairs
            yield sp, _reversed_geodesic(sp, rng, 3 + seed % 10)


def test_bellman_ford_rounds_on_violating_sets_end_in_a_uniform_shift(monkeypatch):
    returned = []

    def recorded(weight, dist):
        returned.append(_bellman_ford(weight, dist))
        return returned[-1]

    monkeypatch.setattr(monotonicity, "_bellman_ford", recorded)
    shift_after = collections.Counter()  # round (from 0) whose dist starts the shift
    for sp, pairs in _violating_candidates():
        C = PairSet.of(pairs, sp)
        returned.clear()
        cert = check_cyclically_monotone(C, sp)
        if cert.monotone:
            continue
        (ref_dist, ref_pred, ref_flagged), = returned
        nodes, weight, scale = _lattice_pair_graph(C, sp)
        n = len(nodes)
        before = [0] * n
        for r, (dist, pred, flagged) in enumerate(_lattice_rounds(weight.tolist(), [0] * n)):
            delta = dist[0] - before[0]
            if all(d - b == delta for d, b in zip(dist, before)):
                break
            before = dist
        else:  # no shift before the last round: an exit would not fire
            shift_after["none"] += 1
            continue
        assert delta < 0 and flagged >= 0
        final = [Fraction(d + (n - 1 - r) * delta, scale) for d in dist]
        assert (final, pred, flagged) == (ref_dist, ref_pred, ref_flagged)
        assert _named_cycle(pred, flagged, nodes) == cert.cycle
        shift_after[r] += 1
    assert sum(shift_after.values()) - shift_after["none"] >= 300
