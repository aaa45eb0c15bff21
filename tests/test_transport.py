import random
from fractions import Fraction as F
from heapq import heappop, heappush
from typing import Dict, List, Set

import pytest

from lipfree import (
    Functional,
    LipschitzPotential,
    PairMeasure,
    SignedMeasure,
    NotARepresentation,
    apply_representation,
    delta,
    evaluate,
    free_norm,
    functional_of,
    is_optimal,
    molecule,
    molecule_decomposition,
    norming_functions_check,
    optimal_coupling,
    reflect,
    restrict,
    validate_metric,
)
from lipfree import transport
from lipfree.errors import InternalError
from lipfree.instances import line_space, random_functional, random_space, star_space, tree_space
from lipfree.metric import FiniteMetricSpace
from lipfree.numerics import Number, coerce
from lipfree.oracles import transport_cost_by_vertex_enumeration
from lipfree.transport import Pair, _balanced_sides, _solve_min_cost

LINE = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def test_free_norm_molecule_and_delta():
    sp = random_space(7, seed=1)
    assert free_norm(molecule(2, 5, sp), sp) == 1
    for x in range(1, sp.n):
        assert free_norm(delta(x, sp), sp) == sp.d(x, 0)


def test_free_norm_matches_vertex_oracle():
    for seed in range(40):
        sp = random_space(3 + seed % 4, seed)
        phi = random_functional(sp, seed + 500, max_support=4)
        assert free_norm(phi, sp) == transport_cost_by_vertex_enumeration(phi, sp)


def test_optimal_coupling_single_pair():
    sp = random_space(6, seed=2)
    a, b = 2, 4
    phi = delta(a, sp).plus(delta(b, sp).scaled(-1, sp), sp)
    res = optimal_coupling(phi, sp)
    assert res.coupling.mass == {(a, b): F(1)}
    assert res.value == sp.d(a, b)
    assert res.representation.mass == {(a, b): sp.d(a, b)}


def test_optimal_coupling_zero_functional():
    sp = random_space(4, seed=3)
    res = optimal_coupling(Functional.zero(sp), sp)
    assert res.value == 0 and len(res.coupling) == 0 and len(res.representation) == 0
    assert all(v == 0 for v in res.potential.values)


def test_optimal_coupling_two_sources_to_base():
    sp = validate_metric(LINE, ["0", "a", "b"])
    phi = Functional({1: F(1), 2: F(1)}, sp)
    res = optimal_coupling(phi, sp)
    assert res.value == 3
    assert res.coupling.mass == {(1, 0): F(1), (2, 0): F(1)}


def test_strong_duality_and_certificates():
    for seed in range(60):
        sp = random_space(3 + seed % 9, seed + 40)
        phi = random_functional(sp, seed + 900)
        res = optimal_coupling(phi, sp)
        assert res.potential.lip <= 1
        assert evaluate(phi, res.potential) == res.value
        assert res.representation.total_variation() == res.value
        assert norming_functions_check(phi, res.potential, res.representation, sp)


def test_norm_axioms_on_random_instances():
    for seed in range(25):
        sp = random_space(6, seed + 70)
        phi = random_functional(sp, seed + 100)
        psi = random_functional(sp, seed + 200)
        c = F(-7, 3)
        assert free_norm(phi.scaled(c, sp), sp) == abs(c) * free_norm(phi, sp)
        assert free_norm(phi.plus(psi, sp), sp) <= free_norm(phi, sp) + free_norm(psi, sp)


def test_apply_representation_examples():
    sp = random_space(6, seed=5)
    rng = random.Random(0)
    vals = [F(0)] + [F(rng.randint(-6, 6), 2) for _ in range(sp.n - 1)]
    f = LipschitzPotential.build(vals, sp)
    mu = PairMeasure.dirac(2, 4)
    assert apply_representation(mu, f, sp) == (f.values[2] - f.values[4]) / sp.d(2, 4)

    const = LipschitzPotential.build([0] * sp.n, sp)
    assert apply_representation(mu, const, sp) == 0

    phi = random_functional(sp, seed=77)
    res = optimal_coupling(phi, sp)
    assert apply_representation(res.representation, res.potential, sp) == res.value


def test_functional_of_examples_and_dual_path():
    sp = random_space(6, seed=6)
    x, y = 1, 3
    mu = PairMeasure.dirac(x, y, sp.d(x, y))
    want = delta(x, sp).plus(delta(y, sp).scaled(-1, sp), sp)
    assert functional_of(mu, sp) == want

    sym = PairMeasure.dirac(x, y).plus(PairMeasure.dirac(y, x))
    assert functional_of(sym, sp).is_zero()

    rng = random.Random(9)
    mu = PairMeasure(
        {(1, 2): F(3, 2), (2, 5): F(1, 3), (4, 0): F(2)}, sp
    )
    phi = functional_of(mu, sp)
    for _ in range(100):
        vals = [F(0)] + [F(rng.randint(-9, 9), rng.choice([1, 2])) for _ in range(sp.n - 1)]
        f = LipschitzPotential.build(vals, sp)
        assert evaluate(phi, f) == apply_representation(mu, f, sp)


def test_is_optimal_examples():
    sp = random_space(6, seed=7)
    assert is_optimal(PairMeasure.dirac(1, 4, F(7, 2)), sp)
    x, y = 2, 3
    sym = PairMeasure.dirac(x, y).plus(PairMeasure.dirac(y, x))
    assert not is_optimal(sym, sp)
    with pytest.raises(SignedMeasure):
        is_optimal(PairMeasure.dirac(1, 2, -1), sp)

    # arbitrary positive masses on an optimal support stay optimal
    phi = random_functional(sp, seed=123)
    support = optimal_coupling(phi, sp).coupling.support
    rng = random.Random(3)
    mu = PairMeasure({p: F(rng.randint(1, 9), 2) for p in support}, sp)
    assert is_optimal(mu, sp)


def test_restrict_preserves_optimality():
    rng = random.Random(17)
    for seed in range(20):
        sp = random_space(7, seed + 300)
        phi = random_functional(sp, seed + 400)
        mu = optimal_coupling(phi, sp).representation
        assert restrict(mu, lambda p: True) == mu
        assert len(restrict(mu, lambda p: False)) == 0
        keep = {p for p in mu.support if rng.random() < 0.5}
        sub = restrict(mu, keep.__contains__)
        assert is_optimal(sub, sp)


def test_reflect_examples():
    sp = random_space(5, seed=8)
    assert reflect(PairMeasure.dirac(1, 3)).mass == {(3, 1): F(1)}
    mu = PairMeasure({(1, 2): F(2), (3, 0): F(1, 2), (2, 4): F(5)}, sp)
    assert reflect(reflect(mu)) == mu
    assert functional_of(mu.plus(reflect(mu)), sp).is_zero()


def test_phi_star_nonexpansive():
    for seed in range(20):
        sp = random_space(6, seed + 600)
        rng = random.Random(seed)
        mass = {}
        for _ in range(rng.randint(1, 6)):
            x, y = rng.sample(range(sp.n), 2)
            mass[(x, y)] = F(rng.randint(-5, 5) or 1, 2)
        mu = PairMeasure(mass, sp)
        assert free_norm(functional_of(mu, sp), sp) <= mu.total_variation()


def test_molecule_decomposition_examples():
    sp = random_space(6, seed=9)
    m = molecule(2, 5, sp)
    terms = molecule_decomposition(m, sp)
    assert len(terms) == 1
    c, mol = terms[0]
    assert c == 1 and (mol.x, mol.y) == (2, 5)

    a, b = 1, 4
    phi = delta(a, sp).plus(delta(b, sp).scaled(-1, sp), sp)
    terms = molecule_decomposition(phi, sp)
    assert terms == [(sp.d(a, b), mol)] or (
        len(terms) == 1 and terms[0][0] == sp.d(a, b) and (terms[0][1].x, terms[0][1].y) == (a, b)
    )

    for seed in range(20):
        phi = random_functional(sp, seed + 800)
        terms = molecule_decomposition(phi, sp)
        assert all(c > 0 for c, _ in terms)
        assert sum((c for c, _ in terms), start=F(0)) == free_norm(phi, sp)
        recon = Functional.zero(sp)
        for c, mol in terms:
            recon = recon.plus(mol.to_functional(sp).scaled(c, sp), sp)
        assert recon == phi


def test_norming_functions_check_examples():
    sp = random_space(6, seed=10)
    x, y = 1, 3
    m = molecule(x, y, sp)
    f = LipschitzPotential.build([sp.d(z, y) - sp.d(0, y) for z in sp.points], sp)
    mu = PairMeasure.dirac(x, y)
    assert norming_functions_check(m, f, mu, sp)

    zero_f = LipschitzPotential.build([0] * sp.n, sp)
    assert not norming_functions_check(m, zero_f, mu, sp)

    with pytest.raises(NotARepresentation):
        norming_functions_check(delta(2, sp), f, mu, sp)


def test_norming_functions_check_rejects_signed_measures_and_fat_potentials():
    sp = line_space([0, 1, 2])
    m = molecule(1, 0, sp)
    # f has unit quotient on the pair (1, 0), but rises by 2 from 1 to 2.
    f = LipschitzPotential.build([0, 1, 3], sp)
    assert f.lip == 2
    signed = PairMeasure({(1, 0): F(2), (0, 1): F(-1)}, sp)
    with pytest.raises(SignedMeasure):
        norming_functions_check(m, f, signed, sp)
    assert not norming_functions_check(m, f, PairMeasure.dirac(1, 0), sp)


def test_support_of_coupling_is_cyclically_monotone():
    from lipfree import PairSet, check_cyclically_monotone

    for seed in range(25):
        sp = random_space(8, seed + 1000)
        phi = random_functional(sp, seed + 1100)
        support = optimal_coupling(phi, sp).coupling.support
        if support:
            C = PairSet.of(support, sp)
            assert check_cyclically_monotone(C, sp).monotone


def test_float_mode_duality_gap():
    for seed in range(25):
        sp = random_space(9, seed + 1200).with_mode(exact=False)
        phi = random_functional(sp.with_mode(exact=True), seed + 1300)
        fphi = Functional({i: float(c) for i, c in phi.coeffs.items()}, sp)
        res = optimal_coupling(fphi, sp)
        assert abs(res.value - evaluate(fphi, res.potential)) <= 1e-9
        assert res.potential.lip <= 1 + 1e-9


# --- the solver's tables against the dict-based solver they replaced -------------
#
# ``_reference_solve_min_cost`` is ``transport._solve_min_cost`` as it stood
# with dict and set tables, before they became point-indexed lists.  Both must
# give the same flow, in the same insertion order, and the same potentials,
# repr for repr, in both modes; and ``optimal_coupling`` built on either must
# print the same result.  The reference has no float screen, so the cases
# where the screen's shadows tie, are subnormal or would overflow check it.

_CLAMPS = [0]


def _reference_solve_min_cost(
    sources: Dict[int, Number], sinks: Dict[int, Number], space: FiniteMetricSpace
):
    """The solver as it was with dict and set tables; counts its clamps in ``_CLAMPS``."""
    zero = coerce(0, space.exact)
    src = sorted(sources)
    snk = sorted(sinks)
    left = {**sources, **sinks}
    flow: Dict[Pair, Number] = {}
    pot: Dict[int, Number] = {v: zero for v in src + snk}
    carriers: Dict[int, Set[int]] = {t: set() for t in snk}
    rows = space.dist
    clamp = not space.exact  # float round-off guard; exact mode never needs it
    # Float totals can disagree by a few ulps: a residue below this is spent.
    eps_active = 0 if space.exact else 1e-12 * (1.0 + float(max(left.values())))

    while True:
        s0 = next((s for s in src if left[s] > eps_active), None)
        if s0 is None:
            break

        # Dijkstra over reduced costs from s0, up to the cap.
        dist: Dict[int, Number] = {s0: zero}
        prev: Dict[int, int] = {}
        done = set()
        heap = [(zero, s0)]
        best = None  # least (dist, t) over settled sinks with demand left
        while heap:
            du, u = heappop(heap)
            if best is not None and du > best[0]:
                break
            if u in done:
                continue
            done.add(u)
            pu = pot[u]
            if u in sources:
                row = rows[u]
                arcs = [(t, row[t]) for t in snk if t not in done]
            else:
                if left[u] > eps_active and (best is None or (du, u) < best):
                    best = (du, u)
                arcs = [(s, -rows[s][u]) for s in carriers[u] if s not in done]
            for v, cost in arcs:
                rc = cost + pu - pot[v]
                if clamp and rc < 0:
                    _CLAMPS[0] += 1
                    rc = 0.0
                nd = du + rc
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    prev[v] = u
                    heappush(heap, (nd, v))

        if best is None:
            raise InternalError("transport network disconnected; cannot happen on a complete bipartite graph")
        cap, t0 = best

        # Walk the path back and find the bottleneck.
        path: List[Pair] = []
        v = t0
        while v != s0:
            u = prev[v]
            path.append((u, v))
            v = u
        path.reverse()
        amount = min(left[s0], left[t0])
        for u, v in path:
            if u not in sources:  # backward arc (sink u -> source v) carries flow (v, u)
                amount = min(amount, flow[(v, u)])
        for u, v in path:
            if u in sources:
                flow[(u, v)] = flow.get((u, v), zero) + amount
                carriers[v].add(u)
            else:
                flow[(v, u)] = flow[(v, u)] - amount
                if flow[(v, u)] == 0:
                    del flow[(v, u)]
                    carriers[u].discard(v)
        left[s0] -= amount
        left[t0] -= amount

        for v in pot:
            pot[v] = pot[v] + (dist[v] if v in done else cap)

    return flow, pot


def _solve_cases():
    """(name, functional, space): int64, ``object`` and float lattices, tie-heavy
    line and star spaces in both modes, functionals whose imbalance the base
    point takes as a sink or a source, float spaces whose reduced costs need
    the clamp, one full-support float n=128 case, an exact space whose
    distances differ far below float's resolution, and exact spaces scaled
    by 2**k for each k of ``_SCALE_EXPONENTS``."""
    rng = random.Random(2028)

    def signed(space, sign):
        return Functional({i: sign * rng.randint(1, 3) for i in range(1, space.n) if rng.random() < 0.6}, space)

    def full(space, rng=rng):
        return Functional({i: rng.choice([-3, -2, -1, 1, 2, 3]) for i in range(1, space.n)}, space)

    huge = validate_metric([[F(v * (2**62 + 1), 7) for v in row] for row in random_space(12, 5).grid[0].tolist()])
    assert huge.grid[0].dtype == object
    spaces = [(f"int{n}s{seed}", random_space(n, seed)) for n in (5, 9, 16, 33) for seed in range(2)]
    spaces += [(f"float{n}s{seed}", random_space(n, seed, exact=False)) for n in (9, 24, 40) for seed in range(2)]
    spaces += [("object12", huge), ("line", line_space([0, 3, 1, 4, 2, 7, 5, 6])), ("star", star_space(9))]
    spaces += [(f"{name}/float", sp.with_mode(exact=False)) for name, sp in spaces[-2:]]
    for name, sp in spaces:
        for k in range(3):
            yield f"{name}/random{k}", random_functional(sp.with_mode(exact=True), rng.randrange(10**6)).coeffs, sp
        yield f"{name}/to base", signed(sp, 1).coeffs, sp
        yield f"{name}/from base", signed(sp, -1).coeffs, sp
        yield f"{name}/full", full(sp).coeffs, sp
    for seed in _CLAMP_SEEDS:
        sp = validate_metric([[v * 0.1 for v in row] for row in random_space(16, seed, exact=False).dist], exact=False)
        yield f"clamp{seed}", full(sp, random.Random(seed)).coeffs, sp
    sp = random_space(128, 11, exact=False)
    yield "float128/full", full(sp).coeffs, sp
    base = random_space(24, 13)
    # 2**56 times a tree metric, which ties many path sums, plus a small
    # metric that breaks those ties by less than float's resolution.
    tree, _ = tree_space(30, 24, 3)
    sp = validate_metric([[2**56 * a + b for a, b in zip(*rows)] for rows in zip(tree.dist, base.dist)])
    yield "near_tie24/full", full(sp).coeffs, sp
    yield "near_tie24/random", random_functional(sp, rng.randrange(10**6)).coeffs, sp
    for k in _SCALE_EXPONENTS:  # as tools/identity_scan.py's _scaled_spaces builds them
        for lattice, c in (("int", 1), ("big", F(10**20 + 39, 10**19 + 7))):
            sp = validate_metric([[d * c * F(2) ** k for d in row] for row in base.dist])
            for phi_name, phi in (("full", full(sp)), ("random", random_functional(sp, rng.randrange(10**6)))):
                yield f"{lattice}24*2**{k}/{phi_name}", phi.coeffs, sp


#: Powers of two that put an exact space's float shadows (see
#: ``_solve_min_cost``) below float's range, subnormal, normal, near its top
#: and past it, where the solver turns them off.
_SCALE_EXPONENTS = (-1100, -1074, -1022, 0, 1000, 1030)

#: Seeds of 16-point float spaces (``random_space`` times 0.1) whose
#: full-support functional makes the reference solver clamp most often among
#: seeds 0-11: 8 to 23 negative reduced costs each.
_CLAMP_SEEDS = (0, 3, 7, 11)


@pytest.mark.parametrize("name,coeffs,space", [pytest.param(*case, id=case[0]) for case in _solve_cases()])
def test_solver_tables_match_the_dict_based_solver(monkeypatch, name, coeffs, space):
    phi = Functional(coeffs, space)
    sources, sinks = _balanced_sides(phi, space)
    before = _CLAMPS[0]
    flow, pot = _solve_min_cost(sources, sinks, space)
    ref_flow, ref_pot = _reference_solve_min_cost(sources, sinks, space)
    if name.startswith("clamp"):
        assert _CLAMPS[0] > before
    assert repr(list(flow.items())) == repr(list(ref_flow.items()))
    assert repr([pot[v] for v in ref_pot]) == repr(list(ref_pot.values()))
    result = optimal_coupling(phi, space)
    monkeypatch.setattr(transport, "_solve_min_cost", _reference_solve_min_cost)
    assert repr(result) == repr(optimal_coupling(phi, space))
