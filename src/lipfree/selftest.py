"""Machine-checkable acceptance suite.

Each criterion is a check ``f(limit) -> (passed, detail)`` that
``_criterion`` registers where it is defined: the registered function is
independently runnable, returns a timed :class:`CriterionResult` and is
appended to ``ALL_CRITERIA``.  The CLI ``selftest`` command and the pytest
acceptance module both drive these.  Counts can be capped with ``limit``
for quick runs; the defaults are the full certification scale.
"""

from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from . import io as lfio
from .embedding import alpha_objective, frechet_embedding
from .exotic import (
    build_i_family,
    check_family_properties,
    check_gamma_properties,
    exotic_metric,
)
from .instances import (
    monotone_pair_set,
    random_functional,
    random_pair_measure,
    random_pair_set,
    random_potential,
    random_space,
)
from .metric import Functional, evaluate
from .monotonicity import (
    NotMonotone,
    PairSet,
    brute_force_monotone,
    build_extremal_potential,
    check_cyclically_monotone,
    cycle_slack,
    verify_extremal,
)
from .numerics import left_sum
from .transport import (
    PairMeasure,
    free_norm,
    functional_of,
    is_optimal,
    molecule_decomposition,
    optimal_coupling,
    reflect,
)
from .weighting import daleth, weight_function, weighted_adjoint


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self, include_elapsed: bool = False) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f"; {self.elapsed:.1f}s" if include_elapsed else ""
        return f"{self.cid} {self.name}: {status} ({self.detail}{suffix})"


def _cap(full: int, limit: Optional[int]) -> int:
    return full if limit is None else max(1, min(full, limit))


ALL_CRITERIA: List[Callable[..., CriterionResult]] = []


def _criterion(cid: str, name: str, budget: Optional[float] = None):
    """Register a check ``f(limit) -> (passed, detail)`` as criterion ``cid``.

    The registered function keeps the check's name, carries ``cid`` and
    is called as ``f(limit=None) -> CriterionResult``: it times the
    check and fails it when it runs over ``budget`` seconds.  Registration
    appends it to ``ALL_CRITERIA``, so the suite runs in definition order.
    """

    def register(check: Callable[[Optional[int]], Tuple[bool, str]]):
        @functools.wraps(check)
        def criterion(limit: Optional[int] = None) -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = check(limit)
            elapsed = time.perf_counter() - t0
            if budget is not None and elapsed > budget:
                passed = False
                detail += f"; exceeded {budget:g}s budget ({elapsed:.1f}s)"
            return CriterionResult(cid, name, passed, detail, elapsed)

        criterion.cid = cid
        ALL_CRITERIA.append(criterion)
        return criterion

    return register


@_criterion("C01", "strong duality", budget=60)
def c01_strong_duality(limit: Optional[int]) -> Tuple[bool, str]:
    """Primal optimal cost equals the dual potential's pairing, both modes."""
    count = _cap(200, limit)
    failures = 0
    for i in range(count):
        n = 2 + (i % 11)  # sizes 2..12
        space = random_space(n, seed=1000 + i)
        phi = random_functional(space, seed=2000 + i)
        res = optimal_coupling(phi, space)
        if res.value != evaluate(phi, res.potential) or res.potential.lip > 1:
            failures += 1
        fspace = space.with_mode(exact=False)
        fphi = Functional({k: float(v) for k, v in phi.coeffs.items()}, fspace)
        fres = optimal_coupling(fphi, fspace)
        if abs(fres.value - evaluate(fphi, fres.potential)) > 1e-9:
            failures += 1
    ok = failures == 0
    return ok, f"{count} instances, {failures} duality gaps"


@_criterion("C02", "norm vs LP vertex oracle")
def c02_norm_oracle(limit: Optional[int]) -> Tuple[bool, str]:
    """free_norm agrees with the vertex-enumeration oracle, exactly."""
    from .oracles import transport_cost_by_vertex_enumeration
    count = _cap(120, limit)
    failures = 0
    for i in range(count):
        n = 3 + (i % 4)  # sizes 3..6
        space = random_space(n, seed=3000 + i)
        phi = random_functional(space, seed=4000 + i, max_support=4)
        if free_norm(phi, space) != transport_cost_by_vertex_enumeration(phi, space):
            failures += 1
    return failures == 0, f"{count} cases, {failures} oracle disagreements"


@_criterion("C03", "optimality iff cyclical monotonicity")
def c03_optimality_iff_monotone(limit: Optional[int]) -> Tuple[bool, str]:
    """is_optimal verdict coincides with cyclical monotonicity of support."""
    count = _cap(200, limit)
    failures = 0
    for i in range(count):
        space = random_space(8, seed=5000 + i)
        mu = random_pair_measure(
            space, seed=6000 + i, size=2 + (i % 5), monotone=(i % 2 == 0)
        )
        lhs = is_optimal(mu, space)
        rhs = check_cyclically_monotone(
            PairSet.of(mu.support, space), space
        ).monotone
        if lhs != rhs:
            failures += 1
    return failures == 0, f"{count} measures, {failures} verdict mismatches"


@_criterion("C04", "checker vs brute-force oracle")
def c04_monotonicity_oracle(limit: Optional[int]) -> Tuple[bool, str]:
    """Negative-cycle checker agrees with the definition-verbatim oracle.

    Per space: all pair sets of size 1 and 2 over the full 30-pair
    universe, then seeded random sets of sizes 3..7 and a few curated
    monotone sets, capped well below the allowed 10^4 checks per space.
    """
    import itertools
    import random as _random

    spaces = _cap(50, limit)
    checks = 0
    failures = 0
    for s in range(spaces):
        space = random_space(6, seed=7000 + s)
        universe = [(x, y) for x in range(6) for y in range(6) if x != y]
        sets = [
            [p] for p in universe
        ] + [list(c) for c in itertools.combinations(universe, 2)]
        rng = _random.Random(8000 + s)
        for size in range(3, 8):
            for _ in range(12 if limit is None else 2):
                sets.append(rng.sample(universe, size))
        for _ in range(8 if limit is None else 1):
            mset = monotone_pair_set(space, rng.randrange(10**9))
            sets.append(list(mset.pairs[:7]))
        for raw in sets:
            C = PairSet.of(raw, space)
            fast = check_cyclically_monotone(C, space).monotone
            slow = brute_force_monotone(C, space)
            checks += 1
            if fast != slow:
                failures += 1
    return failures == 0, f"{spaces} spaces, {checks} pair sets, {failures} mismatches"


@_criterion("C05", "extremal potential construction")
def c05_extremal_potential(limit: Optional[int]) -> Tuple[bool, str]:
    """Extremal construction succeeds on monotone sets and raises a sound
    certificate on non-monotone ones."""
    target_monotone = _cap(500, limit)
    target_bad = _cap(150, limit)
    built = 0
    failures = 0
    i = 0
    while built < target_monotone and i < 20 * target_monotone:
        space = random_space(3 + (i % 8), seed=9000 + i)
        if i % 3 == 0:
            C = monotone_pair_set(space, seed=9500 + i)
        elif i % 3 == 1:
            C = PairSet.of([(x, 0) for x in range(1, space.n)], space)
        else:
            C = random_pair_set(space, seed=9700 + i, size=2 + (i % 4))
            if not check_cyclically_monotone(C, space).monotone:
                i += 1
                continue
        i += 1
        built += 1
        try:
            f = build_extremal_potential(C, space)
        except NotMonotone:
            failures += 1
            continue
        if not verify_extremal(f, C, space):
            failures += 1

    bad = 0
    j = 0
    while bad < target_bad and j < 50 * target_bad:
        space = random_space(4 + (j % 5), seed=11000 + j)
        C = random_pair_set(space, seed=11500 + j, size=3 + (j % 5))
        j += 1
        if check_cyclically_monotone(C, space).monotone:
            continue
        bad += 1
        try:
            build_extremal_potential(C, space)
            failures += 1
        except NotMonotone as exc:
            cert = exc.certificate
            recomputed = cycle_slack(cert.cycle, space)
            if cert.slack >= 0 or abs(float(recomputed - cert.slack)) > 1e-12:
                failures += 1
    return (
        failures == 0,
        f"{built} monotone + {bad} violating sets, {failures} failures",
    )


def _geodesic_chain(space, a: int, b: int) -> List[int]:
    """A point chain a -> ... -> b whose step distances sum to d(a, b)."""
    for mid in space.points:
        if mid in (a, b):
            continue
        if space.d(a, mid) + space.d(mid, b) == space.d(a, b):
            return _geodesic_chain(space, a, mid)[:-1] + _geodesic_chain(space, mid, b)
    return [a, b]


def _check_support_chains(space, support):
    """All chained paths of support pairs up to six points; returns
    (chains checked, misaligned chains)."""
    by_head = {}
    for x, y in support:
        by_head.setdefault(x, []).append((x, y))
    checked = 0
    bad = 0
    stack = [[x, y] for (x, y) in support]
    while stack:
        points = stack.pop()
        total = left_sum(space.d(points[t], points[t + 1]) for t in range(len(points) - 1))
        checked += 1
        if total != space.d(points[0], points[-1]):
            bad += 1
        if len(points) <= 5:
            for nxt in by_head.get(points[-1], ()):
                stack.append(points + [nxt[1]])
    return checked, bad


@_criterion("C06", "chained support alignment")
def c06_chained_alignment(limit: Optional[int]) -> Tuple[bool, str]:
    """Support pairs of optimal representations chain along geodesics.

    Solver couplings are bipartite, so their supports barely chain; the
    real stress comes from geodesic-chain measures, certified optimal by
    the norm check, whose supports chain by construction.
    """
    count = _cap(100, limit)
    failures = 0
    chains_checked = 0
    long_chains = 0
    for i in range(count):
        space = random_space(4 + (i % 8), seed=12000 + i)
        phi = random_functional(space, seed=12500 + i)
        rep = optimal_coupling(phi, space).representation
        checked, bad = _check_support_chains(space, rep.support)
        chains_checked += checked
        failures += bad

        a = 1 + (i % (space.n - 1))
        b = 1 + ((i + 2) % (space.n - 1))
        chain = _geodesic_chain(space, a, b)
        mass = {
            (chain[t], chain[t + 1]): space.d(chain[t], chain[t + 1])
            for t in range(len(chain) - 1)
        }
        mu = PairMeasure(mass, space)
        if not is_optimal(mu, space):
            failures += 1
            continue
        checked, bad = _check_support_chains(space, mu.support)
        chains_checked += checked
        failures += bad
        if len(chain) > 2:
            long_chains += 1
    return failures == 0, (
        f"{chains_checked} chains ({long_chains} multi-step) over "
        f"{count} instances, {failures} misaligned"
    )


@_criterion("C07", "reflection identity")
def c07_reflection_identity(limit: Optional[int]) -> Tuple[bool, str]:
    """The reflected measure cancels the original one exactly."""
    count = _cap(100, limit)
    failures = 0
    for i in range(count):
        space = random_space(3 + (i % 8), seed=13000 + i)
        mu = random_pair_measure(space, seed=13500 + i, size=2 + (i % 6), signed=(i % 4 == 0))
        if not functional_of(mu.plus(reflect(mu)), space).is_zero():
            failures += 1
        if reflect(reflect(mu)) != mu:
            failures += 1
    return failures == 0, f"{count} measures, {failures} failures"


@_criterion("C08", "molecule decomposition")
def c08_molecule_decomposition(limit: Optional[int]) -> Tuple[bool, str]:
    """Decompositions are positive, norm-summing and reconstruct exactly."""
    count = _cap(200, limit)
    failures = 0
    for i in range(count):
        space = random_space(3 + (i % 9), seed=14000 + i)
        phi = random_functional(space, seed=14500 + i)
        terms = molecule_decomposition(phi, space)
        total = left_sum((c for c, _ in terms), Fraction(0))
        if total != free_norm(phi, space) or any(c <= 0 for c, _ in terms):
            failures += 1
            continue
        recon = Functional.zero(space)
        for c, mol in terms:
            recon = recon.plus(mol.to_functional(space).scaled(c, space), space)
        if recon != phi:
            failures += 1
    return failures == 0, f"{count} functionals, {failures} failures"


@_criterion("C09", "weighting operators")
def c09_weighting(limit: Optional[int]) -> Tuple[bool, str]:
    """Cutoff multiplication bound, adjoint identity, and stabilization."""
    count = _cap(1000, limit)
    failures = 0
    for i in range(count):
        space = random_space(3 + (i % 5), seed=15000 + i)
        f = random_potential(space, seed=15500 + i)
        n = -4 + (i % 13)  # n in [-4, 8]
        h = daleth(n, space)
        wf = weight_function(f, h, space)
        if wf.lip > 3 * f.lip:
            failures += 1
        phi = random_functional(space, seed=16000 + i)
        lhs = evaluate(weighted_adjoint(phi, h, space), f)
        rhs = evaluate(phi, wf)
        if lhs != rhs:
            failures += 1
        max_rho = max(space.d(x, 0) for x in space.points)
        n_stab = max(0, math.ceil(math.log2(float(max_rho))))  # 3+ points: max_rho > 0
        for n2 in (n_stab, n_stab + 1):
            if weighted_adjoint(phi, daleth(n2, space), space) != phi:
                failures += 1
    return failures == 0, f"{count} triples, {failures} failures"


@_criterion("C10", "isometric coordinate embedding")
def c10_frechet(limit: Optional[int]) -> Tuple[bool, str]:
    """The distance-coordinate embedding is exactly isometric."""
    count = _cap(100, limit)
    failures = 0
    for i in range(count):
        space = random_space(2 + (i % 15), seed=17000 + i)
        rep = frechet_embedding(space)
        if rep.distortion != 1 or rep.objective != 1:
            failures += 1
        if alpha_objective(rep.functions, space) != 1:
            failures += 1
    return failures == 0, f"{count} spaces, {failures} failures"


@_criterion("C11", "exotic family and metric", budget=120)
def c11_exotic(limit: Optional[int]) -> Tuple[bool, str]:
    """Family properties, Gamma disjointness, and the N=512 metric."""
    horizon = 1024 if limit is None else max(64, min(1024, 64 * limit))
    idx = 16 if limit is None else min(16, max(4, limit))
    family = build_i_family(horizon)
    props = check_family_properties(family, idx, horizon)
    gamma = check_gamma_properties(family, idx, horizon)
    okay = all(props.values()) and all(gamma.values())

    N = 512 if limit is None else 64
    em = exotic_metric(N, build_i_family(max(2, N // 2)))
    space = em.as_space(exact=False)
    base_ok = all(em.d(1, x) == Fraction(1, 2) for x in range(2, N + 1))
    discrete_ok = all(
        Fraction(1, 2) <= em.d(1, x) <= 1 for x in range(2, N + 1)
    )
    okay = okay and base_ok and discrete_ok and space.n == N
    bad = [k for k, v in {**props, **gamma}.items() if not v]
    detail = (
        f"horizon {horizon}, indices<={idx}, N={N} validated"
        + (f"; failed: {bad}" if bad else "")
    )
    return okay, detail


def _run_cli(args: List[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "lipfree", *args],
        capture_output=True,
        cwd=cwd,
        timeout=300,
    )


@_criterion("C12", "CLI byte determinism")
def c12_cli_golden(limit: Optional[int]) -> Tuple[bool, str]:
    """Each CLI command is byte-deterministic for a fixed seed."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        space = random_space(5, seed=42)
        phi = random_functional(space, seed=43)
        space_path = os.path.join(tmp, "space.json")
        lfio.write_text(space_path, lfio.space_json(space))
        func_path = os.path.join(tmp, "phi.json")
        coeffs = {space.labels[i]: float(c) for i, c in sorted(phi.coeffs.items())}
        lfio.write_text(func_path, lfio.dumps({"coeffs": coeffs}))
        pairs_path = os.path.join(tmp, "pairs.json")
        a, b = space.labels[1], space.labels[2]
        lfio.write_text(pairs_path, lfio.dumps({"pairs": [[a, b], [b, a]]}))
        argsets = {
            "norm": ["norm", "--input", space_path, "--functional", func_path],
            "coupling": ["coupling", "--input", space_path, "--functional", func_path],
            "potential": ["potential", "--input", space_path, "--functional", func_path],
            "decompose": ["decompose", "--input", space_path, "--functional", func_path],
            "check-monotone": ["check-monotone", "--input", space_path, "--pairs", pairs_path],
            "embed": ["embed", "--input", space_path, "--dim", "2", "--iters", "40", "--seed", "7"],
            "gen-exotic": ["gen-exotic", "--N", "32"],
        }
        for cmd, argv in argsets.items():
            first = _run_cli(argv, tmp)
            second = _run_cli(argv, tmp)
            if first.stdout != second.stdout or first.returncode != second.returncode:
                failures.append(cmd)
    ok = not failures
    return ok, f"{len(argsets)} commands" + (
        f"; nondeterministic: {failures}" if failures else ""
    )


def run_acceptance(limit: Optional[int] = None, *, stream=None) -> List[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        result = fn(limit)
        results.append(result)
        if stream is not None:
            print(result.line(), file=stream, flush=True)
    return results
