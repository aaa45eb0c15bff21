"""The benchmark workloads.

A workload draws its metric spaces from the seed when it is made
(``inputs.py``, no lipfree) and validates them in ``setup_steps``, the timed
set-up.  ``round(lf, tmp, r)`` then builds round ``r``: one query per entry
of the workload's size ladder, with fresh functionals, pair sets or files
drawn from ``(seed, r)``.  Fresh inputs each round make the latency
percentiles pool several independent inputs of every size, so they depend
much less on one unlucky draw.  A query always runs together with its
certificate check and raises ``CheckFailed`` if the certificate does not
hold; ``Query.oracle`` compares its answer with the oracles of ``gate.py``
after the timed phase.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence

import numpy as np

import gate
import inputs as gen


class CheckFailed(Exception):
    """A query's own certificate check failed."""


@dataclass
class Query:
    key: str
    run: Callable[[], object]
    oracle: Callable[[object], None]
    #: Files the query reads and writes.
    reads: Sequence[str] = ()
    writes: Sequence[str] = ()

    def bytes_moved(self):
        def size(paths):
            return sum(os.path.getsize(p) for p in paths)

        return size(self.reads), size(self.writes)


#: Query sizes per round.  A full round holds 25 or 35 queries, so that
#: 0.5 m and 0.9 m fall midway between ranks, and the ladders put several
#: queries of similar cost around those ranks: the median and the 90th
#: percentile then sit inside a plateau whatever the number of rounds,
#: instead of on the step between two sizes.  A round takes 2-5 s on a
#: 2-core machine, so a 30 s run holds several rounds; ``run.py`` goes on
#: until 100 queries are done, which the 90th percentile needs (ten samples
#: beyond it).
SIZES = {
    "full": {
        "transport_exact": {
            "spaces": {
                48: [4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 47],
                64: [4, 6, 8, 10, 12, 14, 16, 20, 20, 20, 20, 20, 24, 28, 32, 36, 40, 44, 48, 48, 48, 48, 56, 63],
            },
            "windowed": (1, 3, 6),
        },
        "monotone_exact": {
            "n": 64,
            "geo": [32, 32, 40, 40, 48, 56, 64, 64, 72, 80, 88, 96],
            "rand": [32, 32, 36, 36, 40, 48, 56],
            "rev": [32, 36, 40, 44, 48, 48],
        },
        "cli_roundtrip": {
            "json_n": 32, "csv_n": 128, "embed_n": [32, 32], "search_n": 48, "exotic_N": 256,
            "supports": [8, 12, 16], "csv_supports": [24, 40],
            "pair_sets": [("geo", 24), ("rev", 24), ("rand", 6)],
        },
    },
    "tiny": {
        "transport_exact": {"spaces": {8: [2, 7], 10: [3, 9]}, "windowed": (1,)},
        "monotone_exact": {"n": 10, "geo": [4, 6], "rand": [5], "rev": [6]},
        "cli_roundtrip": {
            "json_n": 8, "csv_n": 66, "embed_n": [6], "search_n": 8, "exotic_N": 16,
            "supports": [3], "csv_supports": [5],
            "pair_sets": [("geo", 4), ("rev", 4), ("rand", 3)],
        },
    },
}


def _pair_set(kind: str, K: np.ndarray, size: int, rng):
    """(verdict known by construction or None, pairs) for one set kind."""
    if kind == "geo":
        return True, gen.monotone_set(K, size, rng)
    if kind == "rev":
        return False, gen.reversed_geodesic_set(K, size, rng)
    return None, gen.random_set(K.shape[0], size, rng)


class Workload:
    #: Modules imported during set-up, in addition to ``lipfree``.
    modules: Sequence[str] = ()

    def __init__(self, name: str, seed: int, sizes: Dict):
        self.name, self.seed, self.sizes = name, seed, sizes

    def rng(self, *key: int) -> np.random.Generator:
        """Generator for the seed's spaces (no key) or for round ``key``."""
        return np.random.default_rng([self.seed % 2**64, *key])

    def setup_steps(self, lf) -> List[Callable[[], None]]:
        """The set-up after the import, one step per space the queries
        will use, each validating it (timed as set-up)."""
        return []

    def round(self, lf, tmp: str, r: int) -> List[Query]:
        raise NotImplementedError


def _transport_query(lf, key, K, space, spec: gen.FunctionalSpec) -> Query:
    phi0 = lf.Functional(spec.coeffs, space)

    def run():
        phi = phi0
        if spec.window is not None:
            phi = lf.weighted_adjoint(phi0, lf.pi_window(spec.window, space), space)
        res = lf.optimal_coupling(phi, space)
        cmp, f = space.cmp, res.potential
        if not (
            cmp.eq(lf.evaluate(phi, f), res.value)
            and cmp.le(f.lip, 1)
            and lf.norming_functions_check(phi, f, res.representation, space)
            and lf.metric.functionals_equal(lf.functional_of(res.representation, space), phi, cmp)
        ):
            raise CheckFailed("transport certificate does not hold")
        if spec.window is None:
            return res.value
        return res.value, tuple(sorted(phi.coeffs.items()))

    def oracle(answer):
        coeffs = spec.coeffs
        if spec.window is not None:
            coeffs = gen.window_image(K, spec.coeffs, spec.window)
            value, image = answer
            if dict(image) != coeffs:
                raise gate.Mismatch("adjoint image differs from the window formula")
            answer = value
        gate.check_norm(answer, K, coeffs)

    return Query(key, run, oracle)


class TransportWorkload(Workload):
    """Support ladders of functionals on exact spaces."""

    def __init__(self, name: str, seed: int, sizes: Dict):
        super().__init__(name, seed, sizes)
        rng = self.rng()
        self.mats = [gen.integer_metric(n, rng) for n in sizes["spaces"]]
        self.rows = [gen.exact_rows(K) for K in self.mats]
        self.spaces = []

    def setup_steps(self, lf):
        self.spaces = [None] * len(self.rows)

        def validate(i):
            self.spaces[i] = lf.validate_metric(self.rows[i])

        return [lambda i=i: validate(i) for i in range(len(self.rows))]

    def round(self, lf, tmp, r):
        rng = self.rng(r)
        out = []
        for K, space, ladder in zip(self.mats, self.spaces, self.sizes["spaces"].values()):
            specs = gen.functional_ladder(K, ladder, rng, (1, 2, 3), self.sizes["windowed"])
            for i, spec in enumerate(specs):
                key = f"n{space.n}/{i:02d}/s{len(spec.coeffs)}" + (f"/pi{spec.window}" if spec.window else "")
                out.append(_transport_query(lf, key, K, space, spec))
        return out


class MonotoneWorkload(Workload):
    """Geodesic (monotone) pair sets against random and reversed-geodesic
    (violating) ones on one exact space."""

    def __init__(self, name: str, seed: int, sizes: Dict):
        super().__init__(name, seed, sizes)
        self.K = gen.integer_metric(sizes["n"], self.rng())
        self.rows = gen.exact_rows(self.K)
        self.space = None

    def setup_steps(self, lf):
        def validate():
            self.space = lf.validate_metric(self.rows)

        return [validate]

    def round(self, lf, tmp, r):
        rng, space = self.rng(r), self.space
        out = []
        for kind in ("geo", "rand", "rev"):
            for i, size in enumerate(self.sizes[kind]):
                known, pairs = _pair_set(kind, self.K, size, rng)
                C = lf.PairSet.of(pairs, space)

                def run(C=C, members=set(pairs)):
                    """Answer: the verdict with its certificate, the extremal
                    potential's values or the violating cycle's slack."""
                    cert = lf.check_cyclically_monotone(C, space)
                    if cert.monotone:
                        f = lf.build_extremal_potential(C, space)
                        ok, witness = lf.verify_extremal(f, C, space), f.values
                    else:
                        witness = lf.cycle_slack(cert.cycle, space)
                        ok = witness == cert.slack and witness < 0 and set(cert.cycle) <= members
                    if not ok:
                        raise CheckFailed("monotonicity certificate does not hold")
                    return cert.monotone, witness

                def oracle(answer, pairs=pairs, known=known):
                    gate.check_verdict(answer[0], self.K, pairs, known, lf, space)

                out.append(Query(f"{kind}/{i:02d}/c{size}", run, oracle))
        return out


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _no_oracle(answer) -> None:
    """Outputs without an independent oracle; the query's own check and
    the digest across runs of one seed cover them."""


def _space_json(K: np.ndarray, prefix: str) -> str:
    labels = [f"{prefix}{i}" for i in range(K.shape[0])]
    dist = [[gen.pq(Fraction(int(v), gen.DENOM)) for v in row] for row in K.tolist()]
    return json.dumps({"labels": labels, "dist": dist})


def _space_csv(K: np.ndarray, prefix: str) -> str:
    lines = [",".join(f"{prefix}{i}" for i in range(K.shape[0]))]
    lines += [",".join(repr(v / gen.DENOM) for v in row) for row in K.tolist()]
    return "\n".join(lines) + "\n"


def _functional_json(coeffs: Dict[int, Fraction], prefix: str) -> str:
    return json.dumps({"coeffs": {f"{prefix}{i}": gen.pq(c) for i, c in sorted(coeffs.items())}})


class CliWorkload(Workload):
    """In-process ``lipfree.cli.main`` calls on files: the transport commands
    and check-monotone on an exact JSON space, norm, coupling and decompose
    on a float CSV space, both embed modes, and gen-exotic with a reload."""

    modules = ("lipfree.cli",)

    def __init__(self, name: str, seed: int, sizes: Dict):
        super().__init__(name, seed, sizes)
        rng = self.rng()
        self.K = gen.integer_metric(sizes["json_n"], rng)
        self.K_csv = gen.integer_metric(sizes["csv_n"], rng)
        self._space = None

    # Set-up is the import alone (no steps): every CLI call validates its
    # own input.

    def round(self, lf, tmp, r):
        cli, lio, sizes, rng = lf.cli, lf.io, self.sizes, self.rng(r)
        out: List[Query] = []

        def path(name):
            return os.path.join(tmp, f"r{r}_{name}")

        def command(key, argv, reads, check, oracle):
            out_file = path(key.replace("/", "_") + ".out")
            argv = argv + ["--out", out_file]

            def run():
                rc = cli.main(argv)
                with open(out_file, "rb") as fh:
                    return check(rc, fh.read())

            out.append(Query(key, run, oracle, reads, [out_file]))
            return out_file

        def doc_of(rc, data):
            if rc != 0:
                raise CheckFailed(f"exit code {rc}")
            return json.loads(data)

        def value_exact(rc, data):
            return Fraction(doc_of(rc, data)["value_exact"])

        def value_float(rc, data):
            doc = doc_of(rc, data)
            if "molecules" in doc and not doc["molecules"]:
                raise CheckFailed("empty molecule decomposition")
            return float(doc["value"])

        space_file = os.path.join(tmp, "space.json")
        csv_file = os.path.join(tmp, "space.csv")
        if not os.path.exists(space_file):
            _write(space_file, _space_json(self.K, "p"))
            _write(csv_file, _space_csv(self.K_csv, "q"))

        n = sizes["json_n"]
        for i, s in enumerate(sizes["supports"]):
            coeffs = gen.random_coeffs(n, s, rng, (1, 2, 3))
            f_file = _write(path(f"phi{i}.json"), _functional_json(coeffs, "p"))

            def norm_oracle(answer, coeffs=coeffs):
                gate.check_norm(answer, self.K, coeffs)

            for cmd, check in (("norm", value_exact), ("coupling", value_exact),
                               ("potential", value_exact), ("decompose", value_float)):
                command(f"{cmd}/phi{i}", [cmd, "--input", space_file, "--functional", f_file],
                        [space_file, f_file], check, norm_oracle)

        for i, (kind, size) in enumerate(sizes["pair_sets"]):
            known, pairs = _pair_set(kind, self.K, size, rng)
            doc = {"pairs": [[f"p{x}", f"p{y}"] for x, y in pairs]}
            c_file = _write(path(f"pairs{i}.json"), json.dumps(doc))

            def verdict(rc, data, members={(f"p{x}", f"p{y}") for x, y in pairs}):
                doc = json.loads(data)
                if rc != (0 if doc["monotone"] else 1):
                    raise CheckFailed(f"exit code {rc} for monotone={doc['monotone']}")
                if not doc["monotone"] and not {tuple(p) for p in doc["cycle"]} <= members:
                    raise CheckFailed("cycle leaves the pair set")
                return doc["monotone"]

            def verdict_oracle(answer, pairs=pairs, known=known):
                gate.check_verdict(answer, self.K, pairs, known, lf, self._oracle_space(lf))

            command(f"check-monotone/{kind}{i}/c{size}",
                    ["check-monotone", "--input", space_file, "--pairs", c_file],
                    [space_file, c_file], verdict, verdict_oracle)

        for i, s in enumerate(sizes["csv_supports"]):
            coeffs = gen.random_coeffs(self.K_csv.shape[0], s, rng, (1, 2, 4))
            f_file = _write(path(f"phi_csv{i}.json"), _functional_json(coeffs, "q"))

            def csv_oracle(answer, coeffs=coeffs):
                gate.check_norm(answer, self.K_csv, coeffs)

            for cmd in ("norm", "coupling", "decompose"):
                command(f"{cmd}/csv{i}", [cmd, "--input", csv_file, "--functional", f_file],
                        [csv_file, f_file], value_float, csv_oracle)

        embeds = [(f"embed/points{i}", n, []) for i, n in enumerate(sizes["embed_n"])]
        embeds.append(("embed/search", sizes["search_n"], ["--dim", "3", "--iters", "100"]))
        for key, n_embed, extra in embeds:
            e_file = _write(path(key.replace("/", "_") + ".json"),
                            _space_json(gen.integer_metric(n_embed, rng), "e"))

            def embedded(rc, data, dims=3 if extra else n_embed, isometric=not extra):
                doc = doc_of(rc, data)
                if len(doc["coordinates"]) != dims:
                    raise CheckFailed(f"{len(doc['coordinates'])} coordinates, expected {dims}")
                objective = doc["objective"]
                if not 0 < objective <= 1 or (isometric and (objective, doc["distortion"]) != (1, 1)):
                    raise CheckFailed(f"embedding objective {objective}")
                return hashlib.sha256(data).hexdigest()

            command(key, ["embed", "--input", e_file] + extra, [e_file], embedded, _no_oracle)

        N = sizes["exotic_N"]

        def exotic(rc, data):
            doc_of(rc, data)
            reloaded = lio.load_space(x_file)
            off = np.array(reloaded.dist)[~np.eye(N, dtype=bool)]
            if reloaded.n != N or off.min() < 0.5 or off.max() > 1:
                raise CheckFailed("exotic distances leave {0} and [1/2, 1]")
            with open(x_file + ".gamma.json", "rb") as fh:
                gamma = fh.read()
            return hashlib.sha256(data + gamma).hexdigest()

        x_file = command(f"gen-exotic/N{N}", ["gen-exotic", "--N", str(N)], [], exotic, _no_oracle)
        out[-1].reads = [x_file]
        out[-1].writes = [x_file, x_file + ".gamma.json"]
        return out

    def _oracle_space(self, lf):
        """The JSON space as lipfree validates it, for brute_force_monotone."""
        if self._space is None:
            self._space = lf.validate_metric(gen.exact_rows(self.K))
        return self._space


def make(name: str, seed: int, scale: str = "full") -> Workload:
    sizes = SIZES[scale][name]
    if name == "transport_exact":
        return TransportWorkload(name, seed, sizes)
    if name == "monotone_exact":
        return MonotoneWorkload(name, seed, sizes)
    if name == "cli_roundtrip":
        return CliWorkload(name, seed, sizes)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("transport_exact", "monotone_exact", "cli_roundtrip")
