"""Command-line front end.

Commands: norm, coupling, potential, decompose (transport), check-monotone
(certification), embed (coordinate families), gen-exotic (metric
generator), selftest (acceptance suite).  Exit codes: 0 success, 1
certified negative verdict, 2 input error, 3 internal fault.  Outputs are
byte-deterministic for fixed seeds: floats at 12 significant digits, fixed
key order.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from typing import List, Optional

from . import io as lfio
from .embedding import best_embedding_search, frechet_embedding
from .errors import Error, InternalError
from .exotic import exotic_metric, gamma_pairs
from .monotonicity import check_cyclically_monotone
from .numerics import DEFAULT_TOLERANCE
from .transport import molecule_decomposition, optimal_coupling

log = logging.getLogger("lipfree")

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipfree",
        description="Norms, optimal representations and monotonicity certificates "
        "on finite metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, functional=False, pairs=False):
        p.add_argument("--input", required=True, help="metric space JSON or CSV")
        if functional:
            p.add_argument("--functional", required=True, help="functional JSON")
        if pairs:
            p.add_argument("--pairs", required=True, help="pair set JSON")
        p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                       help="absolute tolerance in float mode")
        p.add_argument("--exact", action="store_true",
                       help="force exact rational arithmetic")
        p.add_argument("--out", help="write the result here instead of stdout")

    for name in ("norm", "coupling", "potential", "decompose"):
        common(sub.add_parser(name), functional=True)
    common(sub.add_parser("check-monotone"), pairs=True)

    p_embed = sub.add_parser("embed")
    common(p_embed)
    p_embed.add_argument("--dim", type=int, default=None,
                         help="coordinate count for the local search "
                         "(omit for the isometric per-point family)")
    p_embed.add_argument("--iters", type=int, default=300)
    p_embed.add_argument("--seed", type=int, default=0)

    p_gen = sub.add_parser("gen-exotic")
    p_gen.add_argument("--N", type=int, required=True, help="number of points")
    p_gen.add_argument("--out", help="output path (.csv for CSV, else JSON); "
                       "a Gamma table is written next to it")

    p_self = sub.add_parser("selftest")
    p_self.add_argument("--iters", type=int, default=None,
                        help="cap instance counts per criterion (default: full scale)")

    return parser


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_space(args):
    if args.tolerance <= 0:
        raise ValueError("tolerance must be positive in float mode")
    exact = True if args.exact else None
    return lfio.load_space(args.input, exact=exact, tol=args.tolerance)


#: The keys of ``io.transport_doc`` each transport command prints, in order;
#: None prints them all.
_TRANSPORT_KEYS = {
    "norm": ("value", "value_exact"),
    "coupling": None,
    "potential": ("value", "potential", "value_exact"),
}


def _cmd_transport(args) -> int:
    space = _load_space(args)
    phi = lfio.load_functional(args.functional, space)
    doc = lfio.transport_doc(optimal_coupling(phi, space), space)
    keys = _TRANSPORT_KEYS[args.command]
    if keys is not None:
        doc = {k: doc[k] for k in keys if k in doc}
    _emit(lfio.dumps(doc), args.out)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    space = _load_space(args)
    phi = lfio.load_functional(args.functional, space)
    terms = molecule_decomposition(phi, space)
    doc = {
        "value": lfio.jsonable_number(sum((c for c, _ in terms), start=0)),
        "molecules": [
            [space.labels[m.x], space.labels[m.y], lfio.jsonable_number(c)]
            for c, m in terms
        ],
    }
    _emit(lfio.dumps(doc), args.out)
    return EXIT_OK


def _cmd_check_monotone(args) -> int:
    space = _load_space(args)
    pair_set = lfio.load_pair_set(args.pairs, space)
    cert = check_cyclically_monotone(pair_set, space)
    _emit(lfio.dumps(lfio.certificate_doc(cert, space)), args.out)
    return EXIT_OK if cert.monotone else EXIT_NEGATIVE


def _cmd_embed(args) -> int:
    space = _load_space(args)
    if args.dim is None:
        report = frechet_embedding(space)
    else:
        report = best_embedding_search(args.dim, space, iterations=args.iters, seed=args.seed)
    doc = {
        "labels": list(space.labels),
        "objective": lfio.jsonable_number(report.objective),
        "lip_h": lfio.jsonable_number(report.lip_h),
        "lip_hinv": None if report.lip_hinv is None else lfio.jsonable_number(report.lip_hinv),
        "distortion": None if report.distortion is None else lfio.jsonable_number(report.distortion),
        "coordinates": [
            [lfio.jsonable_number(v) for v in f.values] for f in report.functions
        ],
    }
    _emit(lfio.dumps(doc), args.out)
    return EXIT_OK


def _cmd_gen_exotic(args) -> int:
    em = exotic_metric(args.N)
    space = em.as_space()
    if args.out and args.out.endswith(".csv"):
        _emit(lfio.space_csv(space), args.out)
    else:
        _emit(lfio.dumps(lfio.space_doc(space)), args.out)
    if args.out:
        gamma_path = args.out + ".gamma.json"
        table = {}
        n = 1
        while True:
            pairs = sorted(gamma_pairs(em.family, n, em.family.horizon))
            if not pairs and n > 4:
                break
            table[str(n)] = [[k, p] for k, p in pairs]
            n += 1
        with open(gamma_path, "w") as fh:
            fh.write(lfio.dumps({"horizon": em.family.horizon, "gamma": table}))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import run_acceptance

    results = run_acceptance(limit=args.iters, stream=sys.stdout)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed", flush=True)
    return EXIT_OK if not failed else EXIT_NEGATIVE


_DISPATCH = {
    "norm": _cmd_transport,
    "coupling": _cmd_transport,
    "potential": _cmd_transport,
    "decompose": _cmd_decompose,
    "check-monotone": _cmd_check_monotone,
    "embed": _cmd_embed,
    "gen-exotic": _cmd_gen_exotic,
    "selftest": _cmd_selftest,
}


def main(argv: Optional[List[str]] = None) -> int:
    try:
        # basicConfig skips its own level check once the root logger has a
        # handler, so an unknown level is rejected here: bad input like any other.
        level = os.environ.get("LIPFREE_LOG", "WARNING").upper()
        if not isinstance(logging.getLevelName(level), int):
            raise ValueError(f"Unknown level: {level!r}")
        logging.basicConfig(level=level)
        args = _build_parser().parse_args(argv)
        log.info("running %s", args.command)
        return _DISPATCH[args.command](args)
    except Error as exc:
        sys.stderr.write(lfio.dumps({"error": exc.payload()}))
        return EXIT_INTERNAL_ERROR if isinstance(exc, InternalError) else EXIT_INPUT_ERROR
    except ValueError as exc:
        sys.stderr.write(lfio.dumps({"error": {"type": "ValueError", "message": str(exc)}}))
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
