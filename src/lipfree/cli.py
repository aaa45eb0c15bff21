"""Command-line front end.

Commands: norm, coupling, potential, decompose (transport), check-monotone
(certification), embed (coordinate families), gen-exotic (metric
generator), selftest (acceptance suite).  Exit codes: 0 success, 1
certified negative verdict, 2 input error, 3 internal fault.  Each command
checks its arguments and the shape of its input before any solver runs;
a ``ValueError`` raised after those checks is a fault, not bad input.  Outputs are
byte-deterministic for fixed seeds: floats at 12 significant digits, fixed
key order.  ``import lipfree.cli`` loads io, metric, numerics and errors;
a command loads its own solver module (transport, monotonicity, embedding
or exotic) on its first call.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
from typing import List, Optional

from . import _export, io as lfio
from .errors import Error, InternalError
from .numerics import DEFAULT_TOLERANCE

log = logging.getLogger("lipfree")
#: Loaded on first read (``__getattr__``); handlers call them through ``_cli``,
#: so a name set on ``lipfree.cli`` (a monkeypatch, a tracer) is the one run.
_SOLVERS = ("optimal_coupling", "check_cyclically_monotone", "frechet_embedding",
            "best_embedding_search", "exotic_metric", "gamma_pairs")
_cli = sys.modules[__name__]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


class _BadArgument(ValueError):
    """An argument or input shape the command rejects before any solver runs."""


def __getattr__(name):
    if name not in _SOLVERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, _export(name))


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
        return p

    # keys: the keys of io.transport_doc the command prints, in order; None
    # prints them all, and decompose prints a document of its own.
    for name, keys in (("norm", ("value", "value_exact")), ("coupling", None),
                       ("potential", ("value", "potential", "value_exact")), ("decompose", None)):
        common(sub.add_parser(name), functional=True).set_defaults(run=_cmd_transport, keys=keys)
    common(sub.add_parser("check-monotone"), pairs=True).set_defaults(run=_cmd_check_monotone)

    p_embed = common(sub.add_parser("embed"))
    p_embed.set_defaults(run=_cmd_embed)
    p_embed.add_argument("--dim", type=int, default=None,
                         help="coordinate count for the local search "
                         "(omit for the isometric per-point family)")
    p_embed.add_argument("--iters", type=int, default=300)
    p_embed.add_argument("--seed", type=int, default=0)

    p_gen = sub.add_parser("gen-exotic")
    p_gen.add_argument("--N", type=int, required=True, help="number of points")
    p_gen.add_argument("--out", help="output path (.csv for CSV, else JSON); "
                       "a Gamma table is written next to it")
    p_gen.set_defaults(run=_cmd_gen_exotic)

    p_self = sub.add_parser("selftest")
    p_self.add_argument("--iters", type=int, default=None,
                        help="cap instance counts per criterion (default: full scale)")
    p_self.set_defaults(run=_cmd_selftest)

    return parser


def _emit(text: str, out: Optional[str]):
    if out:
        lfio.write_text(out, text)
    else:
        sys.stdout.write(text)


def _load_space(args):
    if not 0 < args.tolerance < math.inf:
        raise _BadArgument(f"--tolerance must be positive and finite, got {args.tolerance}")
    exact = True if args.exact else None
    return lfio.load_space(args.input, exact=exact, tol=args.tolerance)


def _cmd_transport(args) -> int:
    """norm, coupling, potential and decompose: four views of one solve."""
    space = _load_space(args)
    phi = lfio.load_functional(args.functional, space)
    result = _cli.optimal_coupling(phi, space)
    if args.command == "decompose":  # molecules read off the optimal representation
        doc = {
            "value": lfio.jsonable_number(result.value),
            "molecules": lfio.measure_doc(result.representation, space),
        }
    else:
        doc = lfio.transport_doc(result, space)
        doc = {k: doc[k] for k in args.keys or doc if k in doc}
    _emit(lfio.dumps(doc), args.out)
    return EXIT_OK


def _cmd_check_monotone(args) -> int:
    space = _load_space(args)
    pair_set = lfio.load_pair_set(args.pairs, space)
    cert = _cli.check_cyclically_monotone(pair_set, space)
    _emit(lfio.dumps(lfio.certificate_doc(cert, space)), args.out)
    return EXIT_OK if cert.monotone else EXIT_NEGATIVE


def _cmd_embed(args) -> int:
    space = _load_space(args)
    if args.dim is not None and args.dim < 1:
        raise _BadArgument("need at least one coordinate")
    if args.dim is not None and args.iters < 1:
        raise _BadArgument("need at least one iteration")
    if space.n < 2:
        raise _BadArgument("need at least two points to embed")
    if args.dim is None:
        report = _cli.frechet_embedding(space)
    else:
        report = _cli.best_embedding_search(args.dim, space, iterations=args.iters, seed=args.seed)
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
    if args.N < 2:
        raise _BadArgument("need at least two points")
    em = _cli.exotic_metric(args.N)
    space = em.as_space()
    text = lfio.space_csv(space) if args.out and args.out.endswith(".csv") else lfio.space_json(space)
    if not args.out:
        sys.stdout.write(text)
        return EXIT_OK
    table = {}
    n = 1
    while True:
        pairs = sorted(_cli.gamma_pairs(em.family, n, em.family.horizon))
        if not pairs and n > 4:
            break
        table[str(n)] = [[k, p] for k, p in pairs]
        n += 1
    gamma = lfio.dumps({"horizon": em.family.horizon, "gamma": table})
    # Both files or neither: a Gamma table that cannot be written takes the
    # space file written just before it away again.
    lfio.write_text(args.out, text)
    try:
        lfio.write_text(args.out + ".gamma.json", gamma)
    except lfio.WriteError:
        os.remove(args.out)
        raise
    return EXIT_OK


def _cmd_selftest(args) -> int:
    if args.iters is not None and args.iters < 1:
        raise _BadArgument(f"--iters must be at least 1, got {args.iters}")
    from .selftest import run_acceptance

    results = run_acceptance(limit=args.iters, stream=sys.stdout)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed", flush=True)
    return EXIT_OK if not failed else EXIT_NEGATIVE


def main(argv: Optional[List[str]] = None) -> int:
    try:
        # basicConfig skips its own level check once the root logger has a
        # handler, so an unknown level is rejected here: bad input like any other.
        level = os.environ.get("LIPFREE_LOG", "WARNING").upper()
        if not isinstance(logging.getLevelName(level), int):
            raise _BadArgument(f"Unknown level: {level!r}")
        logging.basicConfig(level=level)
        args = _build_parser().parse_args(argv)
        log.info("running %s", args.command)
        return args.run(args)
    except Error as exc:
        sys.stderr.write(lfio.dumps({"error": exc.payload()}))
        return EXIT_INTERNAL_ERROR if isinstance(exc, InternalError) else EXIT_INPUT_ERROR
    except _BadArgument as exc:
        sys.stderr.write(lfio.dumps({"error": {"type": "ValueError", "message": str(exc)}}))
        return EXIT_INPUT_ERROR
    except Exception as exc:  # no lipfree error and no bad argument: a fault of the program
        log.debug("internal fault", exc_info=True)
        sys.stderr.write(lfio.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
