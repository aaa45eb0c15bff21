"""Certified-query benchmark for lipfree: one closed-loop client per run.

    python3 benchmarks/run.py --workload transport_exact --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; lipfree is imported from ``src/``.
The run generates its inputs from the seed, times the set-up (importing
lipfree and validating every space the workload queries) several times,
then runs rounds of queries until ``--seconds`` have passed and at least
``MIN_QUERIES`` queries are done.  Every query runs together with its
certificate check, between two runs of a fixed host-speed probe that
scale its wall time to a reference host speed (``hostspeed.py``); the
end-to-end metrics are the scaled figures, and the wall-clock ones are
printed beside them.  After the timed phase the answer gate compares each
answer with an independent oracle.  With ``--trace 0`` the end-to-end
metrics are reported; with ``--trace 1`` untraced and traced rounds
alternate and the per-layer metrics are reported, per traced round plus
one traced set-up.  The metric names and units come from ``BENCHMARK.json``.
The last line of standard output is one JSON object; the exit code is 0
when every answer passed its checks.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_QUERIES = 100
SETUP_REPS = {"transport_exact": 5, "monotone_exact": 5, "cli_roundtrip": 31}

#: Per-layer metrics that sum span metrics of several names.
AGGREGATES = {
    "monotonicity.check.calls": ("monotonicity.check_monotone.calls", "monotonicity.check_violating.calls"),
    "monotonicity.check.pair_nodes": ("monotonicity.check_monotone.pair_nodes", "monotonicity.check_violating.pair_nodes"),
    "monotonicity.check.violations": ("monotonicity.check_violating.violations",),
}

#: Per-unit ratios printed beside the per-layer metrics: (time, base).
RATIOS = [
    ("metric.validate_metric.busy_s", "metric.validate_metric.points"),
    ("transport.optimal_coupling.self_s", "transport.optimal_coupling.nodes"),
    ("monotonicity.check_violating.busy_s", "monotonicity.check.pair_nodes"),
    ("io.load.self_s", "io.bytes_read"),
    ("io.dump.busy_s", "io.bytes_written"),
]


def fail(message: str) -> int:
    sys.stderr.write(f"benchmark error: {message}\n")
    return 2


def import_lipfree(extra_modules):
    """Import lipfree afresh from ``src/``, dropping any loaded copy, so
    each set-up repetition pays the library's own import time."""
    for name in [m for m in sys.modules if m == "lipfree" or m.startswith("lipfree.")]:
        del sys.modules[name]
    lf = importlib.import_module("lipfree")
    for name in extra_modules:
        importlib.import_module(name)
    if not Path(lf.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"lipfree was imported from {lf.__file__}, not from {SRC}")
    return lf


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def run_rounds(workload, lf, tmp, seconds, min_queries, trace, seed, tracer):
    """The closed loop: whole rounds in shuffled order until time is up.

    Untraced, round ``r`` runs the workload's round-``r`` inputs.  Traced,
    untraced and traced rounds alternate and all repeat the round-0 inputs,
    so the two kinds are compared on the same work and per-round counts
    repeat exactly.  Each query's wall time is also scaled to the reference
    host speed with the host-speed probes run before and after it
    (``hostspeed.py``).  Returns per-round records (traced, [(key, wall
    seconds, scaled seconds)]), the queries by key, and per key its first
    answer, its execution count and its failures.
    """
    rounds, by_key, answers, runs, failures = [], {}, {}, {}, {}
    rng = random.Random(seed)
    fixed = workload.round(lf, tmp, 0) if trace else None
    done, traced, start = 0, trace, time.perf_counter()
    while True:
        r = len(rounds)
        queries = fixed if trace else workload.round(lf, tmp, r)
        order = list(queries)
        rng.shuffle(order)
        traced = trace and not traced
        if traced:
            tracer.install()
        timings = []
        before = hostspeed.probe()
        for q in order:
            key = f"{0 if trace else r}/{q.key}"
            t0 = time.perf_counter()
            try:
                if traced:
                    tracer.query += 1
                    with tracer.span("query"):
                        answer = q.run()
                else:
                    answer = q.run()
                error = None
            except Exception as exc:  # a failed query is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            after = hostspeed.probe()
            timings.append((key, wall, hostspeed.scaled(wall, before, after)))
            before = after
            by_key[key] = q
            runs[key] = runs.get(key, 0) + 1
            if error is None and key in answers and answers[key] != answer:
                error = f"answer changed between repeats: {answer!r} != {answers[key]!r}"
            if error is None:
                answers.setdefault(key, answer)
            else:
                failures.setdefault(key, []).append(error)
        rounds.append((traced, timings))
        if traced:
            tracer.uninstall()
        done += len(order)
        if time.perf_counter() - start >= seconds and done >= min_queries and traced == trace:
            return rounds, by_key, answers, runs, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, one round, for the smoke test")
    args = parser.parse_args(argv)

    # numpy's thread pools, capped before numpy is first imported.
    threads = str(min(2, os.cpu_count() or 1))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if not (SRC / "lipfree" / "__init__.py").is_file():
        return fail(f"no lipfree sources under {SRC}")
    sys.path.insert(0, str(SRC))

    import gate
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    trace = bool(args.trace)
    tiny = args.scale == "tiny"
    workload = workloads.make(args.workload, args.seed, args.scale)

    setup_tracer, tracer = tracing.Tracer(), tracing.Tracer()
    setup_times = []  # (wall, scaled) seconds per repetition
    reps = 1 if tiny else SETUP_REPS[args.workload]
    for rep in range(reps):
        # The import and each set-up step are timed between host-speed probes.
        try:
            lf, wall, scaled = hostspeed.timed(lambda: import_lipfree(workload.modules))
        except ImportError as exc:
            return fail(f"cannot import lipfree: {exc}")
        if trace and rep == reps - 1:
            setup_tracer.install()
        for step in workload.setup_steps(lf):
            _, step_wall, step_scaled = hostspeed.timed(step)
            wall, scaled = wall + step_wall, scaled + step_scaled
        setup_tracer.uninstall()
        setup_times.append((wall, scaled))

    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        min_queries = 0 if tiny else MIN_QUERIES
        rounds, by_key, answers, runs, failures = run_rounds(
            workload, lf, tmp, args.seconds, min_queries, trace, args.seed, tracer
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        round_size = len(rounds[0][1])
        moved = [q.bytes_moved() for key, q in by_key.items()] if trace else []
        t_gate = time.perf_counter()
        for key, q in by_key.items():
            if key in answers:
                try:
                    q.oracle(answers[key])
                except Exception as exc:  # any oracle failure fails the query
                    failures.setdefault(key, []).append(f"oracle: {type(exc).__name__}: {exc}")
        t_gate = time.perf_counter() - t_gate
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(runs.values())
    failed = sum(runs[key] for key in failures)
    for key, errors in sorted(failures.items()):
        print(f"FAILED {key}: {errors[0]}")
    # Rounds every run of this seed completes, so the digest repeats.
    digest_rounds = 1 if trace else max(1, -(-min_queries // round_size))
    first = {k: v for k, v in answers.items() if int(k.split("/", 1)[0]) < digest_rounds}
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of {round_size} queries")
    print(f"digest {gate.digest(first)} over the answers of the first {digest_rounds} round(s)")
    print(f"error_rate {failed / attempted:.6g} ({failed}/{attempted} queries failed); "
          f"answer gate {t_gate:.1f} s over {len(answers)} answers")

    def figures(column):
        """setup_s, queries_per_s, latency_p50_ms and latency_p90_ms of the
        untraced rounds, from wall (0) or reference-scaled (1) times."""
        times = sorted(t[1 + column] for t in untraced)
        good = sum(1 for t in untraced if t[0] not in failures)
        p90 = quantile(times, 0.90) if len(times) > 1 else times[0]
        setup = statistics.median(t[column] for t in setup_times)
        return setup, good / sum(times), 1000 * statistics.median(times), 1000 * p90

    untraced = [t for traced, timings in rounds if not traced for t in timings]
    if not trace:
        print(f"latency samples {len(untraced)}; setup repetitions {len(setup_times)}")
        print("wall-clock figures, not scaled to the reference host speed: setup_s {:.4g} s, "
              "queries_per_s {:.4g} 1/s, latency_p50_ms {:.4g} ms, latency_p90_ms {:.4g} ms".format(*figures(0)))
        print(f"host slowness (wall over scaled query time): "
              f"{sum(t[1] for t in untraced) / sum(t[2] for t in untraced):.4g}")
        values = dict(zip(("setup_s", "queries_per_s", "latency_p50_ms", "latency_p90_ms"), figures(1)))
        values["peak_rss_mb"] = peak_rss_mb
        wanted = spec["end_to_end"]
    else:
        # The first round is untraced and pays the first calls' costs, so
        # the overhead compares the rounds after it, if there are enough.
        compared = rounds[1:] if len(rounds) > 2 else rounds

        def qps(of_traced):
            times = [t[2] for is_traced, timings in compared if is_traced == of_traced for t in timings]
            return len(times) / sum(times)

        untraced_qps, traced_qps = qps(False), qps(True)
        per_round = tracing.layer_metrics(tracer.spans)
        n_traced = sum(1 for is_traced, _ in rounds if is_traced)
        raw = tracing.layer_metrics(setup_tracer.spans)
        for key, value in per_round.items():
            raw[key] = raw.get(key, 0.0) + value / n_traced
        for name, parts in AGGREGATES.items():
            raw[name] = sum(raw.get(p, 0.0) for p in parts)
        raw["io.bytes_read"] = sum(r for r, _ in moved)
        raw["io.bytes_written"] = sum(w for _, w in moved)
        raw["trace.overhead_frac"] = 1 - traced_qps / untraced_qps
        raw["trace.layer_cover_frac"] = 1 - per_round["query.self_s"] / per_round["query.busy_s"]
        values = {m["name"]: raw.get(m["name"], 0.0) for m in spec["per_layer"]}
        print(f"per-layer figures: one traced set-up plus the mean of {n_traced} traced rounds")
        print(f"queries/s after the first round, untraced {untraced_qps:.4g}, traced {traced_qps:.4g}")
        print("scaled query time per round (U untraced, T traced): " + ", ".join(
            f"{'T' if is_traced else 'U'} {sum(t[2] for t in timings):.3f} s" for is_traced, timings in rounds))
        for time_key, base_key in RATIOS:
            if raw.get(base_key):
                print(f"ratio {time_key} per {base_key.rsplit('.', 1)[1]}: "
                      f"{raw.get(time_key, 0.0) / raw[base_key]:.4g} s (base {raw[base_key]:g})")
        wanted = spec["per_layer"]
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"setup": [s.__dict__ for s in setup_tracer.spans],
                       "rounds": [s.__dict__ for s in tracer.spans]}, fh)

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
