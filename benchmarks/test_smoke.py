"""Tiny-size smoke runs of the benchmark.

Run with ``python -m pytest benchmarks``.  The repository's default test
run collects only ``tests/``, so these add nothing to its run time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def digest(stdout):
    return next(line for line in stdout.splitlines() if line.startswith("digest "))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_runs_report_every_metric_and_pass_the_gate(workload):
    untraced, traced = run(workload, 0), run(workload, 1)
    for proc, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[kind]
        }
    # Both runs answer the round-0 inputs of one seed.
    assert digest(untraced.stdout) == digest(traced.stdout)


def test_digest_depends_on_the_seed():
    assert digest(run("monotone_exact", 0).stdout) != digest(run("monotone_exact", 0, seed=4).stdout)


def test_probe_scales_by_host_speed():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import hostspeed

    ref = hostspeed.REFERENCE_S
    assert hostspeed.scaled(0.5, ref, ref) == pytest.approx(0.5)
    # A host twice as slow doubles both the probe and the query.
    assert hostspeed.scaled(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert hostspeed.probe() > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
