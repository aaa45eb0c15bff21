"""``tools/identity_scan.py`` end to end on its tiny corpus: this tree
against itself agrees, and a tree that answers differently in one family
is reported with that family's differing cases and no other family."""

import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCAN = ROOT / "tools" / "identity_scan.py"
FAMILIES = ["validate_metric", "load_space", "embedding", "transport", "monotonicity", "metric", "cli", "csv"]


def _scan(a, b):
    return subprocess.run(
        [sys.executable, str(SCAN), "--src", str(a), "--src", str(b), "--scale", "tiny"],
        capture_output=True, text=True, timeout=120,
    )


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def test_tiny_scan_of_one_tree_twice_agrees():
    # CPU time, not wall time: the two corpus runs share the machine with
    # whatever else runs, and the budget is for the scan's own work.
    before = _children_cpu()
    proc = _scan(ROOT / "src", ROOT / "src")
    assert _children_cpu() - before < 3
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == FAMILIES
    for line in lines[:-1]:
        _, count_a, _, count_b, _, digest_a, digest_b, verdict = line.split()
        assert int(count_a) == int(count_b) > 0 and digest_a == digest_b and verdict == "same"
    assert lines[-1] == "identical"


def test_tiny_scan_reports_each_differing_case_of_one_family(tmp_path):
    # Only the cli family's check-monotone commands write a certificate
    # document: two spaces of the tiny corpus, each as JSON and CSV.
    shutil.copytree(ROOT / "src" / "lipfree", tmp_path / "lipfree", ignore=shutil.ignore_patterns("__pycache__"))
    io_py = tmp_path / "lipfree" / "io.py"
    text = io_py.read_text()
    old = 'doc: Dict[str, Any] = {"monotone": cert.monotone}'
    assert text.count(old) == 1
    io_py.write_text(text.replace(old, 'doc: Dict[str, Any] = {"monotone": cert.monotone, "mutant": 1}'))
    proc = _scan(ROOT / "src", tmp_path)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    verdicts = {line.split()[0]: line.split()[-1] for line in lines[: len(FAMILIES)]}
    assert verdicts == {family: "DIFFERENT" if family == "cli" else "same" for family in FAMILIES}
    assert lines[len(FAMILIES)] == "cli: 4 cases differ; the first 4:"
    cases = lines[len(FAMILIES) + 1 :]
    assert len(cases) == 4 and all(case.startswith("  check-monotone --input ") for case in cases)
