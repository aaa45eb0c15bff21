"""``tools/identity_scan.py`` end to end on its tiny corpus: this tree
against itself agrees, and a tree that answers differently is named."""

import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCAN = ROOT / "tools" / "identity_scan.py"
FAMILIES = ["validate_metric", "load_space", "embedding", "transport", "monotonicity", "cli", "csv"]


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


def test_tiny_scan_names_the_first_differing_case(tmp_path):
    # A tree whose default tolerance differs answers every float space,
    # and so the first case of the first family, differently.
    shutil.copytree(ROOT / "src" / "lipfree", tmp_path / "lipfree", ignore=shutil.ignore_patterns("__pycache__"))
    numerics = tmp_path / "lipfree" / "numerics.py"
    text = numerics.read_text()
    assert text.count("DEFAULT_TOLERANCE = 1e-9") == 1
    numerics.write_text(text.replace("DEFAULT_TOLERANCE = 1e-9", "DEFAULT_TOLERANCE = 2e-9"))
    proc = _scan(ROOT / "src", tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[0].endswith("DIFFERENT")
    assert proc.stdout.splitlines()[-1].startswith("first difference: validate_metric case 0: ")
