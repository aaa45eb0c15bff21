import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lipfree import cli
from lipfree import io as lfio
from lipfree.errors import InternalError

LINE_DOC = {"labels": ["0", "a", "b"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "lipfree", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=300,
    )


@pytest.fixture
def line_files(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps(LINE_DOC))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"coeffs": {"a": 1}}))
    return space, phi


def test_norm_of_delta_prints_distance_to_base(line_files):
    space, phi = line_files
    proc = run_cli("norm", "--input", str(space), "--functional", str(phi))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["value"] == 1.0
    assert doc["value_exact"] == "1"


def test_coupling_output_schema(line_files):
    space, phi = line_files
    proc = run_cli("coupling", "--input", str(space), "--functional", str(phi))
    doc = json.loads(proc.stdout)
    assert set(doc) == {"value", "coupling", "representation", "potential", "value_exact"}
    assert doc["coupling"] == [["a", "0", 1.0]]
    assert doc["potential"]["0"] == 0.0


def test_check_monotone_negative_verdict_exit_code(tmp_path, line_files):
    space, _ = line_files
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"pairs": [["a", "b"], ["b", "a"]]}))
    proc = run_cli("check-monotone", "--input", str(space), "--pairs", str(pairs))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["monotone"] is False
    assert doc["slack"] == -2.0
    assert sorted(map(tuple, doc["cycle"])) == [("a", "b"), ("b", "a")]


def test_check_monotone_positive_exit_zero(tmp_path, line_files):
    space, _ = line_files
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"pairs": [["a", "0"]]}))
    proc = run_cli("check-monotone", "--input", str(space), "--pairs", str(pairs))
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"monotone": True}


def test_gen_exotic_then_molecule_norm(tmp_path):
    out = tmp_path / "exotic.json"
    proc = run_cli("gen-exotic", "--N", "64", "--out", str(out))
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["labels"][0] == "1" and len(doc["labels"]) == 64
    assert Path(str(out) + ".gamma.json").exists()

    # molecule between points 2 and 3: d(2,3) = 1/2 there
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"coeffs": {"2": 2, "3": -2}}))
    proc = run_cli("norm", "--input", str(out), "--functional", str(phi))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 1.0


def test_gen_exotic_csv(tmp_path):
    out = tmp_path / "exotic.csv"
    proc = run_cli("gen-exotic", "--N", "8", "--out", str(out))
    assert proc.returncode == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].split(",") == [str(i) for i in range(1, 9)]
    assert len(rows) == 9


def test_csv_space_input_roundtrip(tmp_path):
    # dyadic distances survive the 12-digit decimal round trip losslessly
    from lipfree.instances import line_space

    sp = line_space([0, 1, 2.5, 4.25])
    csv_path = tmp_path / "space.csv"
    csv_path.write_text(lfio.space_csv(sp))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"coeffs": {"1": 1}}))
    proc = run_cli("norm", "--input", str(csv_path), "--functional", str(phi))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(float(sp.d(1, 0)))


def test_embed_command(line_files):
    space, _ = line_files
    proc = run_cli("embed", "--input", str(space))
    doc = json.loads(proc.stdout)
    assert doc["distortion"] == 1.0 and doc["objective"] == 1.0
    proc = run_cli("embed", "--input", str(space), "--dim", "1", "--iters", "40", "--seed", "1")
    doc = json.loads(proc.stdout)
    assert doc["objective"] == pytest.approx(1.0)


def test_input_errors_exit_two(tmp_path, line_files):
    space, phi = line_files
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    proc = run_cli("norm", "--input", str(bad), "--functional", str(phi))
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"]["type"] == "ParseError"

    notmetric = tmp_path / "notmetric.json"
    notmetric.write_text(json.dumps({"labels": ["0", "1"], "dist": [[0, 5], [4, 0]]}))
    proc = run_cli("norm", "--input", str(notmetric), "--functional", str(phi))
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"]["type"] == "AsymmetricMatrix"

    wrong_label = tmp_path / "wl.json"
    wrong_label.write_text(json.dumps({"coeffs": {"zebra": 1}}))
    proc = run_cli("norm", "--input", str(space), "--functional", str(wrong_label))
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"]["type"] == "SchemaMismatch"


@pytest.mark.parametrize("where", ["space.json", "space.csv", "phi.json"])
def test_zero_denominator_is_schema_error(capsys, tmp_path, line_files, where):
    space, phi = line_files
    bad = tmp_path / where
    if where == "space.json":
        space = bad
        bad.write_text(json.dumps({"labels": ["0", "a"], "dist": [[0, "1/0"], ["1/0", 0]]}))
    elif where == "space.csv":
        space = bad
        bad.write_text("0,a\n0,1/0\n1/0,0\n")
    else:
        phi = bad
        bad.write_text(json.dumps({"coeffs": {"a": "3/0"}}))
    assert cli.main(["norm", "--input", str(space), "--functional", str(phi)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "SchemaMismatch"
    assert error["message"].endswith(": Fraction(3, 0)" if where == "phi.json" else ": Fraction(1, 0)")


def test_unknown_log_level_is_input_error(line_files):
    space, phi = line_files
    env = {**os.environ, "LIPFREE_LOG": "verbose"}
    proc = run_cli("norm", "--input", str(space), "--functional", str(phi), env=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == {"type": "ValueError", "message": "Unknown level: 'VERBOSE'"}


def test_unknown_log_level_rejected_in_process(monkeypatch, capsys, line_files):
    # With a handler on the root logger, basicConfig no longer checks the level.
    space, phi = line_files
    monkeypatch.setenv("LIPFREE_LOG", "verbose")
    root = logging.getLogger()
    handler = logging.NullHandler()
    root.addHandler(handler)
    try:
        rc = cli.main(["norm", "--input", str(space), "--functional", str(phi)])
    finally:
        root.removeHandler(handler)
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == {"type": "ValueError", "message": "Unknown level: 'VERBOSE'"}


def test_overflowing_distance_reports_one_json_error(tmp_path):
    n = 66  # above the exact-mode limit, so the space is validated in floats
    dist = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    dist[0][1] = dist[1][0] = "1e400"
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"labels": [f"p{i}" for i in range(n)], "dist": dist}))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"coeffs": {"p1": 1}}))
    proc = run_cli("norm", "--input", str(space), "--functional", str(phi))
    assert proc.returncode == 2 and proc.stdout == ""
    doc, end = json.JSONDecoder().raw_decode(proc.stderr)
    assert proc.stderr[end:].strip() == "", proc.stderr
    assert set(doc) == {"error"}


def test_internal_error_exits_three(monkeypatch, capsys, line_files):
    space, phi = line_files

    def broken(*args, **kwargs):
        raise InternalError("solver fault")

    monkeypatch.setattr(cli, "optimal_coupling", broken)
    assert cli.main(["norm", "--input", str(space), "--functional", str(phi)]) == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "InternalError"


def test_missing_pair_label_is_schema_error(tmp_path, line_files):
    space, _ = line_files
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"pairs": [["a", "zebra"]]}))
    proc = run_cli("check-monotone", "--input", str(space), "--pairs", str(pairs))
    assert proc.returncode == 2


def test_byte_determinism_norm_and_embed(line_files):
    space, phi = line_files
    a = run_cli("norm", "--input", str(space), "--functional", str(phi))
    b = run_cli("norm", "--input", str(space), "--functional", str(phi))
    assert a.stdout == b.stdout
    a = run_cli("embed", "--input", str(space), "--dim", "2", "--iters", "30", "--seed", "5")
    b = run_cli("embed", "--input", str(space), "--dim", "2", "--iters", "30", "--seed", "5")
    assert a.stdout == b.stdout


def test_selftest_quick_deterministic():
    a = run_cli("selftest", "--iters", "1")
    b = run_cli("selftest", "--iters", "1")
    assert a.returncode == 0, a.stdout + a.stderr
    assert a.stdout == b.stdout
    assert "12/12 criteria passed" in a.stdout
