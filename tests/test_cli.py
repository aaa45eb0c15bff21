import csv
import hashlib
import json
import logging
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from lipfree import cli, selftest
from lipfree import io as lfio
from lipfree.errors import InternalError
from lipfree.instances import random_space
from lipfree.numerics import exact_repr

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


@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
def test_tolerance_outside_zero_to_inf_is_input_error(capsys, line_files, tolerance):
    space, phi = line_files
    args = ["norm", "--input", str(space), "--functional", str(phi), "--tolerance", tolerance]
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError" and error["message"].startswith("--tolerance ")


def test_diagonal_pair_is_schema_error(capsys, tmp_path, line_files):
    space, _ = line_files
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"pairs": [["a", "b"], ["b", "b"]]}))
    assert cli.main(["check-monotone", "--input", str(space), "--pairs", str(pairs)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "SchemaMismatch", "message": f"{pairs}: pair (2,2) lies on the diagonal",
    }


@pytest.mark.parametrize("iters", ["0", "-5"])
def test_embed_iters_below_one_is_input_error(capsys, line_files, iters):
    space, _ = line_files
    assert cli.main(["embed", "--input", str(space), "--dim", "1", "--iters", iters]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {"type": "ValueError", "message": "need at least one iteration"}


@pytest.mark.parametrize("iters", ["0", "-5"])
def test_selftest_iters_below_one_is_input_error(capsys, iters):
    assert cli.main(["selftest", "--iters", iters]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "ValueError", "message": f"--iters must be at least 1, got {iters}"}


@pytest.mark.parametrize("dim", ["0", "-2"])
def test_embed_dim_below_one_is_input_error(capsys, line_files, dim):
    space, _ = line_files
    assert cli.main(["embed", "--input", str(space), "--dim", dim]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {"type": "ValueError", "message": "need at least one coordinate"}


@pytest.mark.parametrize("dim", [[], ["--dim", "1"], ["--dim", "3"]])
def test_embed_one_point_space_is_input_error(capsys, tmp_path, dim):
    space = tmp_path / "point.json"
    space.write_text(json.dumps({"labels": ["0"], "dist": [[0]]}))
    assert cli.main(["embed", "--input", str(space), *dim]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {"type": "ValueError", "message": "need at least two points to embed"}


@pytest.mark.parametrize("command", ["norm", "gen-exotic", "gen-exotic gamma"])
def test_unwritable_out_is_input_error(capsys, tmp_path, line_files, command):
    space, phi = line_files
    out = tmp_path / "missing" / "x.json"
    if command == "gen-exotic gamma":  # the space file could be written, its Gamma table cannot
        out = tmp_path / "x.json"
        (tmp_path / "x.json.gamma.json").mkdir()
    if command == "norm":
        args = ["norm", "--input", str(space), "--functional", str(phi)]
    else:
        args = ["gen-exotic", "--N", "8"]
    assert cli.main([*args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "WriteError" and error["message"].startswith(f"cannot write {out.parent}")
    assert not (tmp_path / "missing").exists()
    assert not (tmp_path / "x.json").exists()  # a failed gen-exotic writes neither file


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


def _float_line(tmp_path, suffix, big=None):
    """A 66-point space, so read in float mode, with ``big`` at (2, 3)."""
    n = 66
    labels = [f"p{i}" for i in range(n)]
    dist = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    if big is not None:
        dist[2][3] = dist[3][2] = big
    space = tmp_path / f"space{suffix}"
    if suffix == ".csv":
        space.write_text("".join(",".join(map(str, row)) + "\n" for row in [labels] + dist))
    else:
        space.write_text(json.dumps({"labels": labels, "dist": dist}))
    return space


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_integer_past_float_range_is_non_finite_distance(capsys, tmp_path, suffix):
    # Read as inf, as the JSON number 1e400 is, not an OverflowError.
    space = _float_line(tmp_path, suffix, big=10**400)
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"coeffs": {"p1": 1}}))
    assert cli.main(["norm", "--input", str(space), "--functional", str(phi)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "NonFiniteDistance", "message": "dist[2][3] is not finite", "witness": [2, 3]
    }


@pytest.mark.parametrize(
    "coeff", ["Infinity", "-Infinity", "NaN", "1e400", '"-1e400"', pytest.param(str(10**400), id="10**400")]
)
@pytest.mark.parametrize("exact", [True, False])
def test_non_finite_coefficient_is_schema_error(capsys, tmp_path, line_files, coeff, exact):
    space, _ = line_files
    label = "a" if exact else "p1"
    if not exact:
        space = _float_line(tmp_path, ".json")
    phi = tmp_path / "phi.json"
    phi.write_text(f'{{"coeffs": {{"{label}": {coeff}}}}}')
    if exact and coeff == str(10**400):  # any integer is finite in exact mode
        assert lfio.load_functional(str(phi), lfio.load_space(str(space))).coeffs == {1: 10**400}
        return
    assert cli.main(["norm", "--input", str(space), "--functional", str(phi)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "SchemaMismatch", "message": f"{phi}: coefficient of {label!r} is not finite"
    }


def test_internal_error_exits_three(monkeypatch, capsys, line_files):
    space, phi = line_files

    def broken(*args, **kwargs):
        raise InternalError("solver fault")

    monkeypatch.setattr(cli, "optimal_coupling", broken)
    assert cli.main(["norm", "--input", str(space), "--functional", str(phi)]) == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "InternalError"


def test_unclassified_exception_and_solver_value_error_exit_three(monkeypatch, capsys, line_files):
    # The arguments and the input passed their checks, so a ValueError from
    # the solver is a fault of the program, not bad input.
    space, phi = line_files
    argv = ["norm", "--input", str(space), "--functional", str(phi)]
    for exc, code, body in (
        (KeyError("lost"), 3, {"type": "KeyError", "message": "'lost'"}),
        (ZeroDivisionError("nothing"), 3, {"type": "ZeroDivisionError", "message": "nothing"}),
        (ValueError("bad"), 3, {"type": "ValueError", "message": "bad"}),
    ):
        def broken(*args, exc=exc, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "optimal_coupling", broken)
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == "" and json.loads(captured.err) == {"error": body}


@pytest.mark.parametrize("command,solver", [
    (["embed"], "frechet_embedding"),
    (["embed", "--dim", "2"], "best_embedding_search"),
    (["check-monotone"], "check_cyclically_monotone"),
    (["gen-exotic", "--N", "8"], "exotic_metric"),
])
def test_value_error_from_any_solver_exits_three(monkeypatch, capsys, tmp_path, line_files, command, solver):
    space, _ = line_files
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"pairs": [["a", "b"]]}))
    argv = command + ([] if command[0] == "gen-exotic" else ["--input", str(space)])
    argv += ["--pairs", str(pairs)] if command[0] == "check-monotone" else []

    def broken(*args, **kwargs):
        raise ValueError("solver fault")

    monkeypatch.setattr(cli, solver, broken)
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {"error": {"type": "ValueError", "message": "solver fault"}}


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_gen_exotic_below_two_points_is_input_error(capsys, n):
    assert cli.main(["gen-exotic", "--N", n]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {"type": "ValueError", "message": "need at least two points"}


@pytest.mark.parametrize("command", ["norm", "coupling", "potential", "decompose"])
def test_float_answer_overflowing_to_infinity_is_out_of_range(capsys, tmp_path, command):
    # Finite input whose float answer overflows: the exact case's OutOfRange,
    # not the JSON encoder's ValueError.
    n = 66
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"labels": [f"p{i}" for i in range(n)],
                                 "dist": [[0 if i == j else 1e300 for j in range(n)] for i in range(n)]}))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"coeffs": {"p1": 1e300, "p2": -1e300}}))
    assert cli.main([command, "--input", str(space), "--functional", str(phi)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == {
        "type": "OutOfRange", "message": "an answer is past float's range and cannot be written"}


def test_norm_and_decompose_print_the_same_value(tmp_path):
    rng = random.Random(20)
    cases = [(n, True) for n in (6, 17, 40)] + [(n, False) for n in (65, 97, 128)]
    for n, exact in cases:
        sp = random_space(n, seed=n, exact=exact)
        if exact:
            path = tmp_path / f"s{n}.json"
            path.write_text(lfio.space_json(sp))
        else:
            path = tmp_path / f"s{n}.csv"
            path.write_text(",".join(sp.labels) + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in sp.dist))
        for k in range(4):
            phi = tmp_path / f"phi{n}-{k}.json"
            points = rng.sample(sp.labels[1:], rng.randint(2, n - 1))
            phi.write_text(json.dumps({"coeffs": {x: rng.uniform(-5, 5) for x in points}}))
            values = []
            for command in ("norm", "decompose"):
                out = tmp_path / f"{command}{n}-{k}.json"
                assert cli.main([command, "--input", str(path), "--functional", str(phi), "--out", str(out)]) == 0
                values.append(json.loads(out.read_text())["value"])
            assert values[0] == values[1]


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


def _subcommands():
    return next(a for a in cli._build_parser()._actions if a.dest == "command").choices


def test_every_subcommand_carries_its_handler():
    for name, sub in _subcommands().items():
        required = [[a.option_strings[0], "1"] for a in sub._actions if a.required]
        args = cli._build_parser().parse_args([name, *sum(required, [])])
        assert args.command == name and callable(args.run), name


def test_c12_runs_every_command_but_selftest_twice(monkeypatch):
    calls = []

    def fake_run(argv, cwd):
        calls.append(argv[0])
        return subprocess.CompletedProcess(argv, 0, stdout=b"{}\n", stderr=b"")

    monkeypatch.setattr(selftest, "_run_cli", fake_run)
    result = selftest.c12_cli_golden()
    assert result.passed, result.detail
    commands = [name for name in _subcommands() if name != "selftest"]
    assert sorted(calls) == sorted(commands * 2)


def test_selftest_quick_deterministic():
    a = run_cli("selftest", "--iters", "1")
    b = run_cli("selftest", "--iters", "1")
    assert a.returncode == 0, a.stdout + a.stderr
    assert a.stdout == b.stdout
    assert "12/12 criteria passed" in a.stdout


@pytest.mark.parametrize("where", ["space", "functional", "pairs"])
def test_integer_past_digit_limit_is_parse_error(capsys, tmp_path, line_files, where):
    # json.loads raises a plain ValueError, not JSONDecodeError, for an
    # integer literal longer than 4300 digits.
    space, phi = line_files
    huge = "9" * 5000
    bad = tmp_path / "huge.json"
    if where == "space":
        bad.write_text('{"labels": ["0", "a"], "dist": [[0, %s], [%s, 0]]}' % (huge, huge))
        argv = ["embed", "--input", str(bad)]
    elif where == "functional":
        bad.write_text('{"coeffs": {"a": %s}}' % huge)
        argv = ["norm", "--input", str(space), "--functional", str(bad)]
    else:
        bad.write_text('{"pairs": [["a", "b"]], "weight": %s}' % huge)
        argv = ["check-monotone", "--input", str(space), "--pairs", str(bad)]
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("where", ["space", "functional", "pairs"])
def test_non_utf8_file_is_parse_error(capsys, tmp_path, line_files, where):
    # A file that does not decode raises UnicodeDecodeError, a ValueError.
    space, phi = line_files
    bad = tmp_path / "bom.json"
    bad.write_bytes(b"\xff\xfe" + json.dumps({"coeffs": {"a": 1}}).encode("utf-16-le"))
    if where == "space":
        argv = ["embed", "--input", str(bad)]
    elif where == "functional":
        argv = ["norm", "--input", str(space), "--functional", str(bad)]
    else:
        argv = ["check-monotone", "--input", str(space), "--pairs", str(bad)]
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("cell", ["9" * 140000, "1\x002"], ids=["field past the limit", "NUL byte"])
def test_malformed_csv_is_an_input_error(capsys, tmp_path, line_files, cell):
    # csv.reader raises csv.Error for a field longer than
    # csv.field_size_limit(), and _csv_rows rejects a NUL byte on every
    # Python version: exit 2.
    space, phi = line_files
    bad = tmp_path / "bad.csv"
    bad.write_text(f"0,a\n0,{cell}\n{cell},0\n")
    assert cli.main(["norm", "--input", str(bad), "--functional", str(phi)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith(f"{bad} is not valid CSV: ")


def _sha256(*paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


#: Output digests pinned when the float-mode reader, writer and embedding
#: search still worked cell by cell, and (the last five) when the transport
#: solver still ran a full linear-scan Dijkstra per augmentation and the
#: exact per-point embedding subtracted Fractions cell by cell; the faster
#: paths must write the same bytes.
_PINNED = {
    "exotic.json": "49f8ac4dcffdcff576f19e9e8084b95ee5544c1051d0fc59aeffe6b809828ec3",
    "exotic.csv": "2eac67ec9d89b10aef67c92f02b13187abf640cd838ced9e90cd11c1f90c777b",
    "e48.json": "95b7133e0be6865eb9b2b62732368140e43648166c5741acbe5de8dbea10f7b7",
    "f66.csv": "aa97756a2fda61c8250de0fba450f657b43ce7c46761a0fb2d80514c71240217",
    "embed e48.json": "db7aa19f9f18d2e2bfbd59de7b3e67cba19a716fce0c809a4e3ef7a141dc86bd",
    "coupling f66.csv": "29cde1b799abba4ee94ef1cf15483272459b66dd1c6f375422aa228c1a61e392",
    "decompose f66.csv": "cbec9a9ace3eadd0b71d8d7866c8399a29bd7c36cac73151965126d08dfe6abb",
    "coupling e32.json": "70436c70784f69f1db51a0c0aa7dd6a7f8f9c758a8c73ea53e55417a49cb4b21",
    "potential e32.json": "a3da3b1d00362ed761f7d2a9e3133bdf8b3a2eb1e48385bebda7c9d6f99e3b10",
}


def test_float_outputs_match_pinned_bytes(tmp_path):
    got = {}
    for name in ("exotic.json", "exotic.csv"):
        out = tmp_path / name
        assert cli.main(["gen-exotic", "--N", "256", "--out", str(out)]) == 0
        got[name] = _sha256(out, f"{out}.gamma.json")
    # An exact space (the search converts it to floats) and a float CSV one.
    exact = random_space(48, 5)
    (tmp_path / "e48.json").write_text(json.dumps(
        {"labels": list(exact.labels), "dist": [[exact_repr(v) for v in row] for row in exact.dist]}
    ))
    floats = random_space(66, 6)
    with open(tmp_path / "f66.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(floats.labels)
        writer.writerows([[repr(float(v)) for v in row] for row in floats.dist])
    for name in ("e48.json", "f66.csv"):
        out = tmp_path / f"{name}.out"
        argv = ["embed", "--input", str(tmp_path / name), "--dim", "3", "--iters", "100", "--out", str(out)]
        assert cli.main(argv) == 0
        got[name] = _sha256(out)
    out = tmp_path / "e48.frechet"
    assert cli.main(["embed", "--input", str(tmp_path / "e48.json"), "--out", str(out)]) == 0
    got["embed e48.json"] = _sha256(out)
    # Transport outputs: a 40-point functional on the float CSV space, and a
    # 12-point one on an exact 32-point JSON space.
    exact32 = random_space(32, 7)
    (tmp_path / "e32.json").write_text(json.dumps(
        {"labels": list(exact32.labels), "dist": [[exact_repr(v) for v in row] for row in exact32.dist]}
    ))
    for name, space, support, commands in (
        ("f66.csv", floats, 40, ("coupling", "decompose")),
        ("e32.json", exact32, 12, ("coupling", "potential")),
    ):
        phi = tmp_path / f"{name}.phi.json"
        phi.write_text(json.dumps({"coeffs": {
            space.labels[i]: f"{(-1) ** i * (i % 5 + 1)}/{i % 3 + 1}" for i in range(1, support + 1)
        }}))
        for command in commands:
            out = tmp_path / f"{name}.{command}"
            argv = [command, "--input", str(tmp_path / name), "--functional", str(phi), "--out", str(out)]
            assert cli.main(argv) == 0
            got[f"{command} {name}"] = _sha256(out)
    assert got == _PINNED


def test_non_finite_distance_in_exact_mode_names_its_cell(capsys, tmp_path, line_files):
    _, phi = line_files
    space = tmp_path / "inf.json"
    space.write_text('{"labels": ["0", "a", "b"], "dist": [[0, 1, 2], [1, 0, Infinity], [2, Infinity, 0]]}')
    assert cli.main(["norm", "--input", str(space), "--functional", str(phi), "--exact"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "NonFiniteDistance", "message": "dist[1][2] is not finite", "witness": [1, 2]
    }


@pytest.mark.parametrize("command", ["norm", "potential", "decompose"])
def test_answer_past_float_range_is_input_error(capsys, tmp_path, line_files, command):
    # Exact mode takes any integer coefficient; the answer cannot be a JSON float.
    space, _ = line_files
    phi = tmp_path / "big.json"
    phi.write_text(f'{{"coeffs": {{"a": {10**400}}}}}')
    assert cli.main([command, "--input", str(space), "--functional", str(phi)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"]["type"] == "OutOfRange"
