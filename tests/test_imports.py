"""``import lipfree`` loads no solver module; each public name loads its own
submodule the first time it is read."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lipfree

SRC = str(Path(lipfree.__file__).resolve().parent.parent)
SOLVERS = ("transport", "monotonicity", "weighting", "embedding", "exotic")


def loaded_after(code):
    """The lipfree submodules loaded once ``code`` has run in a fresh interpreter."""
    script = f"{code}\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('lipfree.')))"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {m.split(".", 1)[1] for m in proc.stdout.split()}


def test_import_loads_no_solver_module():
    assert not loaded_after("import lipfree") & set(SOLVERS)


def test_a_name_loads_only_its_own_layers():
    loaded = loaded_after("import lipfree\nlipfree.check_cyclically_monotone")
    assert "monotonicity" in loaded and "transport" not in loaded
    loaded = loaded_after("import lipfree\nlipfree.optimal_coupling")
    assert "transport" in loaded and not loaded & {"monotonicity", "embedding", "exotic"}


def test_star_import_loads_every_module():
    assert loaded_after("from lipfree import *") >= set(SOLVERS)


def test_submodule_attribute_before_any_export():
    loaded = loaded_after("import lipfree\nassert lipfree.metric.validate_metric([[0, 1], [1, 0]]).n == 2")
    assert "metric" in loaded and not loaded & set(SOLVERS)


def test_every_export_is_its_submodules_object():
    for name in lipfree.__all__:
        module = importlib.import_module(f"lipfree.{lipfree._MODULE_OF[name]}")
        assert getattr(lipfree, name) is getattr(module, name), name


def test_dir_lists_every_export_and_submodule():
    listed = set(dir(lipfree))
    assert set(lipfree.__all__) <= listed and set(SOLVERS) <= listed
    assert len(lipfree.__all__) == len(set(lipfree.__all__))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lipfree.no_such_name


def test_cli_import_loads_no_solver_module():
    assert loaded_after("import lipfree.cli") == {"cli", "io", "metric", "numerics", "errors"}


LINE = '{"labels": ["0", "a", "b"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}'


@pytest.mark.parametrize("argv, solver", [
    *((f"{cmd} --input s.json --functional phi.json", "transport")
      for cmd in ("norm", "coupling", "potential", "decompose")),
    ("check-monotone --input s.json --pairs pairs.json", "monotonicity"),
    ("embed --input s.json", "embedding"),
    ("embed --input s.json --dim 1 --iters 5", "embedding"),
    ("gen-exotic --N 4", "exotic"),
])
def test_each_command_loads_only_its_own_solver(tmp_path, argv, solver):
    (tmp_path / "s.json").write_text(LINE)
    (tmp_path / "phi.json").write_text('{"coeffs": {"a": 1}}')
    (tmp_path / "pairs.json").write_text('{"pairs": [["a", "b"], ["b", "a"]]}')
    argv = [*argv.split(), "--out", "out"]
    code = f"import os\nos.chdir({str(tmp_path)!r})\nfrom lipfree.cli import main\nassert main({argv!r}) in (0, 1)"
    assert loaded_after(code) & set(SOLVERS) == {solver}


def test_every_cli_solver_is_its_modules_object():
    from lipfree import cli

    for name in cli._SOLVERS:
        module = importlib.import_module(f"lipfree.{lipfree._MODULE_OF[name]}")
        assert getattr(cli, name) is getattr(module, name), name


@pytest.mark.parametrize("name", ["no_such_name", "free_norm"])
def test_unknown_cli_name_is_attribute_error(name):
    from lipfree import cli

    with pytest.raises(AttributeError, match=f"'lipfree.cli' has no attribute '{name}'"):
        getattr(cli, name)


def test_tracer_leaves_the_cli_solvers_unwrapped():
    """``benchmarks/tracing.py`` wraps ``lipfree.transport.optimal_coupling``
    before it reads ``lipfree.cli.optimal_coupling``; after ``uninstall``
    each name is the defining module's function again, not a wrapper."""
    bench = str(Path(__file__).resolve().parent.parent / "benchmarks")
    loaded_after(
        f"import importlib, sys\nsys.path.insert(0, {bench!r})\nimport lipfree, lipfree.cli as cli, tracing\n"
        "tracer = tracing.Tracer()\ntracer.install()\ntracer.uninstall()\n"
        "for name in cli._SOLVERS:\n"
        "    module = importlib.import_module('lipfree.' + lipfree._MODULE_OF[name])\n"
        "    assert getattr(cli, name) is getattr(module, name), name\n"
    )
