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
