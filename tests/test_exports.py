"""The public names: every ``__all__`` entry resolves, and the package
exports exactly the names its modules list.  The benchmark's tracer wraps each
``__all__`` entry it finds and skips a missing one without a word, so a stale
name would otherwise go unnoticed."""
import importlib
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest

import chaoslimits

MODULES = ["chaos", "targets", "diagnostics", "simulate", "io"]


@pytest.mark.parametrize("short", MODULES)
def test_every_listed_name_resolves(short):
    module = importlib.import_module(f"chaoslimits.{short}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_the_modules_lists():
    # the package's __all__ is the modules' lists joined, so each name has one
    # owner; a star import binds exactly those names, no submodule (``io``
    # would shadow the stdlib), and ``simulate`` stays the function
    joined = [n for short in MODULES
              for n in importlib.import_module(f"chaoslimits.{short}").__all__]
    assert chaoslimits.__all__ == joined
    assert len(set(joined)) == len(joined)
    assert [n for n in joined if not hasattr(chaoslimits, n)] == []
    namespace = {}
    exec("from chaoslimits import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(joined)
    assert not [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]
    assert chaoslimits.simulate is importlib.import_module("chaoslimits.simulate").simulate


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about half a second to import and no program path needs it
    code = "import sys, chaoslimits.cli; sys.exit('scipy.stats' in sys.modules)"
    src = pathlib.Path(chaoslimits.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_readme_quick_start_runs(tmp_path):
    # the README's Python block, star import included, in a fresh process;
    # the trend it quotes is the one it prints
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    [block] = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    src = pathlib.Path(chaoslimits.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", block],
                         env=env, cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert f"# {run.stdout.splitlines()[1]}\n" in block
