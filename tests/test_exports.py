"""The public names: every ``__all__`` entry resolves, and the package
re-exports only names its modules list.  The benchmark's tracer wraps each
``__all__`` entry it finds and skips a missing one without a word, so a stale
name would otherwise go unnoticed."""
import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import chaoslimits

MODULES = ["chaos", "targets", "diagnostics", "simulate", "io"]


@pytest.mark.parametrize("short", MODULES)
def test_every_listed_name_resolves(short):
    module = importlib.import_module(f"chaoslimits.{short}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_imports_only_listed_names():
    tree = ast.parse(pathlib.Path(chaoslimits.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert sorted(node.module for node in imports) == sorted(MODULES)
    for node in imports:
        listed = importlib.import_module(f"chaoslimits.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in listed] == [], node.module


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about half a second to import and no program path needs it
    code = "import sys, chaoslimits.cli; sys.exit('scipy.stats' in sys.modules)"
    src = pathlib.Path(chaoslimits.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
