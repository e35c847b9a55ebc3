"""The package runs on the standard library and numpy alone: every module
under src/taikoforge imports nothing else but the package itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "taikoforge"
MODULES = sorted(PACKAGE.rglob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "taikoforge"}


def foreign_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports in ``source`` that are
    neither standard library, numpy nor the package."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - ALLOWED


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"__init__.py", "audio.py", "cli.py", "neural.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_imports_only_stdlib_numpy_and_the_package(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == set()


def test_foreign_imports_are_found_wherever_they_are():
    source = "import os, scipy.signal\nfrom . import audio\ndef f():\n    from torch import nn\n    import numpy.linalg\n"
    assert foreign_imports(source) == {"scipy", "torch"}
