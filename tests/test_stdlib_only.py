"""The library imports only the standard library and its own modules."""

from __future__ import annotations

import ast
import pathlib
import sys

import pytest

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cf2"


def _foreign_imports(source: str) -> list[str]:
    """Absolute imports of a module's source outside the standard library."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    assert _foreign_imports(path.read_text()) == []


def test_a_foreign_import_is_caught():
    source = "import math\nfrom . import gf2poly\nimport numpy.linalg\n"
    assert _foreign_imports(source) == ["numpy.linalg"]
