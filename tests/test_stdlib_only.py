"""The library imports nothing outside the standard library, as README says."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wph"


def absolute_imports() -> dict[str, str]:
    """Top-level module of every absolute import in the package -> first file."""
    found: dict[str, str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], path.name)
    return found


def test_library_imports_only_the_standard_library():
    found = absolute_imports()
    assert {"fractions", "re", "typing"} <= set(found)
    outside = {name: file for name, file in found.items() if name not in sys.stdlib_module_names}
    assert not outside, outside
