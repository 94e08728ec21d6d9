"""The library and the oracle module import nothing outside the standard
library, as README says, and the oracles import nothing from ``wph``."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wph"
ORACLES = ROOT / "bench" / "oracles.py"


def absolute_imports(paths) -> dict[str, str]:
    """Top-level module of every absolute import in the files -> first file."""
    found: dict[str, str] = {}
    for path in sorted(paths):
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


def outside_stdlib(found: dict[str, str]) -> dict[str, str]:
    return {name: file for name, file in found.items() if name not in sys.stdlib_module_names}


def test_library_imports_only_the_standard_library():
    found = absolute_imports(PACKAGE.glob("*.py"))
    assert {"fractions", "re", "typing"} <= set(found)
    assert not outside_stdlib(found)


def test_oracles_import_only_the_standard_library():
    # Tier-1 and the benchmark both trust these oracles because they share
    # no code with the library they check.
    found = absolute_imports([ORACLES])
    assert {"heapq", "math"} <= set(found)
    assert "wph" not in found
    assert not outside_stdlib(found)
