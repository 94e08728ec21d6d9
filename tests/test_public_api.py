"""README's "Library API" section names every export of ``wph``, once, under
the module that defines it."""

from __future__ import annotations

import ast
import importlib
import re
import types
from pathlib import Path

import wph

README = Path(__file__).resolve().parent.parent / "README.md"


def exports() -> set[str]:
    return {
        name
        for name, value in vars(wph).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def documented() -> list[tuple[str | None, str]]:
    """(module heading, name) for each name that opens a bullet of the section.

    A bullet opens with its names and a colon, ``- `a`, `b`: what they are``,
    or is a name alone; its indented lines continue it.
    """
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    bullets, module = [], None
    for line in section.splitlines():
        heading = re.fullmatch(r"### `(wph\.\w+)`", line)
        if heading:
            module = heading.group(1)
        elif line.startswith("- "):
            bullets.append([module, line[2:]])
        elif line.startswith("  ") and bullets:
            bullets[-1][1] += " " + line.strip()
    found = []
    for module, body in bullets:
        names = re.match(r"(`\w+`(?:, `\w+`)*)(?::|$)", body)
        assert names, f"bullet without leading names: {body!r}"
        found += [(module, name) for name in re.findall(r"`(\w+)`", names.group(1))]
    return found


def defined_names(module: str) -> set[str]:
    """Names a module binds at top level by a def, class or assignment."""
    tree = ast.parse(Path(importlib.import_module(module).__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_section_names_every_export_once():
    names = [name for _, name in documented()]
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert sorted(exports() - set(names)) == []
    assert sorted(set(names) - exports()) == []


def test_names_sit_under_their_defining_module():
    misplaced = [
        (module, name)
        for module, name in documented()
        if module is None or name not in defined_names(module)
    ]
    assert misplaced == []
