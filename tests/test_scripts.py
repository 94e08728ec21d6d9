"""Smoke tests of the scripts under ``scripts/``, run in-process."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch, capsys) -> str:
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_headline_checks(monkeypatch, capsys):
    out = run_script("headline_checks.py", [], monkeypatch, capsys)
    assert "MISMATCH" not in out
    assert "fixing group order: 28 (expect 28)" in out
    assert "diagonal symmetry mod scalars: 7 (expect 7)" in out
    assert "forced central subgroup order: 5 (expect 5)" in out
    assert out.count(" ok\n") == 9


def test_run_census(monkeypatch, capsys):
    out = run_script(
        "run_census.py", ["--dim", "1", "--max-degree", "30", "--quiet"], monkeypatch, capsys
    )
    assert out.startswith("# dimension 1, max degree 30: 3 families in ")
    assert out.count("\n") == 1


def test_run_census_saturation(monkeypatch, capsys):
    out = run_script(
        "run_census.py",
        ["--dim", "2", "--max-degree", "100", "--saturation-degree", "120", "--quiet"],
        monkeypatch,
        capsys,
    )
    first, second = out.splitlines()
    assert first.startswith("# dimension 2, max degree 100: 95 families in ")
    assert second.startswith("# saturation at max degree 120: 95 families in ")
    assert second.endswith("(unchanged)")
