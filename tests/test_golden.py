"""The golden CLI corpus of ``golden_cases`` under pytest.

After a deliberate change of output, record the corpus again with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_cases import CASES, GOLDEN, enter_golden, invoke, recorded


@pytest.fixture
def in_golden(monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("WPH_JORDAN_TABLE", raising=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, in_golden):
    assert invoke(CASES[name]) == recorded(name)


def test_corpus_has_no_stray_files():
    stems = {p.stem for p in GOLDEN.glob("*.out")} | {p.stem for p in GOLDEN.glob("*.err")}
    assert stems <= set(CASES)


def test_module_entry_point():
    """``python -m wph.cli`` runs ``main`` and exits with its code."""
    import wph

    env = dict(os.environ, COLUMNS="80")
    env.pop("WPH_JORDAN_TABLE", None)
    src = str(Path(wph.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "wph.cli", *CASES["fermat_curve_text"]],
        cwd=GOLDEN, env=env, capture_output=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / "fermat_curve_text.out").read_bytes()


def record() -> None:
    enter_golden()
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out, err = invoke(argv)
        for suffix, text in ((".out", out), (".err", err)):
            path = GOLDEN / f"{name}{suffix}"
            if text:
                path.write_bytes(text.encode("utf-8"))
            elif path.exists():
                path.unlink()
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
