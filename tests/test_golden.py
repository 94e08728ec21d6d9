"""The golden CLI corpus of ``golden_cases`` under pytest.

After a deliberate change of output, record the corpus again with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden``.
"""

from __future__ import annotations

import json
import os
import re
import shlex
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


RECORDED_CODES = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "name", sorted(n for n, argv in CASES.items() if "--json" in argv and RECORDED_CODES[n] == 0)
)
def test_recorded_json_is_canonical(name):
    """A successful ``--json`` case is recorded as what ``json.dumps(indent=2,
    sort_keys=True)`` prints, so a re-recording cannot change the format
    unnoticed; ``test_golden`` holds the live output to these bytes."""
    out = recorded(name)[1]
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_corpus_covers_every_subcommand_and_exit_code():
    """Each subcommand has a recorded text case and a recorded ``--json``
    case that succeed, and the corpus records exit codes 0, 2 and 3."""
    codes = RECORDED_CODES
    succeeding = {(argv[0], "--json" in argv) for name, argv in CASES.items() if codes[name] == 0}
    subcommands = ("check", "symmetry", "enumerate", "fermat", "bound")
    assert succeeding == {(cmd, as_json) for cmd in subcommands for as_json in (False, True)}
    assert {0, 2, 3} <= set(codes.values())


def _readme_commands() -> dict[str, str]:
    """{golden case: command} from the README's table of headline commands."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.partition("## Reproducing the headline numbers")[2].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(wph [^`]*)` \| `(\w+)` \|", section, re.M)
    return {case: command for command, case in rows}


README_COMMANDS = _readme_commands()


def test_readme_lists_headline_commands():
    assert {"symmetry_klein_text", "check_flagship_text"} <= set(README_COMMANDS)


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_command_is_the_golden_argv(name):
    """Each command the README lists runs exactly its golden case's argv, so
    the recorded output is what the reader sees."""
    assert shlex.split(README_COMMANDS[name]) == ["wph", *CASES[name]]


def test_corpus_has_no_stray_files():
    stems = {p.stem for p in GOLDEN.glob("*.out")} | {p.stem for p in GOLDEN.glob("*.err")}
    assert stems <= set(CASES)


@pytest.mark.parametrize("name", sorted(n for n, argv in CASES.items() if "--json" in argv))
def test_json_cases_never_call_json_dumps(name, in_golden, monkeypatch):
    """Every leaf of the corpus's payloads is written without ``json.dumps``."""
    real = json.dumps
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counted)
    assert invoke(CASES[name]) == recorded(name)
    assert calls == []


@pytest.mark.parametrize(
    "name", ["fermat_curve_text", "check_flagship_json", "symmetry_large_json"]
)
def test_module_entry_point(name):
    """``python -m wph.cli`` runs ``main`` and exits with its code; the
    ``--json`` writer gives the recorded bytes on a real stdout."""
    done = run_module(CASES[name], subprocess.PIPE)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", ["check_flagship_json", "enumerate_cy_curves_text"])
def test_closed_stdout_pipe_exits_1_quietly(name):
    """A reader that is gone (``wph ... | head -1``) ends the command with
    exit code 1 and nothing on stderr, not a ``BrokenPipeError`` traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_module(CASES[name], write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


def run_module(argv, stdout) -> subprocess.CompletedProcess:
    """``python -m wph.cli`` on ``argv`` in the corpus directory, stderr captured."""
    import wph

    env = dict(os.environ, COLUMNS="80")
    env.pop("WPH_JORDAN_TABLE", None)
    src = str(Path(wph.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "wph.cli", *argv],
        cwd=GOLDEN, env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=60,
    )


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
