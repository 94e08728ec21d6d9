"""Golden CLI corpus: exit code, stdout and stderr of fixed invocations.

Each case runs ``wph.cli.main`` in-process from inside ``tests/golden`` (so
support files are named by relative paths) and compares the three results
byte for byte with the files recorded there: ``<case>.out`` and
``<case>.err`` (absent when empty) and ``exit_codes.json``. The corpus
covers every subcommand in text and ``--json`` mode, a support of more than
1024 rows, a support with coefficients, and each error class: validation
errors (exit 2), a resource cap (exit 3) and usage errors from argparse.

After a deliberate change of output, record the corpus again with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

FLAGSHIP = ["--weights", "36,31,30,25", "--degree", "180"]

CASES = {
    "check_flagship_json": ["check", *FLAGSHIP, "--json"],
    "check_flagship_text": ["check", *FLAGSHIP],
    "check_not_quasismooth_json": ["check", "--weights", "1,1,3", "--degree", "5", "--json"],
    "check_not_well_formed_text": ["check", "--weights", "2,2,2,2,2", "--degree", "4"],
    "check_no_table_entry_json": ["check", "--weights", "1,1,1,1", "--degree", "5", "--json"],
    "symmetry_klein_json": ["symmetry", "inputs/klein.json", "--json"],
    "symmetry_klein_text": ["symmetry", "inputs/klein.json"],
    "symmetry_large_json": ["symmetry", "inputs/large.json", "--json"],
    "symmetry_large_text": ["symmetry", "inputs/large.json"],
    "symmetry_coefficients_json": ["symmetry", "inputs/klein_coefficients.json", "--json"],
    "symmetry_rank_deficient_json": ["symmetry", "inputs/rank_deficient.json", "--json"],
    "symmetry_common_factor_json": ["symmetry", "inputs/common_factor.json", "--json"],
    "symmetry_no_witness_text": ["symmetry", "inputs/no_witness.json"],
    "enumerate_cy_curves_json": [
        "enumerate", "--dim", "1", "--canonical", "cy", "--max-degree", "30", "--json",
    ],
    "enumerate_cy_curves_text": [
        "enumerate", "--dim", "1", "--canonical", "cy", "--max-degree", "30",
    ],
    "fermat_surface_json": ["fermat", "--dim", "2", "--degree", "4", "--json"],
    "fermat_curve_text": ["fermat", "--dim", "1", "--degree", "4"],
    "bound_klein_family_json": ["bound", "--weights", "1,1,1", "--degree", "4", "--json"],
    "bound_flagship_text": ["bound", *FLAGSHIP],
    "check_repeated_weight_json": ["check", "--weights", "2,2,2,1", "--degree", "3", "--json"],
    "check_not_quasismooth_text": ["check", "--weights", "1,1,3", "--degree", "5"],
    "check_linear_cone_json": ["check", "--weights", "5,5,4,4", "--degree", "5", "--json"],
    "bound_infinite_json": ["bound", "--weights", "3,3,1,1", "--degree", "6", "--json"],
    "bound_no_table_entry_text": ["bound", "--weights", "1,1,1,1", "--degree", "5"],
    # exit 2: validation errors
    "error_degree_mismatch": ["symmetry", "inputs/degree_mismatch.json", "--json"],
    "error_bool_weights": ["symmetry", "inputs/bool_weights.json", "--json"],
    "error_monomials_not_list": ["symmetry", "inputs/monomials_not_list.json"],
    "error_row_not_sequence": ["symmetry", "inputs/row_not_sequence.json"],
    "error_missing_field": ["symmetry", "inputs/missing_degree.json"],
    "error_fermat_degree": ["fermat", "--dim", "1", "--degree", "2", "--json"],
    # exit 3: resource cap
    "error_candidate_cap": [
        "enumerate", "--dim", "2", "--canonical", "cy", "--max-degree", "300",
        "--max-candidates", "50", "--json",
    ],
    # exit 2: argparse usage errors
    "usage_missing_subcommand": [],
    "usage_unknown_flag": ["check", *FLAGSHIP, "--nope"],
    "usage_max_candidates": ["check", *FLAGSHIP, "--max-candidates", "0"],
}


def invoke(argv):
    from wph.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _read(path: Path) -> str:
    return path.read_bytes().decode("utf-8") if path.exists() else ""


@pytest.fixture
def in_golden(monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("WPH_JORDAN_TABLE", raising=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, in_golden):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    code, out, err = invoke(CASES[name])
    assert code == codes[name]
    assert out == _read(GOLDEN / f"{name}.out")
    assert err == _read(GOLDEN / f"{name}.err")


def test_corpus_has_no_stray_files():
    recorded = {p.stem for p in GOLDEN.glob("*.out")} | {p.stem for p in GOLDEN.glob("*.err")}
    assert recorded <= set(CASES)


def record() -> None:
    os.chdir(GOLDEN)
    os.environ["COLUMNS"] = "80"
    os.environ.pop("WPH_JORDAN_TABLE", None)
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
