"""Golden CLI corpus: exit code, stdout and stderr of fixed invocations.

Each case runs ``wph.cli.main`` in-process from inside ``tests/golden`` (so
support files are named by relative paths) and compares the three results
byte for byte with the files recorded there: ``<case>.out`` and
``<case>.err`` (absent when empty) and ``exit_codes.json``. The corpus
covers every subcommand in text and ``--json`` mode, a support of more than
1024 rows, a support with coefficients, and each error class: validation
errors (exit 2), resource caps (exit 3), usage errors from argparse, and
integers too long to read (exit 2) or to print (exit 3).

This module needs nothing but the standard library and ``wph``. Running it
replays the corpus on any supported Python, names each case that differs
and exits 1 if there is one:

    PYTHONPATH=src python tests/golden_cases.py

``tests/test_golden.py`` runs the same cases under pytest and records them.

The corpus is the one record of the CLI's output: a command recorded here
gets no second test in ``tests/test_cli.py``, which keeps only what the
corpus cannot express (monkeypatched work counts, out-of-memory and
internal errors, ``WPH_JORDAN_TABLE``, parametrized malformed inputs, the
JSON writer's property tests, and unrecorded commands). After a deliberate
change of output, record the corpus again with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden``.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

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
    "symmetry_coefficients_text": ["symmetry", "inputs/klein_coefficients.json"],
    "symmetry_rank_deficient_json": ["symmetry", "inputs/rank_deficient.json", "--json"],
    "symmetry_common_factor_json": ["symmetry", "inputs/common_factor.json", "--json"],
    "symmetry_no_witness_text": ["symmetry", "inputs/no_witness.json"],
    "symmetry_ascending_piece_json": ["symmetry", "inputs/ascending_piece.json", "--json"],
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
    # text mode: the curve bound with the Klein exception, an infinite family,
    # an infinite forced group and an unavailable scalar quotient
    "bound_klein_family_text": ["bound", "--weights", "1,1,1", "--degree", "4"],
    "bound_infinite_text": ["bound", "--weights", "3,3,1,1", "--degree", "6"],
    "check_linear_cone_text": ["check", "--weights", "5,5,4,4", "--degree", "5"],
    "symmetry_common_factor_text": ["symmetry", "inputs/common_factor.json"],
    # a table file supplies the GL_3 entry; 7,1,1,1 gives proper fractions
    "check_jordan_table_text": [
        "check", "--weights", "1,1,1", "--degree", "4", "--jordan-table", "inputs/jordan.txt",
    ],
    "check_jordan_table_json": [
        "check", "--weights", "1,1,1", "--degree", "4", "--jordan-table", "inputs/jordan.txt",
        "--json",
    ],
    "bound_jordan_table_text": [
        "bound", "--weights", "7,1,1,1", "--degree", "15", "--jordan-table", "inputs/jordan.txt",
    ],
    "bound_jordan_table_json": [
        "bound", "--weights", "7,1,1,1", "--degree", "15", "--jordan-table", "inputs/jordan.txt",
        "--json",
    ],
    "check_p5_degree_20_json": [
        "check", "--weights", "1,1,1,1,1,1", "--degree", "20", "--json",
    ],
    # fails only at subsets of two or more weights, some with outside witnesses
    "check_subset_failures_json": [
        "check", "--weights", "9,9,9,6,5,2", "--degree", "32", "--json",
    ],
    "check_subset_failures_text": ["check", "--weights", "11,9,8,6,3,3", "--degree", "17"],
    # nontrivial forced groups besides the flagship: unsorted weights, and text mode
    "check_forced_order_two_unsorted_json": [
        "check", "--json", "--weights", "4,9,6,7", "--degree", "18",
    ],
    "check_forced_order_two_text": ["check", "--weights", "13,10,9,6", "--degree", "36"],
    # the 95 K3 families and the CY threefolds up to degree 40
    "enumerate_k3_json": [
        "enumerate", "--dim", "2", "--canonical", "cy", "--max-degree", "100", "--json",
    ],
    "enumerate_cy_threefolds_json": [
        "enumerate", "--dim", "3", "--canonical", "cy", "--max-degree", "40", "--json",
    ],
    "enumerate_cy_max_weight_json": [
        "enumerate", "--dim", "2", "--canonical", "cy", "--max-degree", "100",
        "--max-weight", "12", "--json",
    ],
    "enumerate_cy_no_quasismooth_text": [
        "enumerate", "--dim", "1", "--canonical", "cy", "--max-degree", "20",
        "--no-quasismooth",
    ],
    "enumerate_cy_no_well_formed_text": [
        "enumerate", "--dim", "1", "--canonical", "cy", "--max-degree", "12",
        "--no-well-formed",
    ],
    "enumerate_fano_max_weight_text": [
        "enumerate", "--dim", "1", "--canonical", "fano", "--max-degree", "12",
        "--max-weight", "5",
    ],
    "enumerate_general_max_weight_json": [
        "enumerate", "--dim", "1", "--canonical", "general", "--max-degree", "14",
        "--max-weight", "4", "--json",
    ],
    "enumerate_fano_linear_cones_text": [
        "enumerate", "--dim", "1", "--canonical", "fano", "--max-degree", "10",
        "--max-weight", "4", "--allow-linear-cones",
    ],
    "enumerate_filters_off_text": [
        "enumerate", "--dim", "1", "--max-degree", "8", "--max-weight", "3",
        "--no-quasismooth", "--allow-linear-cones",
    ],
    # exit 2: validation errors
    "error_degree_mismatch": ["symmetry", "inputs/degree_mismatch.json", "--json"],
    "error_bool_weights": ["symmetry", "inputs/bool_weights.json", "--json"],
    "error_monomials_not_list": ["symmetry", "inputs/monomials_not_list.json"],
    "error_row_not_sequence": ["symmetry", "inputs/row_not_sequence.json"],
    "error_missing_field": ["symmetry", "inputs/missing_degree.json"],
    "error_decimal_coefficient": ["symmetry", "inputs/decimal_coefficient.json"],
    "error_fermat_degree": ["fermat", "--dim", "1", "--degree", "2", "--json"],
    # census bounds out of range: one line from the library's validation
    "error_enumerate_negative_dim": ["enumerate", "--dim", "-1"],
    "error_enumerate_zero_max_degree": ["enumerate", "--dim", "1", "--max-degree", "0"],
    "error_support_not_json": ["symmetry", "inputs/not_json.json"],
    "error_support_top_level_list": ["symmetry", "inputs/top_level_list.json"],
    "error_support_file_missing": ["symmetry", "missing.json"],
    "error_jordan_table_repeated_n": [
        "check", "--weights", "1,1,1", "--degree", "4", "--jordan-table",
        "inputs/jordan_repeated_n.txt",
    ],
    "error_jordan_table_pinned": [
        "check", "--weights", "1,1,1", "--degree", "4", "--jordan-table",
        "inputs/jordan_pinned.txt",
    ],
    "error_support_repeated_key": ["symmetry", "inputs/repeated_key.json", "--json"],
    # a misspelled optional key: "coefficents"
    "error_support_unknown_key": ["symmetry", "inputs/unknown_key.json", "--json"],
    "error_support_weights_not_list": ["symmetry", "inputs/weights_text.json"],
    "error_jordan_table_missing": [
        "check", "--weights", "3,1,1", "--degree", "6", "--jordan-table", "missing.txt",
    ],
    # exit 3: resource cap
    "error_candidate_cap": [
        "enumerate", "--dim", "2", "--canonical", "cy", "--max-degree", "300",
        "--max-candidates", "50", "--json",
    ],
    "error_fermat_dimension_cap": ["fermat", "--dim", "301", "--degree", "3"],
    # the pair count has millions of digits: the check stops once it passes
    "error_generic_pair_cap": [
        "enumerate", "--dim", "4000000", "--max-weight", "100000", "--max-degree", "3",
    ],
    # 1 002 weights: the variable cap, checked before the census walks them
    "error_cy_subset_variable_cap": [
        "enumerate", "--dim", "1000", "--canonical", "cy", "--max-degree", "1003",
    ],
    # integers past the interpreter's 4300-digit limit for int <-> str: an
    # input that cannot be read exits 2, a result too long to print exits 3
    "error_support_degree_too_long": ["symmetry", "inputs/degree_too_long.json"],
    "error_support_not_utf8": ["symmetry", "inputs/not_utf8.json"],
    "error_symmetry_result_too_long_json": [
        "symmetry", "inputs/pure_powers_too_long.json", "--json",
    ],
    "error_fermat_result_too_long_text": [
        "fermat", "--dim", "200", "--degree", "1" + "0" * 21,
    ],
    "error_bound_result_too_long_text": ["bound", "--weights", "7,5,3", "--degree", "9" * 2200],
    "error_bound_result_too_long_json": [
        "bound", "--weights", "7,5,3", "--degree", "9" * 2200, "--json",
    ],
    # exit 2: argparse usage errors
    "usage_missing_subcommand": [],
    "usage_unknown_flag": ["check", *FLAGSHIP, "--nope"],
    "usage_max_candidates": ["enumerate", "--dim", "1", "--max-candidates", "0"],
    "usage_degree_too_long": ["check", "--weights", "1,1,1", "--degree", "9" * 5000],
}


def invoke(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``wph.cli.main(argv)``."""
    from wph.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _read(path: Path) -> str:
    return path.read_bytes().decode("utf-8") if path.exists() else ""


def recorded(name: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr recorded for the case ``name``."""
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    return codes[name], _read(GOLDEN / f"{name}.out"), _read(GOLDEN / f"{name}.err")


def enter_golden() -> None:
    """Run from ``tests/golden`` with the environment the corpus was recorded in."""
    os.chdir(GOLDEN)
    os.environ["COLUMNS"] = "80"
    os.environ.pop("WPH_JORDAN_TABLE", None)


def main() -> int:
    enter_golden()
    failed = [name for name in sorted(CASES) if invoke(CASES[name]) != recorded(name)]
    for name in failed:
        print(f"mismatch: {name}")
    print(f"{len(CASES) - len(failed)} of {len(CASES)} golden cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
