"""The benchmark's own tests: every answer check catches a wrong answer.

    python3 -m pytest bench/test_checks.py -q

Each test takes a real answer from the program, shows that the check passes
it, then feeds a deliberately wrong copy and shows that the check reports it.
The oracles are also compared with plain brute force on small inputs.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import load_wph, timed_loop  # noqa: E402

LIB = load_wph()
WORK = BENCH / "out" / "test-work"


@pytest.fixture(scope="module")
def workdir():
    WORK.mkdir(parents=True, exist_ok=True)
    yield WORK
    shutil.rmtree(WORK, ignore_errors=True)


def run_op(op):
    answer = op.plain(op.call())
    assert op.check(answer, workloads.Context()) == []
    return answer


def flags(op, answer, text):
    errs = op.check(answer, workloads.Context())
    assert any(text in e for e in errs), errs


# -- oracles against brute force ---------------------------------------------


def _reachable(n, gens):
    ok = [True] + [False] * n
    for k in range(1, n + 1):
        ok[k] = any(k >= g and ok[k - g] for g in gens)
    return ok[n]


def _naive_failures(ws, d):
    out = []
    for size in range(1, len(ws) + 1):
        for sub in combinations(range(len(ws)), size):
            gens = [ws[i] for i in sub]
            if _reachable(d, gens):
                continue
            wit = tuple(
                j for j in range(len(ws))
                if j not in sub and d >= ws[j] and _reachable(d - ws[j], gens)
            )
            if len(wit) < size:
                out.append((sub, False, wit, size))
    return out


def test_semigroup_matches_dynamic_programming():
    rng = random.Random(3)
    cache = oracles.SemigroupCache()
    for _ in range(300):
        gens = tuple(sorted({rng.randint(2, 30) for _ in range(rng.randint(1, 4))}))
        n = rng.randint(0, 200)
        assert cache.contains(n, gens) == _reachable(n, gens)


def test_quasismooth_failures_match_the_plain_criterion():
    rng = random.Random(4)
    for _ in range(200):
        ws = sorted((rng.randint(1, 15) for _ in range(rng.randint(2, 5))), reverse=True)
        d = rng.randint(1, 60)
        got = oracles.quasismooth_failures(ws, d)
        assert got == (None if d in ws else _naive_failures(ws, d))


def test_small_oracles():
    assert oracles.cofactor_determinant([[2, 1, 0], [0, 3, 1], [1, 0, 4]]) == 25
    assert oracles.omit_one_gcds((6, 10, 15)) == [5, 3, 2]
    assert not oracles.is_well_formed((6, 4, 2, 1)) and oracles.is_well_formed((3, 2, 1))
    piece = oracles.graded_piece([3, 2, 1], 7)
    assert len(piece) == oracles.graded_piece_sizes([3, 2, 1], 7)[7] == 8
    assert all(3 * a + 2 * b + c == 7 for a, b, c in piece)


# -- cy_census ------------------------------------------------------------------


@pytest.fixture(scope="module")
def k3():
    op = workloads._census_op(LIB, 2, 70)
    return op, run_op(op)


def test_census_check_catches_a_missing_family(k3):
    op, answer = k3
    flags(op, answer[1:], "95")


def test_census_check_catches_order_and_duplicates(k3):
    op, answer = k3
    flags(op, answer[::-1], "canonical order")
    flags(op, answer + answer[-1:], "duplicates")


def test_census_check_catches_non_members(k3):
    op, answer = k3
    flags(op, sorted(answer[1:] + [(8, (2, 2, 2, 2))]), "not well-formed")
    flags(op, sorted(answer[1:] + [(22, (7, 7, 6, 1))]), "weight sum")
    bad = next(
        (sum(ws), ws)
        for ws in [(a, b, c, 1) for a in range(2, 30) for b in range(1, a + 1) for c in range(1, b + 1)]
        if oracles.is_well_formed(ws) and not oracles.quasismooth_exists(ws, sum(ws))
    )
    flags(op, sorted(answer[1:] + [bad]), "quasismooth criterion")
    flags(op, answer[:-1] + [(67, answer[-1][1])], "degree above 66")


def test_dim3_census_count_comes_from_the_recorded_table():
    op = workloads._census_op(LIB, 3, 30)
    answer = run_op(op)
    assert len(answer) == workloads.Context().census_count(3, 30)
    flags(op, answer[:-1], "expected")


# -- wide_qs --------------------------------------------------------------------


@pytest.fixture(scope="module")
def wide_failing():
    rng = random.Random(5)
    ws = workloads._wide_family(rng, 8, 2520, True, oracles.SemigroupCache())
    op = workloads._qs_op(LIB, ws, 2520, diagnostics=True)
    return op, run_op(op)


def test_wide_family_construction():
    rng = random.Random(6)
    for failing in (False, True):
        ws = workloads._wide_family(rng, 9, 5040, failing, oracles.SemigroupCache())
        fails = oracles.quasismooth_failures(ws, 5040)
        assert len(set(ws)) == 9 and bool(fails) == failing
        assert all(len(f[0]) >= 2 for f in fails)


def test_quasismooth_check_catches_a_wrong_verdict(wide_failing):
    op, (exists, failing) = wide_failing
    assert not exists and failing
    flags(op, (True, []), "oracle says False")


def test_quasismooth_check_catches_wrong_diagnostics(wide_failing):
    op, (exists, failing) = wide_failing
    flags(op, (exists, failing[1:] or failing + failing), "failing subsets differ")
    subset, rep, wit, req = failing[0]
    flags(op, (exists, [(subset, rep, wit + (99,), req)] + failing[1:]), "failing subsets differ")


# -- cli_sym: check -------------------------------------------------------------


def tamper(answer, edit):
    code, out, err = answer
    report = json.loads(out)
    edit(report)
    return code, json.dumps(report), err


@pytest.fixture(scope="module")
def flagship():
    ws, d, order = workloads.FLAGSHIP
    op = workloads._check_op(LIB, list(ws), d, exact_order=order)
    return op, run_op(op)


def test_check_catches_a_wrong_exact_order(flagship):
    op, answer = flagship

    def edit(r):
        r["forced_central_group"].update(order=3, invariant_factors=[3])

    flags(op, tamper(answer, edit), "expected 5")


def test_check_catches_an_order_above_the_bound_floor(flagship):
    op, answer = flagship

    def edit(r):
        r["forced_central_group"].update(order=7, invariant_factors=[7])

    flags(op, tamper(answer, edit), "above the bound floor")

    def floor(r):
        r["order_bound"]["floor"] = 7

    flags(op, tamper(answer, floor), "expected 6")


def test_check_catches_wrong_classifiers(flagship):
    op, answer = flagship

    def wf(r):
        r["well_formed"]["holds"] = False

    def qs(r):
        r["quasismooth"]["exists"] = False

    def group(r):
        r["forced_central_group"]["invariant_factors"] = [2, 3]
        r["forced_central_group"]["order"] = 6

    flags(op, tamper(answer, wf), "omit-one gcds")
    flags(op, tamper(answer, qs), "oracle")
    flags(op, tamper(answer, group), "divisibility chain")
    flags(op, (2, "", "error: boom"), "exit 2")


def test_check_catches_a_wrong_order_for_plain_projective_space():
    op = workloads._check_op(LIB, [1] * 4, 6, exact_order=1)
    answer = run_op(op)

    def edit(r):
        r["forced_central_group"].update(order=2, invariant_factors=[2])

    flags(op, tamper(answer, edit), "expected 1")


# -- cli_sym: symmetry --------------------------------------------------------


@pytest.fixture(scope="module")
def support(workdir):
    rng = random.Random(8)
    ws, d = workloads._pick_family(rng, 4, 300, oracles.SemigroupCache())
    path = workdir / "support.json"
    workloads.write_support(path, ws, d, workloads._support_rows(rng, ws, d))
    op = workloads._symmetry_op(LIB, path, ws, d)
    return op, run_op(op)


def test_symmetry_catches_a_wrong_lin_diagonal_order(support):
    op, answer = support

    def edit(r):
        r["lin_diagonal"]["order"] += 1

    flags(op, tamper(answer, edit), "times d")


def test_symmetry_catches_a_wrong_determinant(support):
    op, answer = support

    def edit(r):
        r["distinguished_minor"]["determinant"] += 1

    flags(op, tamper(answer, edit), "cofactor expansion")


def test_symmetry_catches_a_minor_outside_the_window(support):
    op, answer = support

    def edit(r):
        rows = r["distinguished_minor"]["rows"]
        rows[0], rows[1] = rows[1], rows[0]

    # Swapped rows flip the determinant's sign and break the witness shape.
    flags(op, tamper(answer, edit), "outside (0, d^(n+2)/prod(a)]")
    flags(op, tamper(answer, edit), "witness row")


def test_symmetry_catches_a_fixing_order_not_dividing_the_minor(support):
    op, answer = support
    report = json.loads(answer[1])
    det = report["distinguished_minor"]["determinant"]
    d = report["input"]["degree"]
    # A prime order that does not divide det, with lin * d kept consistent.
    p = next(q for q in range(2, 10_000) if all(q % k for k in range(2, q)) and det % (d * q))

    def edit(r):
        r["fixing_group"].update(order=d * p, invariant_factors=[d * p])
        r["lin_diagonal"]["order"] = p

    flags(op, tamper(answer, edit), "does not divide")


def test_symmetry_exact_values_for_a_whole_piece(workdir):
    path = workdir / "plain.json"
    workloads.write_support(path, [1] * 3, 5, oracles.graded_piece([1] * 3, 5))
    op = workloads._symmetry_op(LIB, path, [1] * 3, 5, exact_lin_order=1)
    answer = run_op(op)
    assert json.loads(answer[1])["fixing_group"]["order"] == 5

    def edit(r):
        r["fixing_group"].update(order=10, invariant_factors=[10])
        r["lin_diagonal"]["order"] = 2

    flags(op, tamper(answer, edit), "expected 1")


# -- the run ----------------------------------------------------------------------


def test_timed_loop_counts_failures_and_changed_answers():
    values = iter(range(100))

    def drifting():
        time.sleep(0.02)
        return next(values)

    def broken():
        raise ValueError("no answer")

    ops = [
        workloads.Op("drift", drifting, lambda x: x, lambda a, c: []),
        workloads.Op("broken", broken, lambda x: x, lambda a, c: []),
    ]
    loop = timed_loop(ops, 0.03, None)
    assert loop["rounds"] == 2 and loop["attempted"] == 4 and loop["failed"] == 2
    assert any("drift: round 2 answer differs from round 1" in e for e in loop["errors"])
    assert loop["first"] == [0, None]


# -- tracing ----------------------------------------------------------------------


def test_tracer_counts_layers_and_restores_bindings():
    original = LIB.census.quasismooth_exists
    tr = Tracer()
    tr.install()
    try:
        workloads._census_op(LIB, 2, 40).call()
    finally:
        tr.uninstall()
    assert LIB.census.quasismooth_exists is original
    m = tr.metrics(1)
    assert m["census.calls"][0] == 1
    assert m["census.candidates"][0] == m["weights.build_calls"][0] > 0
    assert 0 < m["census.hits"][0] < m["census.candidates"][0]
    assert 0 < m["census.self_ms"][0] < m["census.ms"][0]
    assert m["cli.calls"][0] == 0


def test_tracer_skips_a_missing_binding():
    tr = Tracer()
    tr._patch("wph.census", "no_such_function", "census", None)
    assert tr._patched == []
    assert tr.metrics(1)["symmetry.forced_calls"] == (0.0, "count")
