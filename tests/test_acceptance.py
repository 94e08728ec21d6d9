"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
tolerance here is exact (integer or rational equality); the only numeric
budgets are the stated wall-clock limits.
"""

import random
import time
from functools import wraps
from itertools import combinations_with_replacement

from wph import (
    CanonicalKind,
    HypersurfaceFamily,
    IntMatrix,
    JordanTable,
    PolynomialSupport,
    SearchConstraints,
    WeightSystem,
    curve_bound,
    distinguished_minor,
    enumerate_families,
    euler_check,
    fermat_support,
    fixing_group,
    forced_central_group,
    genericity_condition,
    integer_determinant,
    is_linear_cone,
    is_well_formed,
    lin_diagonal_order,
    lin_finiteness,
    lin_order_bound,
    quasismooth_exists,
    smith_normal_form,
)
from wph.bounds import Finiteness

from conftest import (
    count_fixing_tuples,
    monomial_witness_oracle,
    oracles,
    random_finite_support,
    random_weighted_polynomial,
)


def criterion(number, description, time_limit=None):
    def decorate(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} ({description}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            if time_limit is not None and elapsed > time_limit:
                print(
                    f"[acceptance] criterion {number} ({description}): FAIL "
                    f"(time {elapsed:.2f}s > {time_limit}s)"
                )
                raise AssertionError(
                    f"criterion {number} exceeded its {time_limit}s budget: {elapsed:.2f}s"
                )
            print(
                f"[acceptance] criterion {number} ({description}): PASS "
                f"({elapsed:.2f}s)"
            )

        return wrapper

    return decorate


@criterion(1, "Klein quartic symmetry and curve bound", time_limit=1.0)
def test_c1_klein_quartic():
    fam = HypersurfaceFamily([1, 1, 1], 4)
    support = PolynomialSupport(fam, [[1, 3, 0], [0, 1, 3], [3, 0, 1]])
    assert fixing_group(support).order == 28
    assert lin_diagonal_order(support) == 7
    minor = distinguished_minor(support)
    assert minor.determinant == 28
    assert minor.determinant <= fam.degree ** 3 // fam.weight_product == 64
    cb = curve_bound(fam)
    assert cb.bound == 96
    assert [(e.name, e.order) for e in cb.exceptions] == [("Klein quartic", 168)]


@criterion(2, "Fermat diagonal law for 1<=n<=3, 3<=d<=6", time_limit=5.0)
def test_c2_fermat_diagonal_law():
    for n in range(1, 4):
        for d in range(3, 7):
            support = fermat_support(n, d)
            assert lin_diagonal_order(support) == d ** (n + 1), (n, d)
            if n <= 2 and d <= 4:
                # brute force over tuples of d-th roots of unity
                assert count_fixing_tuples(support.rows, d) == d ** (n + 2), (n, d)


@criterion(3, "flagship family (36,31,30,25; 180)", time_limit=1.0)
def test_c3_flagship_family():
    fam = HypersurfaceFamily([36, 31, 30, 25], 180)
    assert is_well_formed(fam.weights)
    assert quasismooth_exists(fam).exists
    fin = lin_finiteness(fam)
    assert fin.finite and fin.reason is Finiteness.DEG_ABOVE_TWICE_MAX
    assert genericity_condition(fam)
    forced = forced_central_group(fam)
    assert forced.finite and forced.order == 5
    bound = lin_order_bound(fam, JordanTable())
    assert bound.floor == 6
    assert bound.floor >= forced.order


@criterion(4, "elliptic census with saturation", time_limit=1.0)
def test_c4_elliptic_census():
    def run(max_degree):
        families = enumerate_families(
            SearchConstraints(
                dimension=1,
                canonical_kind=CanonicalKind.CALABI_YAU,
                max_degree=max_degree,
            )
        )
        return [(f.degree, f.weights.canonical) for f in families]

    expected = [(3, (1, 1, 1)), (4, (2, 1, 1)), (6, (3, 2, 1))]
    assert run(30) == expected
    assert run(60) == expected


@criterion(5, "K3 census of 95 families with saturation", time_limit=300.0)
def test_c5_k3_census():
    def run(max_degree):
        families = enumerate_families(
            SearchConstraints(
                dimension=2,
                canonical_kind=CanonicalKind.CALABI_YAU,
                max_degree=max_degree,
            )
        )
        return [(f.degree, f.weights.canonical) for f in families]

    at_300 = run(300)
    assert len(at_300) == 95
    assert run(400) == at_300


@criterion(6, "weighted Euler identity on 200 random polynomials")
def test_c6_euler_identity_suite():
    rng = random.Random(61803)
    for _ in range(200):
        f = random_weighted_polynomial(rng, max_vars=5, max_weight=9, max_degree=40)
        assert euler_check(f)


@criterion(7, "minor determinant window and loop-matrix closed form")
def test_c7_minor_determinant_suite():
    rng = random.Random(27182)
    for _ in range(500):
        fam, support = random_finite_support(rng)
        minor = distinguished_minor(support)
        m = len(fam.weights)
        assert 0 < minor.determinant
        assert minor.determinant * fam.weight_product <= fam.degree ** m
    # Loop matrices: diagonal b, and 1 at (i, i + 1 mod m), on the diagonal when m = 1.
    for m in range(1, 7):
        for diag in combinations_with_replacement(range(1, 6), m):
            rows = [
                [b * (j == i) + (j == (i + 1) % m) for j in range(m)] for i, b in enumerate(diag)
            ]
            prod = 1
            for b in diag:
                prod *= b
            assert integer_determinant(IntMatrix.from_rows(rows)) == prod + (-1) ** (m + 1)


@criterion(8, "Smith normal form against root-of-unity counting")
def test_c8_snf_oracle_suite():
    rng = random.Random(16180)
    cases = 0
    brute_checked = 0
    while cases < 2000:
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        m = IntMatrix(
            rows, cols, tuple(rng.randint(-4, 4) for _ in range(rows * cols))
        )
        dec = smith_normal_form(m)
        assert dec.U @ m @ dec.V == dec.D
        assert abs(oracles.cofactor_determinant(dec.U.to_rows())) == 1
        assert abs(oracles.cofactor_determinant(dec.V.to_rows())) == 1
        factors = dec.invariant_factors
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        order = 1
        for f in factors:
            order *= f
        if len(factors) == cols and order <= 200:
            exponent = factors[-1] if factors else 1
            assert count_fixing_tuples(m.to_rows(), exponent) == order
            brute_checked += 1
        cases += 1
    assert brute_checked >= 200


@criterion(9, "criterion cross-validation on 3-4 weights", time_limit=30.0)
def test_c9_criterion_cross_validation():
    for length in (3, 4):
        for ws in combinations_with_replacement(range(1, 11), length):
            weights = tuple(reversed(ws))
            for d in range(1, 41):
                fam = HypersurfaceFamily(weights, d)
                fin = lin_finiteness(fam)
                mx = weights[0]
                expected_finite = d > 2 * mx or (
                    d == 2 * mx and weights.count(mx) == 1
                )
                assert fin.finite == expected_finite, (weights, d)
                if is_linear_cone(fam):
                    continue
                report = quasismooth_exists(fam, diagnostics=True)
                failing_singletons = {
                    s.subset[0] for s in report.failing_subsets if len(s.subset) == 1
                }
                for i in range(length):
                    has_witness = monomial_witness_oracle(weights, d, i)
                    assert (i not in failing_singletons) == has_witness, (
                        weights,
                        d,
                        i,
                    )
