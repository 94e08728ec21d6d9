import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from wph import (
    REPRESENTABLE_TARGET_CAP,
    DimensionError,
    HypersurfaceFamily,
    IntMatrix,
    JordanEntry,
    JordanTable,
    ResourceCapError,
    SearchConstraints,
    ValidationError,
    WeightSystem,
    WeightedPolynomial,
    enumerate_monomials,
    fermat_prediction,
    fermat_support,
    integer_determinant,
    smith_normal_form,
    worst_case_constant,
)
from wph.intlinalg import _check_target_cap, _closed, invariant_factors

from conftest import oracles


def entries_gcd(m: IntMatrix) -> int:
    g = 0
    for x in m.entries:
        g = math.gcd(g, x)
    return g


def minors_gcd(m: IntMatrix, size: int) -> int:
    g = 0
    for rows in combinations(range(m.rows), size):
        for cols in combinations(range(m.cols), size):
            sub = [[m.at(i, j) for j in cols] for i in rows]
            g = math.gcd(g, oracles.cofactor_determinant(sub))
    return g


matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.integers(min_value=-9, max_value=9),
            min_size=r * c,
            max_size=r * c,
        ).map(lambda ent: IntMatrix(r, c, tuple(ent)))
    )
)


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            IntMatrix(0, 1, ())
        with pytest.raises(ValidationError):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(ValidationError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_matmul(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).to_rows() == [[2, 1], [4, 3]]
        with pytest.raises(DimensionError):
            a @ IntMatrix.from_rows([[1, 2, 3]])


class TestSmithNormalForm:
    def test_identity(self):
        identity = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        dec = smith_normal_form(identity)
        assert dec.invariant_factors == (1, 1, 1)
        assert dec.D == dec.U == dec.V == identity

    def test_diag_4_6(self):
        m = IntMatrix.from_rows([[4, 0], [0, 6]])
        dec = smith_normal_form(m)
        # Oracle: first factor is the gcd of all entries, product of the
        # factors is |det|.
        assert entries_gcd(m) == 2
        assert abs(oracles.cofactor_determinant(m.to_rows())) == 24
        assert dec.invariant_factors == (2, 12)

    def test_circulant_28(self):
        m = IntMatrix.from_rows([[1, 3, 0], [0, 1, 3], [3, 0, 1]])
        assert oracles.cofactor_determinant(m.to_rows()) == 28
        assert entries_gcd(m) == 1
        assert minors_gcd(m, 2) == 1
        dec = smith_normal_form(m)
        assert dec.invariant_factors == (1, 1, 28)

    @given(matrices)
    def test_decomposition_properties(self, m):
        dec = smith_normal_form(m)
        assert dec.U @ m @ dec.V == dec.D
        assert abs(oracles.cofactor_determinant(dec.U.to_rows())) == 1
        assert abs(oracles.cofactor_determinant(dec.V.to_rows())) == 1
        factors = dec.invariant_factors
        assert all(f > 0 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        # Diagonal beyond the factors is zero, and D has no off-diagonal junk.
        for i in range(dec.D.rows):
            for j in range(dec.D.cols):
                if i != j:
                    assert dec.D.at(i, j) == 0
                elif i >= len(factors):
                    assert dec.D.at(i, j) == 0

    @given(matrices)
    def test_factors_alone_match_the_decomposition(self, m):
        assert invariant_factors(m.to_rows()) == smith_normal_form(m).invariant_factors

    @given(matrices.filter(lambda m: m.is_square))
    def test_factor_product_is_abs_det(self, m):
        det = oracles.cofactor_determinant(m.to_rows())
        if det == 0:
            return
        dec = smith_normal_form(m)
        prod = 1
        for f in dec.invariant_factors:
            prod *= f
        assert prod == abs(det)

    @given(matrices)
    def test_deterministic(self, m):
        assert smith_normal_form(m) == smith_normal_form(m)

    def test_factors_alone_stay_in_the_memory_of_the_matrix(self):
        # The whole degree-10 piece of P(1^5): 1 001 rows spanning the
        # degree lattice {v : sum(v) = 0 mod 10}. Recording a 1001 x 1001 row
        # transform would take several MB; the rows themselves take 0.1 MB.
        rows = [list(r) for r in enumerate_monomials(WeightSystem([1] * 5), 10)]
        assert len(rows) == 1001
        tracemalloc.start()
        try:
            factors = invariant_factors(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factors == (1, 1, 1, 1, 10)
        assert peak < 1_000_000, peak


class TestDeterminant:
    def test_examples(self):
        assert integer_determinant(IntMatrix.from_rows([[3, 0, 0], [0, 3, 0], [0, 0, 3]])) == 27
        assert integer_determinant(IntMatrix.from_rows([[3, 1], [1, 3]])) == 8
        assert (
            integer_determinant(IntMatrix.from_rows([[1, 3, 0], [0, 1, 3], [3, 0, 1]]))
            == 28
        )

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            integer_determinant(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    @given(matrices.filter(lambda m: m.is_square))
    # A zero pivot: the elimination swaps rows and flips the sign.
    @example(IntMatrix.from_rows([[0, 2, 1], [3, 1, 0], [1, 0, 4]]))
    def test_matches_cofactor_oracle(self, m):
        assert integer_determinant(m) == oracles.cofactor_determinant(m.to_rows())

    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.integers(min_value=-6, max_value=6),
                    min_size=n * n,
                    max_size=n * n,
                ),
                st.lists(
                    st.integers(min_value=-6, max_value=6),
                    min_size=n * n,
                    max_size=n * n,
                ),
            ).map(
                lambda pair: (
                    IntMatrix(n, n, tuple(pair[0])),
                    IntMatrix(n, n, tuple(pair[1])),
                )
            )
        )
    )
    def test_multiplicative(self, pair):
        a, b = pair
        assert integer_determinant(a @ b) == integer_determinant(a) * integer_determinant(b)


def semigroup_mask(limit, gens):
    """Bit t set iff t is a sum of ``gens``, for t up to ``limit``, as the scan builds it."""
    full = (1 << (limit + 1)) - 1
    mask = 1
    for g in gens:
        mask = _closed(mask, g, limit, full)
    return mask


class TestRepresentability:
    def test_examples(self):
        assert (semigroup_mask(5, [2, 3]) >> 5) & 1
        assert not (semigroup_mask(4, [3]) >> 4) & 1
        assert semigroup_mask(0, [7]) == 1
        assert semigroup_mask(10, [4, 6]) == 0b10101010001

    def test_cap(self):
        _check_target_cap(REPRESENTABLE_TARGET_CAP)
        with pytest.raises(ResourceCapError, match="target 10000001 exceeds cap 10000000"):
            _check_target_cap(REPRESENTABLE_TARGET_CAP + 1)

    def test_cap_names_a_long_target_by_its_digit_count(self):
        for digits in range(9, 80):
            for limit in (10 ** (digits - 1), 10**digits - 1):
                with pytest.raises(ResourceCapError) as info:
                    _check_target_cap(limit)
                shown = str(limit) if digits <= 20 else f"of {digits} digits"
                assert str(info.value) == (
                    f"representability target {shown} exceeds cap {REPRESENTABLE_TARGET_CAP}"
                )

    def test_exhaustive_against_coin_oracle(self):
        values = range(1, 13)
        semigroups = oracles.SemigroupCache()
        for size in range(1, 5):
            for gens in combinations(values, size):
                mask = semigroup_mask(60, gens)
                for target in range(61):
                    expected = semigroups.contains(target, gens)
                    assert bool((mask >> target) & 1) == expected, (target, gens)

    def test_duplicate_generators_collapse(self):
        assert semigroup_mask(20, [3, 3, 5]) == semigroup_mask(20, [3, 5])

    @given(
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=120),
        st.randoms(use_true_random=False),
    )
    def test_generator_order_is_irrelevant(self, gens, limit, rng):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert semigroup_mask(limit, shuffled) == semigroup_mask(limit, gens)

    @given(
        st.integers(min_value=0, max_value=1 << 40),
        st.integers(min_value=1, max_value=70),
        st.integers(min_value=0, max_value=40),
    )
    def test_closure_stays_under_the_limit(self, mask, g, limit):
        full = (1 << (limit + 1)) - 1
        closed = _closed(mask & full, g, limit, full)
        assert closed & ~full == 0
        assert closed & mask & full == mask & full
        # Closed already: one more g changes nothing.
        assert _closed(closed, g, limit, full) == closed
        assert (closed << g) & full & ~closed == 0


@pytest.mark.parametrize(
    "call, args",
    [
        (fermat_prediction, (2.9, 4.2)),
        (fermat_prediction, (True, 4)),
        (fermat_support, (2, 4.0)),
        (fermat_support, ("2", 4)),
        (worst_case_constant, (True, JordanTable())),
        (worst_case_constant, (2.0, JordanTable())),
        (WeightSystem, ([2, 2.5],)),
        (HypersurfaceFamily, ([1, 1], 2.0)),
        (enumerate_monomials, (WeightSystem([1, 1]), 2.0)),
    ],
    ids=[
        "fermat_prediction-(2.9, 4.2)",
        "fermat_prediction-(True, 4)",
        "fermat_support-(2, 4.0)",
        "fermat_support-('2', 4)",
        "worst_case_constant-(True, JordanTable())",
        "worst_case_constant-(2.0, JordanTable())",
        "WeightSystem-([2, 2.5],)",
        "HypersurfaceFamily-([1, 1], 2.0)",
        "enumerate_monomials-(WeightSystem([1, 1]), 2.0)",
    ],
)
def test_primitives_reject_non_integers(call, args):
    with pytest.raises(ValidationError, match="must be an integer"):
        call(*args)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SearchConstraints(dimension=1, max_weight=0), "max_weight must be >= 1"),
        (lambda: SearchConstraints(dimension=1, candidate_cap=0), "candidate_cap must be >= 1"),
        (lambda: JordanTable({0: JordanEntry(360, "fixture")}), "key must be >= 1"),
        (lambda: worst_case_constant(-1, JordanTable()), "dimension must be >= 0"),
        (lambda: IntMatrix.from_rows([]), "at least one row"),
        (lambda: enumerate_monomials(WeightSystem([1, 1]), -1), "degree must be nonnegative"),
        (
            lambda: WeightedPolynomial([1, 1], -1, [(1, (1, 1))]),
            "polynomial degree must be nonnegative",
        ),
        (lambda: fermat_support(0, 3), "Fermat support needs n >= 1"),
        (lambda: WeightSystem(5), "weights must be an iterable of integers"),
        (lambda: WeightSystem([0, 1]), r"weights must be positive, got \(0, 1\)"),
        (lambda: HypersurfaceFamily([1, 1], 0), "degree must be positive, got 0"),
    ],
    ids=[
        "max_weight-0", "candidate_cap-0", "table-key-0", "worst_case-dim-minus-1",
        "from_rows-empty", "enumerate_monomials-degree-minus-1",
        "polynomial-degree-minus-1", "fermat_support-dim-0", "weights-int",
        "weights-zero", "family-degree-0",
    ],
)
def test_out_of_range_arguments_rejected(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: IntMatrix(2, 2, (2.5, 1, 0, 1)),
        lambda: IntMatrix(1, 1, (Fraction(4, 2),)),
        lambda: IntMatrix.from_rows([[2, True]]),
        lambda: IntMatrix.from_rows([[1, "2"]]),
        lambda: IntMatrix.from_rows([[1.5]]),
        lambda: IntMatrix(1, 1, ("3",)),
        lambda: IntMatrix(2.0, 1, (1, 2)),
        lambda: IntMatrix(1, "2", (1, 2)),
        lambda: IntMatrix.from_rows([5]),
        lambda: IntMatrix.from_rows(5),
        lambda: IntMatrix.from_rows([[1, 2], 5]),
    ],
    ids=[
        "float", "fraction", "from_rows bool", "from_rows str", "from_rows float",
        "str entry", "float rows", "str cols",
        "from_rows int row", "from_rows int", "from_rows mixed rows",
    ],
)
def test_matrices_reject_non_integers(build):
    with pytest.raises(
        ValidationError, match="matrix (entry|rows|cols) must be an (integer|iterable)"
    ):
        build()
