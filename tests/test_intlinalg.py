import math
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from wph import (
    DimensionError,
    IntMatrix,
    ResourceCapError,
    ValidationError,
    integer_determinant,
    loop_matrix,
    n_representable,
    partitions_of,
    representable_mask,
    smith_normal_form,
)

from conftest import cofactor_determinant, coin_representable, series_dimensions


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
            g = math.gcd(g, cofactor_determinant(sub))
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

    def test_matmul_and_transpose(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).to_rows() == [[2, 1], [4, 3]]
        assert a.transpose().to_rows() == [[1, 3], [2, 4]]
        with pytest.raises(DimensionError):
            a @ IntMatrix.from_rows([[1, 2, 3]])


class TestSmithNormalForm:
    def test_identity(self):
        dec = smith_normal_form(IntMatrix.identity(3))
        assert dec.invariant_factors == (1, 1, 1)
        assert dec.D == IntMatrix.identity(3)

    def test_diag_4_6(self):
        m = IntMatrix.diagonal([4, 6])
        dec = smith_normal_form(m)
        # Oracle: first factor is the gcd of all entries, product of the
        # factors is |det|.
        assert entries_gcd(m) == 2
        assert abs(cofactor_determinant(m.to_rows())) == 24
        assert dec.invariant_factors == (2, 12)

    def test_circulant_28(self):
        m = IntMatrix.from_rows([[1, 3, 0], [0, 1, 3], [3, 0, 1]])
        assert cofactor_determinant(m.to_rows()) == 28
        assert entries_gcd(m) == 1
        assert minors_gcd(m, 2) == 1
        dec = smith_normal_form(m)
        assert dec.invariant_factors == (1, 1, 28)

    @given(matrices)
    def test_decomposition_properties(self, m):
        dec = smith_normal_form(m)
        assert dec.U @ m @ dec.V == dec.D
        assert dec.V @ dec.Vinv == IntMatrix.identity(m.cols)
        assert abs(cofactor_determinant(dec.U.to_rows())) == 1
        assert abs(cofactor_determinant(dec.V.to_rows())) == 1
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

    @given(matrices.filter(lambda m: m.is_square))
    def test_factor_product_is_abs_det(self, m):
        det = cofactor_determinant(m.to_rows())
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


class TestDeterminant:
    def test_examples(self):
        assert integer_determinant(IntMatrix.diagonal([3, 3, 3])) == 27
        assert integer_determinant(IntMatrix.from_rows([[3, 1], [1, 3]])) == 8
        assert (
            integer_determinant(IntMatrix.from_rows([[1, 3, 0], [0, 1, 3], [3, 0, 1]]))
            == 28
        )

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            integer_determinant(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    @given(matrices.filter(lambda m: m.is_square))
    def test_matches_cofactor_oracle(self, m):
        assert integer_determinant(m) == cofactor_determinant(m.to_rows())

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


class TestRepresentability:
    def test_examples(self):
        assert n_representable(5, [2, 3]) is True
        assert n_representable(4, [3]) is False
        assert n_representable(0, [7]) is True

    def test_validation(self):
        with pytest.raises(ValidationError):
            n_representable(3, [])
        with pytest.raises(ValidationError):
            n_representable(3, [0, 2])
        with pytest.raises(ValidationError):
            n_representable(-1, [2])

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            n_representable(10_000_001, [2, 3])
        with pytest.raises(ResourceCapError):
            representable_mask(10_000_001, [7])

    def test_exhaustive_against_coin_oracle(self):
        values = range(1, 13)
        for size in range(1, 5):
            for gens in combinations(values, size):
                mask = representable_mask(60, gens)
                for target in range(61):
                    expected = coin_representable(target, gens)
                    assert bool((mask >> target) & 1) == expected, (target, gens)

    def test_duplicate_generators_collapse(self):
        assert representable_mask(20, [3, 3, 5]) == representable_mask(20, [3, 5])


class TestPartitions:
    def test_examples(self):
        assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
        assert partitions_of(1) == [(1,)]
        assert len(partitions_of(5)) == 7

    def test_validation(self):
        with pytest.raises(ValidationError):
            partitions_of(0)

    @given(st.integers(min_value=1, max_value=28))
    def test_against_series_count(self, n):
        parts = partitions_of(n)
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert sum(p) == n
            assert all(x >= 1 for x in p)
            assert tuple(sorted(p, reverse=True)) == p
        # partition numbers via the product of 1/(1-t^k), an independent route
        expected = series_dimensions(range(1, n + 1), n)[n]
        assert len(parts) == expected


class TestLoopMatrix:
    def test_closed_form_exhaustive(self):
        for m in range(1, 7):
            for diag in combinations_with_replacement(range(1, 6), m):
                # order within the cycle matters for the matrix but not the
                # determinant; test a couple of arrangements anyway
                for arrangement in {diag, tuple(reversed(diag))}:
                    mat = loop_matrix(arrangement)
                    prod = 1
                    for b in arrangement:
                        prod *= b
                    expected = prod + (-1) ** (m + 1)
                    assert integer_determinant(mat) == expected

    def test_single_row_convention(self):
        assert loop_matrix([4]).to_rows() == [[5]]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            loop_matrix([])
