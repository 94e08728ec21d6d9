import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from wph import (
    HypersurfaceFamily,
    PolynomialSupport,
    ResourceCapError,
    ValidationError,
    WeightedPolynomial,
    WeightSystem,
    enumerate_monomials,
    euler_check,
    monomial_existence_check,
    partial_derivative,
)

from conftest import random_weighted_polynomial, series_dimensions


class TestEnumeration:
    def test_plain_cubics(self):
        out = enumerate_monomials(WeightSystem([1, 1, 1]), 3)
        assert len(out) == 10

    def test_weights_2_3(self):
        out = enumerate_monomials(WeightSystem([2, 3]), 6)
        assert out == [(3, 0), (0, 2)]

    def test_weights_4_3_1(self):
        out = enumerate_monomials(WeightSystem([4, 3, 1]), 4)
        assert out == [(1, 0, 0), (0, 1, 1), (0, 0, 4)]

    def test_degree_zero(self):
        assert enumerate_monomials(WeightSystem([2, 3]), 0) == [(0, 0)]

    def test_empty_piece(self):
        assert enumerate_monomials(WeightSystem([5, 7]), 3) == []

    def test_descending_lex_order(self):
        out = enumerate_monomials(WeightSystem([1, 1, 1, 1]), 5)
        assert out == sorted(out, reverse=True)
        assert len(out) == len(set(out))

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            enumerate_monomials(WeightSystem([1, 1, 1]), 30, cap=10)

    def test_dimension_matches_series_exhaustive(self):
        # all weight multisets of length <= 4 with entries <= 6, degrees <= 25
        for length in (2, 3, 4):
            for ws in combinations_with_replacement(range(1, 7), length):
                w = WeightSystem(tuple(reversed(ws)))
                dims = series_dimensions(ws, 25)
                for m in range(26):
                    assert len(enumerate_monomials(w, m)) == dims[m], (ws, m)

    def test_dimension_matches_series_sampled_five_vars(self):
        rng = random.Random(20240817)
        for _ in range(60):
            ws = sorted((rng.randint(1, 10) for _ in range(5)), reverse=True)
            m = rng.randint(0, 40)
            dims = series_dimensions(ws, m)
            assert len(enumerate_monomials(WeightSystem(ws), m)) == dims[m], (ws, m)


class TestSupportValidation:
    def test_degree_mismatch_names_row(self):
        fam = HypersurfaceFamily.of([1, 1, 1], 4)
        with pytest.raises(ValidationError, match="row 1"):
            PolynomialSupport(fam, [[4, 0, 0], [1, 1, 1]])

    def test_duplicates_rejected(self):
        fam = HypersurfaceFamily.of([1, 1], 2)
        with pytest.raises(ValidationError, match="distinct"):
            PolynomialSupport(fam, [[1, 1], [1, 1]])

    def test_empty_rejected(self):
        fam = HypersurfaceFamily.of([1, 1], 2)
        with pytest.raises(ValidationError):
            PolynomialSupport(fam, [])

    def test_non_iterable_rows_rejected(self):
        fam = HypersurfaceFamily.of([1, 1, 1], 4)
        with pytest.raises(ValidationError, match="iterable of exponent rows"):
            PolynomialSupport(fam, 5)
        with pytest.raises(ValidationError, match="monomial row 1"):
            PolynomialSupport(fam, [[4, 0, 0], 5])

    def test_user_order_alignment(self):
        # weights in the user's order: (1, 3, 4); x_1 * x_2 has degree 7
        fam = HypersurfaceFamily.of([1, 3, 4], 7)
        support = PolynomialSupport(fam, [[0, 1, 1], [7, 0, 0], [3, 0, 1]])
        assert len(support) == 3


class TestMonomialExistence:
    def test_fermat_pass(self):
        fam = HypersurfaceFamily.of([1, 1, 1], 4)
        support = PolynomialSupport(fam, [[4, 0, 0], [0, 4, 0], [0, 0, 4]])
        report = monomial_existence_check(support)
        assert report.passed
        assert [w.witness for w in report.witnesses] == [
            (4, 0, 0),
            (0, 4, 0),
            (0, 0, 4),
        ]

    def test_klein_pass(self):
        fam = HypersurfaceFamily.of([1, 1, 1], 4)
        support = PolynomialSupport(fam, [[1, 3, 0], [0, 1, 3], [3, 0, 1]])
        report = monomial_existence_check(support)
        assert report.passed
        assert report.witnesses[0].witness == (3, 0, 1)

    def test_all_variables_fail(self):
        fam = HypersurfaceFamily.of([1, 1, 1], 3)
        support = PolynomialSupport(fam, [[1, 1, 1]])
        report = monomial_existence_check(support)
        assert not report.passed
        assert report.failing_variables == (0, 1, 2)


class TestDerivatives:
    def test_pure_power(self):
        f = WeightedPolynomial(WeightSystem([1, 1]), 4, [(1, (4, 0))])
        df = partial_derivative(f, 0)
        assert df.terms == ((Fraction(4), (3, 0)),)
        assert df.degree == 3

    def test_mixed_term(self):
        f = WeightedPolynomial(WeightSystem([1, 1]), 4, [(1, (1, 3))])
        df = partial_derivative(f, 1)
        assert df.terms == ((Fraction(3), (1, 2)),)

    def test_vanishing(self):
        f = WeightedPolynomial(WeightSystem([1, 1]), 2, [(1, (0, 2))])
        df = partial_derivative(f, 0)
        assert df.terms == ()

    def test_out_of_range_variable(self):
        f = WeightedPolynomial(WeightSystem([1, 1]), 2, [(1, (0, 2))])
        with pytest.raises(ValidationError):
            partial_derivative(f, 2)

    def test_linear_cone_derivative_hits_degree_zero(self):
        f = WeightedPolynomial(WeightSystem([2, 1]), 2, [(1, (1, 0)), (-1, (0, 2))])
        df = partial_derivative(f, 0)
        assert df.degree == 0
        assert df.terms == ((Fraction(1), (0, 0)),)


class TestPolynomialValidation:
    def test_degree_mismatch(self):
        with pytest.raises(ValidationError, match="degree"):
            WeightedPolynomial(WeightSystem([1, 1]), 3, [(1, (1, 1))])

    def test_zero_coefficient(self):
        with pytest.raises(ValidationError, match="zero"):
            WeightedPolynomial(WeightSystem([1, 1]), 2, [(0, (1, 1))])

    def test_duplicate_exponents(self):
        with pytest.raises(ValidationError, match="duplicate"):
            WeightedPolynomial(WeightSystem([1, 1]), 2, [(1, (1, 1)), (2, (1, 1))])

    def test_coefficient_count_mismatch(self):
        fam = HypersurfaceFamily.of([1, 1], 2)
        support = PolynomialSupport(fam, [[2, 0], [0, 2]])
        with pytest.raises(ValidationError):
            WeightedPolynomial.from_support(support, [1])


class TestEuler:
    def test_fermat_quartic(self):
        f = WeightedPolynomial(
            WeightSystem([1, 1, 1]), 4, [(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 4))]
        )
        assert euler_check(f)

    def test_hyperelliptic_shape(self):
        f = WeightedPolynomial(
            WeightSystem([3, 1, 1]), 6, [(1, (2, 0, 0)), (1, (0, 6, 0)), (1, (0, 0, 6))]
        )
        assert euler_check(f)

    def test_random_polynomials(self):
        rng = random.Random(1729)
        for _ in range(200):
            assert euler_check(random_weighted_polynomial(rng))
