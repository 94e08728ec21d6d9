import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

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
)

import wph.monomials
from wph.monomials import _checked_rows, _derivative_terms, is_witness_row

from conftest import oracles, random_weighted_polynomial


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

    @pytest.mark.parametrize("cap", ["5", 2.5, True, -1])
    def test_rejects_bad_cap(self, cap):
        with pytest.raises(ValidationError, match="monomial cap"):
            enumerate_monomials(WeightSystem([1, 1, 1]), 3, cap=cap)

    def test_generator_matches_recursive_oracle(self):
        rng = random.Random(7070)
        zero_degree = empty = 0
        for _ in range(600):
            ws = [rng.randint(1, 9) for _ in range(rng.randint(2, 6))]
            d = rng.choice((0, rng.randint(1, 12), rng.randint(1, 30)))
            expected = oracles.graded_piece(ws, d)[::-1]
            assert enumerate_monomials(WeightSystem(ws), d) == expected, (ws, d)
            zero_degree += d == 0
            empty += not expected
        assert zero_degree and empty
        # A single weight never reaches the enumeration.
        with pytest.raises(ValidationError, match="two weights"):
            WeightSystem([3])

    def test_cap_admits_exactly_cap_rows(self):
        rng = random.Random(7071)
        for _ in range(150):
            ws = [rng.randint(1, 6) for _ in range(rng.randint(2, 5))]
            d = rng.randint(0, 20)
            piece = oracles.graded_piece(ws, d)[::-1]
            w = WeightSystem(ws)
            assert enumerate_monomials(w, d, cap=len(piece)) == piece
            if piece:
                with pytest.raises(ResourceCapError, match=f"more than {len(piece) - 1} "):
                    enumerate_monomials(w, d, cap=len(piece) - 1)

    def test_dimension_matches_series_exhaustive(self):
        # all weight multisets of length <= 4 with entries <= 6, degrees <= 25
        for length in (2, 3, 4):
            for ws in combinations_with_replacement(range(1, 7), length):
                w = WeightSystem(tuple(reversed(ws)))
                dims = oracles.graded_piece_sizes(ws, 25)
                for m in range(26):
                    assert len(enumerate_monomials(w, m)) == dims[m], (ws, m)

    def test_dimension_matches_series_sampled_five_vars(self):
        rng = random.Random(20240817)
        for _ in range(60):
            ws = sorted((rng.randint(1, 10) for _ in range(5)), reverse=True)
            m = rng.randint(0, 40)
            dims = oracles.graded_piece_sizes(ws, m)
            assert len(enumerate_monomials(WeightSystem(ws), m)) == dims[m], (ws, m)


class TestSupportValidation:
    def test_degree_mismatch_names_row(self):
        fam = HypersurfaceFamily([1, 1, 1], 4)
        with pytest.raises(ValidationError, match="row 1"):
            PolynomialSupport(fam, [[4, 0, 0], [1, 1, 1]])

    def test_duplicates_rejected(self):
        fam = HypersurfaceFamily([1, 1], 2)
        with pytest.raises(ValidationError, match="distinct"):
            PolynomialSupport(fam, [[1, 1], [1, 1]])

    def test_empty_rejected(self):
        fam = HypersurfaceFamily([1, 1], 2)
        with pytest.raises(ValidationError):
            PolynomialSupport(fam, [])

    def test_non_iterable_rows_rejected(self):
        fam = HypersurfaceFamily([1, 1, 1], 4)
        with pytest.raises(ValidationError, match="iterable of exponent rows"):
            PolynomialSupport(fam, 5)
        with pytest.raises(ValidationError, match="monomial row 1"):
            PolynomialSupport(fam, [[4, 0, 0], 5])

    def test_user_order_alignment(self):
        # weights in the user's order: (1, 3, 4); x_1 * x_2 has degree 7
        fam = HypersurfaceFamily([1, 3, 4], 7)
        support = PolynomialSupport(fam, [[0, 1, 1], [7, 0, 0], [3, 0, 1]])
        assert len(support) == 3


class _Index:
    """An integer type that is not an int: it only has ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def _random_rows(rng: random.Random) -> tuple[HypersurfaceFamily, list[list[int]]]:
    """A shuffled random subset of a nonempty graded piece, as lists."""
    while True:
        ws = [rng.randint(1, 6) for _ in range(rng.randint(2, 5))]
        d = rng.randint(1, 24)
        piece = enumerate_monomials(WeightSystem(ws), d)
        if piece:
            break
    rows = [list(r) for r in rng.sample(piece, rng.randint(1, len(piece)))]
    return HypersurfaceFamily(ws, d), rows


def _inject(rng: random.Random, rows: list, kind: str, k: int | None = None) -> list:
    """``rows`` with one defect of the given kind in row ``k`` (default random)."""
    rows = [list(r) for r in rows]
    if k is None:
        k = rng.randrange(len(rows))
    j = rng.randrange(len(rows[k]))
    if kind == "bool":
        rows[k][j] = rng.choice([True, False])
    elif kind == "float":
        rows[k][j] = float(rows[k][j])
    elif kind == "str":
        rows[k][j] = str(rows[k][j])
    elif kind == "negative":
        rows[k][j] = -1 - rows[k][j]
    elif kind == "length":
        rows[k] = rows[k] + [0] if rng.random() < 0.5 else rows[k][:-1]
    elif kind == "degree":
        rows[k][j] += 1
    elif kind == "duplicate":
        rows.insert(k, list(rows[rng.randrange(len(rows))]))
    elif kind == "empty":
        rows = []
    elif kind == "non-iterable":
        rows[k] = rng.choice([5, None, 2.5])
    return rows


def _error_text(fam, rows) -> str:
    with pytest.raises(ValidationError) as info:
        PolynomialSupport(fam, rows)
    return str(info.value)


def _polynomial_error_text(fam, rows) -> str:
    with pytest.raises(ValidationError) as info:
        WeightedPolynomial(fam.weights, fam.degree, [(1, row) for row in rows])
    return str(info.value)


class TestSupportPaths:
    """One validator checks the rows of supports and of polynomials.

    A list or tuple of exact-int rows goes through bulk passes, anything
    else row by row; both give the same rows and name the same defect.
    """

    def test_list_tuple_and_iterator_agree(self):
        rng = random.Random(517)
        for _ in range(200):
            fam, rows = _random_rows(rng)
            ws, d = fam.weights.original, fam.degree
            expected = tuple(map(tuple, rows))
            for make in (list, tuple, iter):
                assert _checked_rows(make(rows), ws, d) == expected
                assert PolynomialSupport(fam, make(rows)).rows == expected

    def test_valid_supports_take_the_bulk_path(self, monkeypatch):
        rng = random.Random(515)
        cases = [_random_rows(rng) for _ in range(200)]
        real = wph.monomials.as_int

        def as_int(value, what):
            # the row-by-row walk reads each exponent through as_int
            assert "exponent" not in what, "rows were walked one at a time"
            return real(value, what)

        monkeypatch.setattr(wph.monomials, "as_int", as_int)
        for fam, rows in cases:
            expected = tuple(map(tuple, rows))
            support = PolynomialSupport(fam, rows)
            assert support.rows == expected
            f = WeightedPolynomial.from_support(support)
            assert tuple(vec for _, vec in f.terms) == expected
            assert euler_check(f)

    def test_index_ints_accepted_by_both(self):
        rng = random.Random(516)
        for _ in range(50):
            fam, rows = _random_rows(rng)
            expected = PolynomialSupport(fam, rows).rows
            wrapped = [[_Index(e) for e in row] for row in rows]
            for given_rows in (wrapped, iter(wrapped)):
                got = PolynomialSupport(fam, given_rows).rows
                assert got == expected
                assert all(type(e) is int for row in got for e in row)

    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 10**6),
        kind=st.sampled_from(
            ["bool", "float", "str", "negative", "length", "degree", "duplicate",
             "empty", "non-iterable"]
        ),
    )
    def test_each_defect_same_error_on_both_paths(self, seed, kind):
        rng = random.Random(seed)
        fam, rows = _random_rows(rng)
        bad = _inject(rng, rows, kind)
        message = _error_text(fam, bad)
        assert _error_text(fam, tuple(bad)) == message
        assert _error_text(fam, iter(bad)) == message
        if kind != "empty":  # no terms at all is the zero polynomial
            assert _polynomial_error_text(fam, bad) == message

    @pytest.mark.parametrize(
        "kind",
        ["bool", "float", "str", "negative", "length", "degree", "duplicate", "non-iterable"],
    )
    def test_defect_in_the_last_of_many_rows(self, kind):
        # 1 365 rows, more than one 1 024-row block of the CLI echo of a support.
        fam = HypersurfaceFamily([1, 1, 1, 1, 1], 11)
        rows = [list(r) for r in enumerate_monomials(fam.weights, 11)]
        last = len(rows) - 1
        bad = _inject(random.Random(kind), rows, kind, k=last)
        message = _error_text(fam, bad)
        assert _error_text(fam, tuple(bad)) == message
        assert _error_text(fam, iter(bad)) == message
        assert _polynomial_error_text(fam, bad) == message
        if kind == "duplicate":
            assert message == "support rows must be distinct"
        else:
            assert f"row {last} " in message

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[4, 0, 0], [0, True, 3]], "row 1 exponent must be an integer, got True"),
            ([[4.0, 0, 0]], "row 0 exponent must be an integer, got 4.0"),
            ([[4, 0, 0], [0, "4", 0]], "row 1 exponent must be an integer, got '4'"),
            ([[4, 0, 0], [5, -1, 0]], "row 1 has a negative exponent: (5, -1, 0)"),
            ([[4, 0, 0], [4, 0]], "row 1 has 2 exponents for 3 variables"),
            ([[4, 0, 0], [1, 1, 1]], "row 1 (1, 1, 1) has weighted degree 3, expected 4"),
            ([[4, 0, 0], (4, 0, 0)], "support rows must be distinct"),
            ([], "support must contain at least one monomial"),
            ([[4, 0, 0], 5], "monomial row 1 must be a sequence of exponents, got 5"),
        ],
    )
    def test_messages_name_the_defect(self, rows, message):
        fam = HypersurfaceFamily([1, 1, 1], 4)
        assert _error_text(fam, rows) == message
        assert _error_text(fam, iter(rows)) == message
        if rows:  # no terms at all is the zero polynomial
            assert _polynomial_error_text(fam, rows) == message


class TestMonomialExistence:
    def test_fermat_pass(self):
        fam = HypersurfaceFamily([1, 1, 1], 4)
        support = PolynomialSupport(fam, [[4, 0, 0], [0, 4, 0], [0, 0, 4]])
        report = monomial_existence_check(support)
        assert report.passed
        assert [w.witness for w in report.witnesses] == [
            (4, 0, 0),
            (0, 4, 0),
            (0, 0, 4),
        ]

    def test_klein_pass(self):
        fam = HypersurfaceFamily([1, 1, 1], 4)
        support = PolynomialSupport(fam, [[1, 3, 0], [0, 1, 3], [3, 0, 1]])
        report = monomial_existence_check(support)
        assert report.passed
        assert report.witnesses[0].witness == (3, 0, 1)

    def test_all_variables_fail(self):
        fam = HypersurfaceFamily([1, 1, 1], 3)
        support = PolynomialSupport(fam, [[1, 1, 1]])
        report = monomial_existence_check(support)
        assert not report.passed
        assert report.failing_variables == (0, 1, 2)

    @pytest.mark.parametrize(
        "variable, message",
        [
            (5, "variable index 5 out of range for 3 variables"),
            (-1, "variable index -1 out of range for 3 variables"),
            (True, "variable index must be an integer, got True"),
            (1.0, "variable index must be an integer, got 1.0"),
            ("1", "variable index must be an integer, got '1'"),
        ],
    )
    def test_witness_row_rejects_bad_variable(self, variable, message):
        with pytest.raises(ValidationError) as info:
            is_witness_row((0, 1, 3), variable)
        assert str(info.value) == message


class TestDerivatives:
    """``_derivative_terms``, the d/dx_i that ``euler_check`` sums."""

    def test_pure_power(self):
        f = WeightedPolynomial(WeightSystem([1, 1]), 4, [(1, (4, 0))])
        assert list(_derivative_terms(f.terms, 0)) == [(Fraction(4), (3, 0))]

    def test_mixed_term(self):
        f = WeightedPolynomial(WeightSystem([1, 1]), 4, [(1, (1, 3))])
        assert list(_derivative_terms(f.terms, 1)) == [(Fraction(3), (1, 2))]
        assert list(_derivative_terms(f.terms, 0)) == [(Fraction(1), (0, 3))]

    def test_vanishing(self):
        f = WeightedPolynomial(WeightSystem([1, 1]), 2, [(1, (0, 2))])
        assert list(_derivative_terms(f.terms, 0)) == []

    def test_linear_cone_derivative_hits_degree_zero(self):
        f = WeightedPolynomial(WeightSystem([2, 1]), 2, [(1, (1, 0)), (-1, (0, 2))])
        assert list(_derivative_terms(f.terms, 0)) == [(Fraction(1), (0, 0))]
        assert list(_derivative_terms(f.terms, 1)) == [(Fraction(-2), (0, 1))]

    def test_each_term_drops_by_its_weight(self):
        rng = random.Random(2718)
        for _ in range(200):
            f = random_weighted_polynomial(rng)
            weights = f.weights.original
            for i, a in enumerate(weights):
                derived = list(_derivative_terms(f.terms, i))
                assert len(derived) == sum(1 for _, vec in f.terms if vec[i])
                for (c, vec), (c0, vec0) in zip(derived, [t for t in f.terms if t[1][i]]):
                    assert c == c0 * vec0[i]
                    assert vec[i] == vec0[i] - 1
                    assert sum(w * e for w, e in zip(weights, vec)) == f.degree - a


class TestPolynomialValidation:
    def test_degree_mismatch(self):
        with pytest.raises(ValidationError, match="degree"):
            WeightedPolynomial(WeightSystem([1, 1]), 3, [(1, (1, 1))])

    def test_zero_coefficient(self):
        with pytest.raises(ValidationError, match="zero"):
            WeightedPolynomial(WeightSystem([1, 1]), 2, [(0, (1, 1))])

    def test_duplicate_exponents(self):
        with pytest.raises(ValidationError, match="support rows must be distinct"):
            WeightedPolynomial(WeightSystem([1, 1]), 2, [(1, (1, 1)), (2, (1, 1))])

    @pytest.mark.parametrize(
        "term, message",
        [
            ((1.5, (1, 1)), "coefficient 0 must be an integer, a Fraction or text 'p/q', got 1.5"),
            ((True, (1, 1)), "coefficient 0 must be an integer, a Fraction or text 'p/q', got True"),
            (("x", (1, 1)), "coefficient 0: 'x' is not an integer"),
            ((1,), "term 0 must be a (coefficient, exponents) pair, got (1,)"),
            ((1, 4), "monomial row 0 must be a sequence of exponents, got 4"),
        ],
    )
    def test_malformed_terms_raise_validation_errors(self, term, message):
        with pytest.raises(ValidationError) as info:
            WeightedPolynomial(WeightSystem([1, 1]), 2, [term])
        assert str(info.value) == message

    def test_exact_coefficients_kept(self):
        f = WeightedPolynomial(
            WeightSystem([1, 1]), 2, [("-2/3", (2, 0)), (Fraction(1, 2), (1, 1)), (7, (0, 2))]
        )
        assert [c for c, _ in f.terms] == [Fraction(-2, 3), Fraction(1, 2), Fraction(7)]

    def test_coefficient_count_mismatch(self):
        fam = HypersurfaceFamily([1, 1], 2)
        support = PolynomialSupport(fam, [[2, 0], [0, 2]])
        with pytest.raises(ValidationError):
            WeightedPolynomial.from_support(support, [1])

    @pytest.mark.parametrize("coefficients", ["123", iter([1, 2, 3]), 5, {1: 1, 2: 2, 3: 3}])
    def test_coefficients_must_be_a_list_or_tuple(self, coefficients):
        fermat = [[3, 0, 0], [0, 3, 0], [0, 0, 3]]
        support = PolynomialSupport(HypersurfaceFamily([1, 1, 1], 3), fermat)
        with pytest.raises(ValidationError) as info:
            WeightedPolynomial.from_support(support, coefficients)
        assert str(info.value) == f"coefficients must be a list or tuple, got {coefficients!r}"
        for given in ([1, 2, 3], (1, 2, 3)):
            f = WeightedPolynomial.from_support(support, given)
            assert [c for c, _ in f.terms] == [1, 2, 3]


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

    @staticmethod
    def fraction_euler_check(f):
        """The identity summed in Fractions, each derivative taken here, the
        reference for the integer sums of ``euler_check``."""
        acc = {}
        for i, a in enumerate(f.weights.original):
            for c, vec in f.terms:
                # x_i * d/dx_i takes c * x^v to v_i * c * x^v.
                if vec[i]:
                    acc[vec] = acc.get(vec, Fraction(0)) + a * vec[i] * c
        lhs = {vec: c for vec, c in acc.items() if c != 0}
        return lhs == {vec: f.degree * c for c, vec in f.terms}

    def test_matches_the_fraction_sums(self, monkeypatch):
        rng = random.Random(4099)
        polys = [random_weighted_polynomial(rng) for _ in range(300)]
        assert sum(any(c.denominator > 1 for c, _ in f.terms) for f in polys) > 250
        for f in polys:
            assert euler_check(f) is self.fraction_euler_check(f) is True

        # A derivative that miscounts the exponent breaks the identity; the
        # reference, which takes its own derivatives, still holds.
        def miscounted(terms, i):
            for c, vec in terms:
                if vec[i]:
                    yield c * (vec[i] + 1), vec[:i] + (vec[i] - 1,) + vec[i + 1 :]

        monkeypatch.setattr(wph.monomials, "_derivative_terms", miscounted)
        for f in polys:
            assert euler_check(f) is False
            assert self.fraction_euler_check(f) is True
