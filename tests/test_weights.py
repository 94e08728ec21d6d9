from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from wph import (
    CanonicalKind,
    HypersurfaceFamily,
    LinearityVerdict,
    PolynomialSupport,
    ValidationError,
    WeightSystem,
    aut_equals_lin,
    canonical_class,
    genericity_condition,
    is_well_formed,
    lin_finiteness,
    well_formedness_failures,
)

weight_lists = st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=6)


class TestWeightSystem:
    def test_orders(self):
        w = WeightSystem([25, 36, 30, 31])
        assert w.original == (25, 36, 30, 31)
        assert w.canonical == (36, 31, 30, 25)
        assert w.n == 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            WeightSystem([5])
        with pytest.raises(ValidationError):
            WeightSystem([1, 0])
        with pytest.raises(ValidationError):
            HypersurfaceFamily([1, 1], 0)

    def test_bools_are_not_integers(self):
        with pytest.raises(ValidationError, match="weight must be an integer"):
            WeightSystem([True, True, True])
        with pytest.raises(ValidationError, match="degree must be an integer"):
            HypersurfaceFamily([1, 1, 1], True)
        with pytest.raises(ValidationError, match="exponent must be an integer"):
            PolynomialSupport(HypersurfaceFamily([1, 1, 1], 1), [[True, 0, 0]])

    def test_degenerate_degree_allowed(self):
        # A degree below every weight is an empty family, not an error.
        fam = HypersurfaceFamily([5, 7], 3)
        assert fam.degree == 3


class TestWellFormed:
    def test_examples(self):
        assert is_well_formed(WeightSystem([2, 2, 2, 2, 2])) is False
        assert is_well_formed(WeightSystem([1, 1, 1, 1])) is True
        assert is_well_formed(WeightSystem([36, 31, 30, 25])) is True

    def test_examples_against_direct_gcd(self):
        import math

        for ws in [(2, 2, 2, 2, 2), (1, 1, 1, 1), (36, 31, 30, 25), (6, 10, 15)]:
            w = WeightSystem(ws)
            expected = all(
                math.gcd(*(a for k, a in enumerate(w.canonical) if k != i)) == 1
                for i in range(len(ws))
            )
            assert is_well_formed(w) == expected

    def test_failure_report(self):
        failures = well_formedness_failures(WeightSystem([2, 2, 2, 2, 2]))
        assert [f.omitted_index for f in failures] == [0, 1, 2, 3, 4]
        assert all(f.shared_factor == 2 for f in failures)

    def test_mixed_failure(self):
        # canonical order (4, 3, 2, 2): omitting index 1 leaves (4, 2, 2), gcd 2
        failures = well_formedness_failures(WeightSystem([2, 4, 3, 2]))
        assert [(f.omitted_index, f.shared_factor) for f in failures] == [(1, 2)]

    @given(weight_lists, st.randoms(use_true_random=False))
    def test_permutation_invariant(self, ws, rng):
        shuffled = list(ws)
        rng.shuffle(shuffled)
        assert is_well_formed(WeightSystem(ws)) == is_well_formed(WeightSystem(shuffled))


class TestCanonicalClass:
    def test_examples(self):
        cy = canonical_class(HypersurfaceFamily([1, 1, 1, 1], 4))
        assert (cy.r, cy.kind) == (0, CanonicalKind.CALABI_YAU)
        gt = canonical_class(HypersurfaceFamily([3, 1, 1], 6))
        assert (gt.r, gt.kind) == (1, CanonicalKind.GENERAL_TYPE)
        fano = canonical_class(HypersurfaceFamily([1, 1, 1, 1], 2))
        assert (fano.r, fano.kind) == (-2, CanonicalKind.FANO)

    @given(weight_lists, st.integers(min_value=1, max_value=80))
    def test_exactly_one_kind(self, ws, d):
        report = canonical_class(HypersurfaceFamily(ws, d))
        assert report.kind in CanonicalKind
        assert (report.r < 0) == (report.kind is CanonicalKind.FANO)
        assert (report.r == 0) == (report.kind is CanonicalKind.CALABI_YAU)
        assert (report.r > 0) == (report.kind is CanonicalKind.GENERAL_TYPE)


class TestLinearity:
    def test_examples(self):
        assert (
            aut_equals_lin(HypersurfaceFamily([1, 1, 1, 1, 1], 5))
            is LinearityVerdict.ALL_LINEAR
        )
        assert (
            aut_equals_lin(HypersurfaceFamily([1, 1, 1, 1], 4))
            is LinearityVerdict.MAYBE_NON_LINEAR
        )
        assert (
            aut_equals_lin(HypersurfaceFamily([1, 1, 1], 4))
            is LinearityVerdict.OUT_OF_RANGE
        )

    def test_surface_with_nontrivial_canonical_class(self):
        assert (
            aut_equals_lin(HypersurfaceFamily([36, 31, 30, 25], 180))
            is LinearityVerdict.ALL_LINEAR
        )


class TestGenericity:
    def test_examples(self):
        assert genericity_condition(HypersurfaceFamily([36, 31, 30, 25], 180)) is True
        assert genericity_condition(HypersurfaceFamily([1, 1, 1], 4)) is False
        assert genericity_condition(HypersurfaceFamily([1, 1, 1, 1], 5)) is True

    def test_genericity_implies_finiteness_exhaustively(self):
        # every weight tuple with entries <= 8, length <= 5, degrees <= 60
        for length in range(2, 6):
            for ws in combinations_with_replacement(range(1, 9), length):
                for d in range(1, 61):
                    fam = HypersurfaceFamily(ws, d)
                    if genericity_condition(fam):
                        assert lin_finiteness(fam).finite, (ws, d)
