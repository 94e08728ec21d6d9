import random
from dataclasses import astuple
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

import wph.quasismooth
from wph import (
    REPRESENTABLE_TARGET_CAP,
    HypersurfaceFamily,
    PolynomialSupport,
    ResourceCapError,
    WeightSystem,
    enumerate_monomials,
    is_linear_cone,
    monomial_existence_check,
    quasismooth_exists,
)

from conftest import naive_quasismooth_exists, naive_quasismooth_failures

weight_lists = st.lists(st.integers(min_value=1, max_value=10), min_size=2, max_size=5)


class TestLinearCone:
    def test_examples(self):
        assert is_linear_cone(HypersurfaceFamily.of([2, 1, 1, 1, 1], 2)) is True
        assert is_linear_cone(HypersurfaceFamily.of([1, 1, 1], 3)) is False
        assert is_linear_cone(HypersurfaceFamily.of([5, 5, 4, 4], 5)) is True


class TestQuasismoothExamples:
    def test_plain_quartic_surface(self):
        report = quasismooth_exists(HypersurfaceFamily.of([1, 1, 1, 1], 4))
        assert report.exists and not report.is_linear_cone

    def test_flagship_family(self):
        report = quasismooth_exists(HypersurfaceFamily.of([36, 31, 30, 25], 180))
        assert report.exists

    def test_failing_family_with_diagnostics(self):
        report = quasismooth_exists(
            HypersurfaceFamily.of([1, 1, 3], 5), diagnostics=True
        )
        assert not report.exists
        # canonical order (3, 1, 1): the singleton {0} fails because 5 is not
        # a multiple of 3 and neither is 5 - 1 for either other index
        singleton = [s for s in report.failing_subsets if s.subset == (0,)]
        assert len(singleton) == 1
        assert singleton[0].degree_representable is False
        assert singleton[0].outside_witnesses == ()
        assert singleton[0].required == 1

    def test_linear_cone_short_circuit(self):
        report = quasismooth_exists(HypersurfaceFamily.of([5, 5, 4, 4], 5))
        assert report.exists and report.is_linear_cone
        assert report.failing_subsets == ()

    def test_fast_path_matches_diagnostics(self):
        for ws, d in [
            ((1, 1, 3), 5),
            ((1, 2, 3), 6),
            ((2, 3, 5, 10), 20),
            ((3, 3, 4), 10),
        ]:
            fam = HypersurfaceFamily.of(ws, d)
            assert (
                quasismooth_exists(fam).exists
                == quasismooth_exists(fam, diagnostics=True).exists
            )

    def test_variable_count_cap(self):
        with pytest.raises(ResourceCapError):
            quasismooth_exists(HypersurfaceFamily.of([1] * 25, 3))


class TestAgainstIndependentReimplementation:
    def test_exhaustive_small_range(self):
        # all weight multisets of length 3 with entries <= 6, degrees <= 25;
        # diagnostics index the canonical (non-increasing) order
        for ws in combinations_with_replacement(range(1, 7), 3):
            for d in range(1, 26):
                fam = HypersurfaceFamily.of(ws, d)
                expected = naive_quasismooth_failures(fam.weights.canonical, d)
                fast = quasismooth_exists(fam)
                full = quasismooth_exists(fam, diagnostics=True)
                assert fast.exists == full.exists == (not expected), (ws, d)
                assert [astuple(s) for s in full.failing_subsets] == expected, (ws, d)
                assert [astuple(s) for s in fast.failing_subsets] == expected[:1], (ws, d)

    def test_sampled_wider_range(self):
        rng = random.Random(997)
        for _ in range(2500):
            length = rng.randint(3, 4)
            ws = tuple(sorted((rng.randint(1, 10) for _ in range(length)), reverse=True))
            d = rng.randint(1, 40)
            fam = HypersurfaceFamily.of(ws, d)
            assert quasismooth_exists(fam).exists == naive_quasismooth_exists(ws, d), (
                ws,
                d,
            )

    @given(weight_lists, st.integers(min_value=1, max_value=30), st.randoms(use_true_random=False))
    def test_permutation_invariant(self, ws, d, rng):
        shuffled = list(ws)
        rng.shuffle(shuffled)
        a = quasismooth_exists(HypersurfaceFamily.of(ws, d))
        b = quasismooth_exists(HypersurfaceFamily.of(shuffled, d))
        assert a.exists == b.exists
        assert a.is_linear_cone == b.is_linear_cone


class TestParentMasks:
    """Each mask closes its parent's mask under one weight."""

    def test_random_families_with_repeated_weights(self):
        rng = random.Random(8128)
        larger_failures = 0
        for _ in range(400):
            m = rng.randint(2, 10)
            pool = [rng.randint(1, 12) for _ in range(rng.randint(1, m))]
            ws = tuple(sorted((rng.choice(pool) for _ in range(m)), reverse=True))
            d = rng.randint(1, 60)
            fam = HypersurfaceFamily.of(ws, d)
            expected = naive_quasismooth_failures(ws, d)
            full = quasismooth_exists(fam, diagnostics=True)
            fast = quasismooth_exists(fam)
            assert [astuple(s) for s in full.failing_subsets] == expected, (ws, d)
            assert [astuple(s) for s in fast.failing_subsets] == expected[:1], (ws, d)
            larger_failures += any(len(f[0]) > 1 for f in expected)
        assert larger_failures >= 40

    def test_only_singleton_masks_are_computed_directly(self, monkeypatch):
        fresh = []
        original = wph.quasismooth._closed

        def counted(mask, g, limit, full):
            if mask == 1:  # the semigroup of no weights: a mask built from scratch
                fresh.append(g)
            return original(mask, g, limit, full)

        monkeypatch.setattr(wph.quasismooth, "_closed", counted)
        assert quasismooth_exists(HypersurfaceFamily.of([36, 31, 30, 25], 180)).exists
        assert fresh == [36, 31, 30]

    def test_degree_over_the_target_cap(self):
        for d in (REPRESENTABLE_TARGET_CAP + 2, 10**15):
            for diagnostics in (False, True):
                with pytest.raises(ResourceCapError):
                    quasismooth_exists(HypersurfaceFamily.of([2, 2], d), diagnostics=diagnostics)
        # A failing singleton ends the fast scan before any mask is built.
        fam = HypersurfaceFamily.of([5, 3], REPRESENTABLE_TARGET_CAP + 1)
        assert quasismooth_exists(fam).failing_subsets[0].subset == (0,)
        with pytest.raises(ResourceCapError):
            quasismooth_exists(fam, diagnostics=True)


class TestConsistencyWithMonomialExistence:
    def test_full_graded_piece_passes_when_not_a_cone(self):
        rng = random.Random(4242)
        tested = 0
        while tested < 150:
            length = rng.randint(2, 4)
            ws = tuple(sorted((rng.randint(1, 8) for _ in range(length)), reverse=True))
            d = rng.randint(2, 30)
            fam = HypersurfaceFamily.of(ws, d)
            report = quasismooth_exists(fam)
            if not report.exists or report.is_linear_cone:
                continue
            rows = enumerate_monomials(fam.weights, d)
            support = PolynomialSupport(fam, rows)
            assert monomial_existence_check(support).passed, (ws, d)
            tested += 1
