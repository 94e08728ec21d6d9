import gc
import random
from dataclasses import astuple
from itertools import combinations_with_replacement, product, takewhile

import pytest
from hypothesis import given, strategies as st

import wph.quasismooth
from wph import (
    REPRESENTABLE_TARGET_CAP,
    CanonicalKind,
    HypersurfaceFamily,
    PolynomialSupport,
    ResourceCapError,
    SearchConstraints,
    WeightSystem,
    enumerate_families,
    enumerate_monomials,
    is_linear_cone,
    monomial_existence_check,
    quasismooth_exists,
)

from conftest import oracles

weight_lists = st.lists(st.integers(min_value=1, max_value=10), min_size=2, max_size=5)


def pointer_targets(ws, d):
    """For each index i with a_i not dividing d, its targets: the j with
    a_j < d and a_i dividing d - a_j."""
    return [[j for j, b in enumerate(ws) if b < d and (d - b) % a == 0] for a in ws if d % a]


def has_certificate(ws, d):
    return wph.quasismooth._distinct_pointers(pointer_targets(ws, d))


def oracle_failures(ws, d):
    """The oracle's failing subsets as diagnostics tuples; none for a linear cone."""
    return oracles.quasismooth_failures(ws, d) or []


class TestLinearCone:
    def test_examples(self):
        assert is_linear_cone(HypersurfaceFamily([2, 1, 1, 1, 1], 2)) is True
        assert is_linear_cone(HypersurfaceFamily([1, 1, 1], 3)) is False
        assert is_linear_cone(HypersurfaceFamily([5, 5, 4, 4], 5)) is True


class TestQuasismoothExamples:
    def test_plain_quartic_surface(self):
        report = quasismooth_exists(HypersurfaceFamily([1, 1, 1, 1], 4))
        assert report.exists and not report.is_linear_cone

    def test_flagship_family(self):
        report = quasismooth_exists(HypersurfaceFamily([36, 31, 30, 25], 180))
        assert report.exists

    def test_failing_family_with_diagnostics(self):
        report = quasismooth_exists(
            HypersurfaceFamily([1, 1, 3], 5), diagnostics=True
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
        report = quasismooth_exists(HypersurfaceFamily([5, 5, 4, 4], 5))
        assert report.exists and report.is_linear_cone
        assert report.failing_subsets == ()

    def test_fast_path_matches_diagnostics(self):
        for ws, d in [
            ((1, 1, 3), 5),
            ((1, 2, 3), 6),
            ((2, 3, 5, 10), 20),
            ((3, 3, 4), 10),
        ]:
            fam = HypersurfaceFamily(ws, d)
            assert (
                quasismooth_exists(fam).exists
                == quasismooth_exists(fam, diagnostics=True).exists
            )

    def test_variable_count_cap(self):
        with pytest.raises(ResourceCapError):
            quasismooth_exists(HypersurfaceFamily([1] * 25, 3))
        # The cap comes before the cone test: 25 weights raise at d = 1 too.
        for d in (1, 3):
            with pytest.raises(ResourceCapError, match="limited to 24 variables, got 25"):
                next(wph.quasismooth._failing_subsets((1,) * 25, d))
        with pytest.raises(ResourceCapError):
            quasismooth_exists(HypersurfaceFamily([1] * 25, 1))
        # Exactly 24 weights are decided.
        assert quasismooth_exists(HypersurfaceFamily([1] * 24, 24)).exists is True
        cy = SearchConstraints(
            dimension=22, canonical_kind=CanonicalKind.CALABI_YAU, max_degree=24
        )
        found = enumerate_families(cy)
        assert [(f.degree, f.weights.canonical) for f in found] == [(24, (1,) * 24)]


class TestAgainstIndependentReimplementation:
    def test_exhaustive_small_range(self):
        # all weight multisets of length 3 with entries <= 6, degrees <= 25;
        # diagnostics index the canonical (non-increasing) order
        for ws in combinations_with_replacement(range(1, 7), 3):
            for d in range(1, 26):
                fam = HypersurfaceFamily(ws, d)
                expected = oracle_failures(fam.weights.canonical, d)
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
            fam = HypersurfaceFamily(ws, d)
            assert quasismooth_exists(fam).exists == oracles.quasismooth_exists(ws, d), (
                ws,
                d,
            )

    @given(weight_lists, st.integers(min_value=1, max_value=30), st.randoms(use_true_random=False))
    def test_permutation_invariant(self, ws, d, rng):
        shuffled = list(ws)
        rng.shuffle(shuffled)
        a = quasismooth_exists(HypersurfaceFamily(ws, d))
        b = quasismooth_exists(HypersurfaceFamily(shuffled, d))
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
            fam = HypersurfaceFamily(ws, d)
            expected = oracle_failures(ws, d)
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
        # A passing K3 family with no distinct-pointer certificate: it scans.
        assert quasismooth_exists(HypersurfaceFamily([11, 5, 4, 2], 22)).exists
        assert fresh == [11, 5, 4]

    def test_degree_over_the_target_cap(self):
        for d in (REPRESENTABLE_TARGET_CAP + 2, 10**15, 10**5000):
            for diagnostics in (False, True):
                with pytest.raises(ResourceCapError):
                    quasismooth_exists(HypersurfaceFamily([2, 2], d), diagnostics=diagnostics)
        # A failing singleton ends the fast scan before any mask is built.
        fam = HypersurfaceFamily([5, 3], REPRESENTABLE_TARGET_CAP + 1)
        assert quasismooth_exists(fam).failing_subsets[0].subset == (0,)
        with pytest.raises(ResourceCapError):
            quasismooth_exists(fam, diagnostics=True)
        # Certified by pointers 0 -> 1 and 1 -> 0, neither weight dividing d:
        # the cap is still checked first.
        fam = HypersurfaceFamily([3, 2], REPRESENTABLE_TARGET_CAP + 1)
        assert has_certificate((3, 2), fam.degree)
        for diagnostics in (False, True):
            with pytest.raises(ResourceCapError):
                quasismooth_exists(fam, diagnostics=diagnostics)


class TestPointerCertificate:
    """Distinct witness pointers settle a family with no subset scan."""

    def test_certified_random_families_have_no_failing_subset(self):
        rng = random.Random(20)
        certified = 0
        for _ in range(2000):
            m = rng.randint(2, 7)
            ws = tuple(sorted((rng.randint(1, 30) for _ in range(m)), reverse=True))
            d = rng.randint(1, 120)
            fam = HypersurfaceFamily(ws, d)
            expected = oracle_failures(ws, d)
            full = quasismooth_exists(fam, diagnostics=True)
            fast = quasismooth_exists(fam)
            assert [astuple(s) for s in full.failing_subsets] == expected, (ws, d)
            assert [astuple(s) for s in fast.failing_subsets] == expected[:1], (ws, d)
            if has_certificate(ws, d):
                assert expected == [], (ws, d)
                certified += 1
        assert certified >= 30

    @staticmethod
    def uncertified_census(dim, **bound):
        """The census's families without a certificate, after checking that
        every family passes the oracle and the library's diagnostics scan."""
        census = enumerate_families(
            SearchConstraints(dimension=dim, canonical_kind=CanonicalKind.CALABI_YAU, **bound)
        )
        left = []
        for fam in census:
            ws, d = fam.weights.canonical, fam.degree
            assert oracle_failures(ws, d) == [], (ws, d)
            assert quasismooth_exists(fam, diagnostics=True).failing_subsets == ()
            if not has_certificate(ws, d):
                left.append((ws, d))
        return len(census), left

    def test_uncertified_k3_families(self):
        assert self.uncertified_census(2) == (95, [
            ((11, 5, 4, 2), 22), ((17, 7, 6, 4), 34), ((17, 10, 4, 3), 34), ((19, 8, 6, 5), 38),
        ])

    def test_uncertified_threefold_families(self):
        families, left = self.uncertified_census(3, max_degree=60)
        assert (families, len(left)) == (1292, 218)

    def test_singleton_diagnostics_match_the_oracle(self):
        # The singletons and the pointer targets come from one divisibility
        # table; weights at or above d and repeated weights meet its edges.
        rng = random.Random(2112)
        failed = cones = above = 0
        for _ in range(1500):
            m = rng.randint(2, 8)
            pool = [rng.randint(1, 24) for _ in range(rng.randint(1, m))]
            ws = tuple(sorted((rng.choice(pool) for _ in range(m)), reverse=True))
            d = rng.choice([rng.randint(1, 24), rng.choice(ws)])
            expected = [f for f in oracle_failures(ws, d) if len(f[0]) == 1]
            got = takewhile(
                lambda s: len(s.subset) == 1, wph.quasismooth._failing_subsets(ws, d)
            )
            assert [astuple(s) for s in got] == expected, (ws, d)
            if d in ws:
                # A linear cone yields no diagnostic at all, of any size.
                assert list(wph.quasismooth._failing_subsets(ws, d)) == [], (ws, d)
            else:
                full = quasismooth_exists(HypersurfaceFamily(ws, d), diagnostics=True)
                assert [astuple(s) for s in full.failing_subsets] == (
                    oracle_failures(ws, d)
                ), (ws, d)
            failed += bool(expected)
            cones += d in ws
            above += ws[0] > d and d not in ws
        assert min(failed, cones, above) >= 100

    def test_shared_target_is_not_a_certificate(self):
        # Both 2s point only at index 2 (3 - 1 = 2): every singleton passes,
        # but the pair {0, 1} represents no 3 and has one outside witness.
        assert pointer_targets((2, 2, 1), 3) == [[2], [2]]
        assert not has_certificate((2, 2, 1), 3)
        report = quasismooth_exists(HypersurfaceFamily([2, 2, 1], 3), diagnostics=True)
        assert [astuple(s) for s in report.failing_subsets] == [((0, 1), False, (2,), 2)]

    def test_matching_agrees_with_brute_force(self):
        # Distinct representatives exist iff some choice of one target per
        # index uses no target twice.
        rng = random.Random(4096)
        found = 0
        for _ in range(3000):
            targets = [
                rng.sample(range(6), rng.randint(0, 3)) for _ in range(rng.randint(0, 6))
            ]
            expected = any(len(set(pick)) == len(pick) for pick in product(*targets))
            assert wph.quasismooth._distinct_pointers(targets) == expected, targets
            found += expected
        assert 500 <= found <= 2500

    def test_decisions_leave_no_cyclic_garbage(self, monkeypatch):
        # The K3 families, some with the degree raised by the smallest
        # weight: most pass their singletons and reach the matching.
        census = enumerate_families(
            SearchConstraints(dimension=2, canonical_kind=CanonicalKind.CALABI_YAU)
        )
        rng = random.Random(31)
        families = [
            HypersurfaceFamily(ws, sum(ws) + rng.choice([0, 0, ws[-1]]))
            for ws in (fam.weights.canonical for fam in census)
            for _ in range(8)
        ]
        matchings = []
        real = wph.quasismooth._distinct_pointers
        monkeypatch.setattr(
            wph.quasismooth, "_distinct_pointers", lambda t: matchings.append(t) or real(t)
        )
        gc.collect()
        gc.disable()
        try:
            exists = [quasismooth_exists(fam).exists for fam in families]
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(matchings) >= 600 and 400 <= sum(exists) <= 700


class TestConsistencyWithMonomialExistence:
    def test_full_graded_piece_passes_when_not_a_cone(self):
        rng = random.Random(4242)
        tested = 0
        while tested < 150:
            length = rng.randint(2, 4)
            ws = tuple(sorted((rng.randint(1, 8) for _ in range(length)), reverse=True))
            d = rng.randint(2, 30)
            fam = HypersurfaceFamily(ws, d)
            report = quasismooth_exists(fam)
            if not report.exists or report.is_linear_cone:
                continue
            rows = enumerate_monomials(fam.weights, d)
            support = PolynomialSupport(fam, rows)
            assert monomial_existence_check(support).passed, (ws, d)
            tested += 1
