from itertools import combinations_with_replacement

import pytest
from conftest import reference_cy_census

import wph.census
from wph.census import _dominated_lasts

from wph import (
    CanonicalKind,
    HypersurfaceFamily,
    ResourceCapError,
    SearchConstraints,
    ValidationError,
    canonical_class,
    enumerate_families,
    is_linear_cone,
    is_well_formed,
    quasismooth_exists,
)


class IndexOnly:
    """An integer-like value that is not an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def census(dim, kind=CanonicalKind.CALABI_YAU, **kwargs):
    return enumerate_families(
        SearchConstraints(dimension=dim, canonical_kind=kind, **kwargs)
    )


def cy_constraints(dim, max_degree, **kwargs):
    return SearchConstraints(
        dimension=dim, canonical_kind=CanonicalKind.CALABI_YAU, max_degree=max_degree, **kwargs
    )


def as_pairs(families):
    return [(f.degree, f.weights.canonical) for f in families]


def brute_force_cy(
    dim,
    max_degree,
    *,
    require_well_formed=True,
    require_quasismooth=True,
    exclude_linear_cones=True,
    max_weight=None,
):
    """Direct scan of every sorted weight tuple, public predicates only."""
    m = dim + 2
    out = []
    for ws in combinations_with_replacement(range(1, max_degree + 1), m):
        d = sum(ws)
        if d > max_degree or (max_weight is not None and ws[-1] > max_weight):
            continue
        fam = HypersurfaceFamily.of(tuple(reversed(ws)), d)
        if exclude_linear_cones and is_linear_cone(fam):
            continue
        if require_well_formed and not is_well_formed(fam.weights):
            continue
        if require_quasismooth and not quasismooth_exists(fam).exists:
            continue
        out.append(fam)
    out.sort(key=lambda f: (f.degree, f.weights.canonical))
    return out


def descending_tuples(length, bound, budget):
    """Non-increasing tuples of positive integers at most bound, sum <= budget."""
    if length == 0:
        yield ()
        return
    for e in range(min(bound, budget - length + 1), 0, -1):
        for rest in descending_tuples(length - 1, e, budget - e):
            yield (e,) + rest


def singleton_passes(ws, i):
    """The singleton condition at index i for the degree d = sum(ws)."""
    d, a = sum(ws), ws[i]
    return d % a == 0 or any(j != i and (d - b) % a == 0 for j, b in enumerate(ws))


class TestDominanceLemma:
    """The dominance test of the census on every sorted Calabi-Yau tuple."""

    @pytest.mark.parametrize("m, max_degree", [(3, 80), (4, 60), (5, 40), (6, 36)])
    def test_dominant_tuples_meet_the_equations(self, m, max_degree):
        checked = dominant = 0
        for ws in descending_tuples(m, max_degree, max_degree):
            if not (singleton_passes(ws, 0) and singleton_passes(ws, 1)):
                continue
            checked += 1
            q, a1, *tail = ws
            s = sum(tail)
            if m >= 4:
                assert a1 <= 2 * s, ws
            if s >= a1:
                continue
            dominant += 1
            witnesses = {0, *tail}
            assert any(
                q == a1 + s - b and (a1 == 2 * s - b - b2 or (m == 3 and 2 * s == b + b2))
                for b in witnesses
                for b2 in witnesses
            ), ws
        assert checked > 500
        assert dominant > 25

    @pytest.mark.parametrize("tail_length", [1, 2, 3])
    def test_dominated_lasts_solve_the_equations(self, tail_length):
        # Every e below the split that some b, b' in {0, e} or the tail
        # satisfy, and no other; a_1 = 2 (rest) lets every e through.
        every_e = 0
        for a1 in range(2, 25):
            for tail in descending_tuples(tail_length, a1, a1 - 1):
                rest = sum(tail)
                hi = a1 - rest - 1
                expected = [
                    e
                    for e in range(1, hi + 1)
                    if any(
                        a1 == 2 * (rest + e) - b - b2
                        for b in (0, e, *tail)
                        for b2 in (0, e, *tail)
                    )
                ]
                assert list(_dominated_lasts(a1, rest, tail, hi)) == expected, (a1, tail)
                every_e += a1 == 2 * rest and hi > 0
        assert every_e


class TestEllipticCensus:
    def test_classical_triples(self):
        got = as_pairs(census(1, max_degree=30))
        assert got == [(3, (1, 1, 1)), (4, (2, 1, 1)), (6, (3, 2, 1))]

    def test_saturation(self):
        assert as_pairs(census(1, max_degree=30)) == as_pairs(census(1, max_degree=60))

    def test_empty_below_threshold(self):
        assert census(1, max_degree=2) == []


class TestAgainstBruteForce:
    def test_cy_dim1(self):
        assert as_pairs(census(1, max_degree=40)) == as_pairs(brute_force_cy(1, 40))

    def test_cy_dim2(self):
        got = as_pairs(census(2, max_degree=36))
        expected = as_pairs(brute_force_cy(2, 36))
        assert got == expected
        assert len(got) > 20

    def test_cy_dim0(self):
        assert as_pairs(census(0, max_degree=20)) == as_pairs(brute_force_cy(0, 20))

    @pytest.mark.parametrize("dim, max_degree", [(0, 20), (1, 30), (2, 44), (3, 30)])
    @pytest.mark.parametrize("well_formed", [True, False])
    @pytest.mark.parametrize("quasismooth", [True, False])
    @pytest.mark.parametrize("linear_cones", [True, False])
    def test_cy_every_filter_combination(
        self, dim, max_degree, well_formed, quasismooth, linear_cones
    ):
        switches = dict(
            require_well_formed=well_formed,
            require_quasismooth=quasismooth,
            exclude_linear_cones=linear_cones,
        )
        got = as_pairs(census(dim, max_degree=max_degree, **switches))
        assert got == as_pairs(brute_force_cy(dim, max_degree, **switches))
        assert got == as_pairs(reference_cy_census(cy_constraints(dim, max_degree, **switches)))
        assert got

    @pytest.mark.parametrize(
        "dim, max_degree, max_weight",
        [(0, 20, 1), (0, 20, 7), (1, 30, 2), (1, 30, 5), (2, 44, 9), (2, 44, 15), (3, 30, 6)],
    )
    @pytest.mark.parametrize("quasismooth", [True, False])
    def test_cy_max_weight(self, dim, max_degree, max_weight, quasismooth):
        got = as_pairs(
            census(dim, max_degree=max_degree, max_weight=max_weight,
                   require_quasismooth=quasismooth)
        )
        expected = brute_force_cy(
            dim, max_degree, max_weight=max_weight, require_quasismooth=quasismooth
        )
        assert got == as_pairs(expected)
        assert got == as_pairs(reference_cy_census(cy_constraints(
            dim, max_degree, max_weight=max_weight, require_quasismooth=quasismooth
        )))
        assert all(max(ws) <= max_weight for _, ws in got)
        assert got


class TestAgainstReferenceEnumerator:
    """The lead loop against the divisor-table census it replaced."""

    @pytest.mark.parametrize("dim, max_degree", [(2, 120), (3, 60), (4, 30)])
    def test_cy(self, dim, max_degree):
        got = as_pairs(census(dim, max_degree=max_degree))
        assert got == as_pairs(reference_cy_census(cy_constraints(dim, max_degree)))
        # The brute force at dim 2 to 120 takes several seconds; dims 0-3
        # meet it at smaller bounds above.
        if dim > 2:
            assert got == as_pairs(brute_force_cy(dim, max_degree))
        assert got


class TestGenericSearch:
    def test_matches_brute_force(self):
        constraints = SearchConstraints(
            dimension=1,
            canonical_kind=None,
            max_degree=12,
            max_weight=5,
        )
        got = as_pairs(enumerate_families(constraints))
        expected = []
        for ws in combinations_with_replacement(range(1, 6), 3):
            w = tuple(reversed(ws))
            for d in range(1, 13):
                fam = HypersurfaceFamily.of(w, d)
                if is_linear_cone(fam):
                    continue
                if not is_well_formed(fam.weights):
                    continue
                if not quasismooth_exists(fam).exists:
                    continue
                expected.append((d, fam.weights.canonical))
        expected.sort()
        assert got == expected
        assert len(got) > 0

    @pytest.mark.parametrize("kind", [CanonicalKind.FANO, CanonicalKind.GENERAL_TYPE])
    def test_kind_matches_brute_force(self, kind, monkeypatch):
        tried = []
        original = wph.census._passes_filters

        def recorded(fam, c):
            tried.append(fam)
            return original(fam, c)

        monkeypatch.setattr(wph.census, "_passes_filters", recorded)
        constraints = SearchConstraints(
            dimension=1, canonical_kind=kind, max_degree=14, max_weight=5
        )
        got = as_pairs(enumerate_families(constraints))
        expected = []
        for ws in combinations_with_replacement(range(1, 6), 3):
            for d in range(1, 15):
                fam = HypersurfaceFamily.of(tuple(reversed(ws)), d)
                if (
                    canonical_class(fam).kind is kind
                    and not is_linear_cone(fam)
                    and is_well_formed(fam.weights)
                    and quasismooth_exists(fam).exists
                ):
                    expected.append((d, fam.weights.canonical))
        assert got == sorted(expected)
        assert got
        # Only degrees on the kind's side of the weight sum reach the filters.
        assert tried
        assert all(canonical_class(fam).kind is kind for fam in tried)

    def test_fano_filter(self):
        constraints = SearchConstraints(
            dimension=1,
            canonical_kind=CanonicalKind.FANO,
            max_degree=10,
            max_weight=4,
        )
        families = enumerate_families(constraints)
        assert families
        for fam in families:
            assert canonical_class(fam).kind is CanonicalKind.FANO

    def test_cy_without_quasismooth_filter(self):
        got = as_pairs(
            census(1, max_degree=20, require_quasismooth=False)
        )
        expected = []
        for ws in combinations_with_replacement(range(1, 20), 3):
            d = sum(ws)
            if d > 20:
                continue
            fam = HypersurfaceFamily.of(tuple(reversed(ws)), d)
            if is_linear_cone(fam) or not is_well_formed(fam.weights):
                continue
            expected.append((d, fam.weights.canonical))
        expected.sort()
        assert got == expected
        # strictly more than the quasismooth census on the same range
        assert len(got) > len(census(1, max_degree=20))

    def test_filters_can_be_disabled(self):
        constraints = SearchConstraints(
            dimension=0,
            canonical_kind=None,
            max_degree=4,
            max_weight=2,
            require_well_formed=False,
            require_quasismooth=False,
            exclude_linear_cones=False,
        )
        families = enumerate_families(constraints)
        # 3 sorted pairs from {1, 2} times 4 degrees
        assert len(families) == 12


class TestPostHocVerification:
    def test_every_returned_family_passes_predicates(self):
        for fam in census(2, max_degree=60):
            assert is_well_formed(fam.weights)
            assert quasismooth_exists(fam).exists
            assert not is_linear_cone(fam)
            assert canonical_class(fam).kind is CanonicalKind.CALABI_YAU
            assert fam.weights.original == fam.weights.canonical


class TestResourceCap:
    def test_cy_cap(self):
        with pytest.raises(ResourceCapError):
            census(2, max_degree=300, candidate_cap=50)

    def test_cy_cap_threshold(self):
        # The steps of this census number 1020: 127 prefixes walked, 303
        # smaller-weight tuples visited (of 478 with sum plus largest within
        # the bound; the dominance test skips the other 175 uncounted) and
        # 590 leads kept by the singleton condition at the lead. The tests
        # that reject leads before any family is built do not lower that count.
        assert len(census(2, max_degree=40, candidate_cap=1020)) == 87
        with pytest.raises(ResourceCapError):
            census(2, max_degree=40, candidate_cap=1019)

    def test_generic_cap(self):
        constraints = SearchConstraints(
            dimension=2,
            canonical_kind=None,
            max_degree=1000,
            max_weight=1000,
            candidate_cap=1000,
        )
        with pytest.raises(ResourceCapError):
            enumerate_families(constraints)

    def test_constraint_validation(self):
        with pytest.raises(ValidationError):
            SearchConstraints(dimension=-1)
        with pytest.raises(ValidationError):
            SearchConstraints(dimension=1, max_degree=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dimension", True),
            ("dimension", 1.0),
            ("max_degree", 30.0),
            ("max_degree", True),
            ("max_weight", 5.0),
            ("max_weight", False),
            ("candidate_cap", 2.5),
            ("candidate_cap", True),
            ("candidate_cap", "100"),
        ],
    )
    def test_integer_fields_reject_bools_and_floats(self, field, value):
        fields = dict(dimension=1, canonical_kind=CanonicalKind.CALABI_YAU, max_degree=30)
        fields[field] = value
        with pytest.raises(ValidationError, match=field):
            SearchConstraints(**fields)

    def test_integer_fields_are_plain_ints(self):
        c = SearchConstraints(
            dimension=IndexOnly(1),
            max_degree=IndexOnly(30),
            max_weight=IndexOnly(5),
            candidate_cap=IndexOnly(99),
        )
        got = (c.dimension, c.max_degree, c.max_weight, c.candidate_cap)
        assert got == (1, 30, 5, 99)
        assert {type(v) for v in got} == {int}
        assert SearchConstraints(dimension=1).max_weight is None
