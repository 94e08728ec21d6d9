from itertools import combinations_with_replacement

import pytest
from conftest import reference_cy_census

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
        # The steps of this census number 1357: the smaller-weight tuples
        # visited plus the leads the singleton condition at the lead keeps;
        # the tests that reject leads before any family is built do not
        # lower that count.
        assert len(census(2, max_degree=40, candidate_cap=1357)) == 87
        with pytest.raises(ResourceCapError):
            census(2, max_degree=40, candidate_cap=1356)

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
