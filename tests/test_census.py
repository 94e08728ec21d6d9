import json
import random
import time
from pathlib import Path

import pytest
from conftest import descending_tuples, oracles, reference_cy_census

import wph.census
from wph.census import _lead_pairs, _prefixes

from wph import (
    DEFAULT_CANDIDATE_CAP,
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


COUNTS_FILE = Path(__file__).resolve().parents[1] / "bench" / "census_counts.json"


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


def brute_force(
    dim,
    max_degree,
    kind=CanonicalKind.CALABI_YAU,
    max_weight=None,
    *,
    require_well_formed=True,
    require_quasismooth=True,
    exclude_linear_cones=True,
):
    """Every (weights, degree) pair in range, public predicates only. A
    Calabi-Yau kind tries only d = sum(ws), so only sums <= max_degree."""
    m, max_weight = dim + 2, max_weight or max_degree
    cy = kind is CanonicalKind.CALABI_YAU
    out = []
    for ws in descending_tuples(m, max_weight, max_degree if cy else m * max_weight):
        for d in [sum(ws)] if cy else range(1, max_degree + 1):
            fam = HypersurfaceFamily(ws, d)
            if kind is not None and canonical_class(fam).kind is not kind:
                continue
            if exclude_linear_cones and is_linear_cone(fam):
                continue
            if require_well_formed and not is_well_formed(fam.weights):
                continue
            if require_quasismooth and not quasismooth_exists(fam).exists:
                continue
            out.append(fam)
    out.sort(key=lambda f: (f.degree, f.weights.canonical))
    return out


def singleton_passes(ws, i):
    """The singleton condition at index i for the degree d = sum(ws)."""
    d, a = sum(ws), ws[i]
    return d % a == 0 or any(j != i and (d - b) % a == 0 for j, b in enumerate(ws))


class TestLeadPairs:
    """The (lead, last) pairs of a prefix against every pair in range."""

    @pytest.mark.parametrize("length", [2, 3, 4, 5])
    def test_pairs_meet_the_singleton_conditions_at_the_lead_and_at_a1(self, length):
        rng = random.Random(length)
        checked = kept = 0
        for _ in range(8):
            max_degree = rng.randrange(length + 2, 70)
            top = min(rng.randrange(1, max_degree), max_degree - length)
            prefixes = list(_prefixes(length, top, max_degree))
            for prefix, psum, _, last_max in rng.sample(prefixes, min(12, len(prefixes))):
                seen, by_last = _lead_pairs(prefix, psum, top, last_max, max_degree, 0, 10**9)
                got = {(q, e) for e, leads in by_last.items() for q in leads}
                assert all(len(set(leads)) == len(leads) for leads in by_last.values())
                in_range = [
                    (q, e)
                    for q in range(prefix[0], top + 1)
                    for e in range(1, last_max + 1)
                    if q + psum + e <= max_degree
                ]
                expected = {
                    (q, e)
                    for q, e in in_range
                    if singleton_passes((q, *prefix, e), 0) and singleton_passes((q, *prefix, e), 1)
                }
                assert got == expected, (prefix, top, last_max, max_degree)
                # The count: one per pair and per b = e (q | psum) or b = 0
                # or a distinct prefix weight (q | psum - b + e).
                assert seen == sum(
                    (psum % q == 0) + sum((psum - b + e) % q == 0 for b in {0, *prefix})
                    for q, e in in_range
                )
                checked += 1
                kept += len(got)
        assert checked > 40 and kept > 100

    @pytest.mark.parametrize("m, max_degree", [(3, 80), (4, 60), (5, 40), (6, 36)])
    def test_every_sorted_tuple_of_the_census(self, m, max_degree):
        # Over all prefixes the kept pairs are exactly the sorted m-tuples
        # with sum <= max_degree that meet the singleton conditions at the
        # lead and at a_1.
        length = m - 1
        top = max_degree - length
        got = {
            (q, *prefix, e)
            for prefix, psum, _, last_max in _prefixes(length, top, max_degree)
            for e, leads in _lead_pairs(prefix, psum, top, last_max, max_degree, 0, 10**9)[1].items()
            for q in leads
        }
        expected = {
            ws
            for ws in descending_tuples(m, max_degree, max_degree)
            if singleton_passes(ws, 0) and singleton_passes(ws, 1)
        }
        assert got == expected
        assert len(expected) > 500


class TestDecidedTuples:
    """The tuples the Calabi-Yau census hands to the subset criterion."""

    @pytest.mark.parametrize("dim, max_degree", [(1, 60), (2, 80), (3, 60), (4, 40), (5, 30)])
    def test_exactly_the_raw_test_survivors(self, dim, max_degree, monkeypatch):
        # A raw test that passes too many leads changes only the speed, so
        # the decided tuples themselves are checked: each once, and exactly
        # the well-formed ones that meet the singleton condition everywhere.
        decided = []
        original = wph.census._failing_subsets

        def recorded(ws, d):
            decided.append(ws)
            return original(ws, d)

        monkeypatch.setattr(wph.census, "_failing_subsets", recorded)
        census(dim, max_degree=max_degree)
        assert len(set(decided)) == len(decided)
        m = dim + 2
        expected = {
            ws
            for ws in descending_tuples(m, max_degree, max_degree)
            if oracles.is_well_formed(ws) and all(singleton_passes(ws, i) for i in range(m))
        }
        assert set(decided) == expected
        assert expected


class TestAgainstBruteForce:
    def test_cy_dim1(self):
        assert as_pairs(census(1, max_degree=40)) == as_pairs(brute_force(1, 40))

    def test_cy_dim2(self):
        got = as_pairs(census(2, max_degree=36))
        expected = as_pairs(brute_force(2, 36))
        assert got == expected
        assert len(got) > 20

    def test_cy_dim0(self):
        assert as_pairs(census(0, max_degree=20)) == as_pairs(brute_force(0, 20))

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
        assert got == as_pairs(brute_force(dim, max_degree, **switches))
        assert got == reference_cy_census(cy_constraints(dim, max_degree, **switches))
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
        expected = brute_force(
            dim, max_degree, max_weight=max_weight, require_quasismooth=quasismooth
        )
        assert got == as_pairs(expected)
        assert got == reference_cy_census(cy_constraints(
            dim, max_degree, max_weight=max_weight, require_quasismooth=quasismooth
        ))
        assert all(max(ws) <= max_weight for _, ws in got)
        assert got

    @pytest.mark.parametrize("dim, max_degree, max_weight", [(0, 16, 8), (1, 14, 6), (2, 12, 5)])
    @pytest.mark.parametrize(
        "kind", [None, CanonicalKind.FANO, CanonicalKind.GENERAL_TYPE], ids=["any", "fano", "gt"]
    )
    @pytest.mark.parametrize("well_formed", [True, False])
    @pytest.mark.parametrize("quasismooth", [True, False])
    @pytest.mark.parametrize("linear_cones", [True, False])
    def test_generic_every_filter_combination(
        self, dim, max_degree, max_weight, kind, well_formed, quasismooth, linear_cones
    ):
        switches = dict(
            require_well_formed=well_formed,
            require_quasismooth=quasismooth,
            exclude_linear_cones=linear_cones,
        )
        got = census(dim, kind, max_degree=max_degree, max_weight=max_weight, **switches)
        expected = brute_force(dim, max_degree, kind, max_weight, **switches)
        assert as_pairs(got) == as_pairs(expected)
        assert all(f.weights.original == f.weights.canonical for f in got)
        # A Fano point P(a, b) in range that is well-formed or quasismooth is
        # a linear cone; every other combination finds families.
        assert got or (dim == 0 and kind is CanonicalKind.FANO and linear_cones)


class TestAgainstReferenceEnumerator:
    """The lead loop against the divisor-table census it replaced."""

    @pytest.mark.parametrize("dim, max_degree", [(2, 120), (3, 60), (4, 30)])
    def test_cy(self, dim, max_degree):
        got = as_pairs(census(dim, max_degree=max_degree))
        assert got == reference_cy_census(cy_constraints(dim, max_degree))
        # The brute force at dim 2 to 120 takes several seconds; dims 0-3
        # meet it at smaller bounds above.
        if dim > 2:
            assert got == as_pairs(brute_force(dim, max_degree))
        assert got


class TestGenericSearch:
    @pytest.mark.parametrize("kind", [CanonicalKind.FANO, CanonicalKind.GENERAL_TYPE])
    def test_kind_matches_brute_force(self, kind, monkeypatch):
        tried = []
        original = wph.census._failing_subsets

        def recorded(ws, d):
            tried.append(HypersurfaceFamily(ws, d))
            return original(ws, d)

        monkeypatch.setattr(wph.census, "_failing_subsets", recorded)
        constraints = SearchConstraints(
            dimension=1, canonical_kind=kind, max_degree=14, max_weight=5
        )
        got = as_pairs(enumerate_families(constraints))
        assert got == as_pairs(brute_force(1, 14, kind, 5))
        assert got
        # Only degrees on the kind's side of the weight sum reach the decision.
        assert tried
        assert all(canonical_class(fam).kind is kind for fam in tried)


class TestPostHocVerification:
    """The census decides on raw integers; the public predicates agree."""

    def test_every_returned_family_passes_predicates(self):
        for dim, max_degree, families in [(2, 60, 94), (3, 80, 1884)]:
            found = census(dim, max_degree=max_degree)
            assert len(found) == families
            for fam in found:
                assert is_well_formed(fam.weights)
                assert quasismooth_exists(fam).exists
                assert not is_linear_cone(fam)
                assert canonical_class(fam).kind is CanonicalKind.CALABI_YAU
                assert fam.weights.original == fam.weights.canonical

    @pytest.mark.parametrize("dim", [2, 3])
    def test_counts_match_the_recorded_table(self, dim):
        # bench/census_counts.json holds brute-force counts for every bound
        # up to 100; one census at 100 gives each of them.
        table = json.loads(COUNTS_FILE.read_text(encoding="utf-8"))[f"dim{dim}"]
        assert table["max_bound"] == 100
        degrees = [fam.degree for fam in census(dim, max_degree=100)]
        got = [sum(d <= bound for d in degrees) for bound in range(101)]
        assert got == table["count_upto"]


class TestResourceCap:
    def test_cy_cap(self):
        with pytest.raises(ResourceCapError):
            census(2, max_degree=300, candidate_cap=50)

    def test_cy_cap_threshold(self):
        # The steps of this census number 1341: 127 prefixes walked and 1214
        # (lead, last) pairs generated by the singleton condition at the lead
        # (435 distinct pairs pass the one at a_1). The tests that reject
        # pairs after those two do not lower that count.
        assert len(census(2, max_degree=40, candidate_cap=1341)) == 87
        with pytest.raises(ResourceCapError):
            census(2, max_degree=40, candidate_cap=1340)

    def test_cy_cap_threshold_at_the_leads(self):
        # The elliptic census to 30 takes 165 steps: 14 prefixes and 151
        # (lead, last) pairs, the last ones counted at the last prefix.
        assert len(census(1, max_degree=30, candidate_cap=165)) == 3
        with pytest.raises(ResourceCapError):
            census(1, max_degree=30, candidate_cap=164)

    def test_cy_cap_threshold_every_lead(self):
        # Without the quasismooth filter every (lead, last) pair in range
        # counts: 14 prefixes and 785 pairs.
        found = census(1, max_degree=30, require_quasismooth=False, candidate_cap=799)
        assert len(found) == 260
        with pytest.raises(ResourceCapError):
            census(1, max_degree=30, require_quasismooth=False, candidate_cap=798)

    def test_cy_past_the_subset_variable_cap(self):
        # 25 weights: no Calabi-Yau tuple has d <= 24, and from 25 on P(1^25)
        # is a candidate that meets the subset criterion's variable cap.
        assert census(23, max_degree=24) == []
        with pytest.raises(ResourceCapError, match="limited to 24 variables, got 25"):
            census(23, max_degree=25)
        # Without the quasismooth filter nothing reaches the criterion.
        found = census(23, max_degree=30, require_quasismooth=False)
        assert len(found) == 19
        assert all(len(fam.weights) == 25 and is_well_formed(fam.weights) for fam in found)

    def test_cy_variable_cap_before_the_walk(self, monkeypatch):
        # The cap is checked before any prefix is walked, so a census with
        # many weights fails at once and not at its first decided candidate.
        def walked(*args):
            pytest.fail("the prefix walk ran")

        monkeypatch.setattr(wph.census, "_prefixes", walked)
        with pytest.raises(ResourceCapError, match="limited to 24 variables, got 32"):
            census(30, max_degree=40)

    def test_generic_cap_threshold(self):
        # C(5 + 2, 3) = 35 weight tuples times 14 degrees: 490 pairs.
        fields = dict(dimension=1, canonical_kind=None, max_degree=14, max_weight=5)
        assert enumerate_families(SearchConstraints(**fields, candidate_cap=490))
        with pytest.raises(ResourceCapError, match="more than 489 "):
            enumerate_families(SearchConstraints(**fields, candidate_cap=489))
        # C(2 + 2, 2) = 6 pairs at max weight 3 and degree 1: the smaller
        # index 2 is one below the bit length of the cap 6, and takes the
        # binomial.
        assert census(0, None, max_weight=3, max_degree=1, candidate_cap=6) == []
        with pytest.raises(ResourceCapError, match="more than 5 "):
            census(0, None, max_weight=3, max_degree=1, candidate_cap=5)

    def test_generic_cap_check_is_bounded(self):
        # The exact pair count has millions of digits; the smaller binomial
        # index, 99 999, passes the cap's bit length, so no binomial is taken.
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match="more than 50000000 "):
            census(4_000_000, None, max_weight=100_000, max_degree=3)
        assert time.perf_counter() - start < 5

    def test_generic_past_the_subset_variable_cap(self):
        # P(1^25) at d = 1 is a linear cone and is dropped; d = 2 reaches the
        # subset criterion's variable cap.
        assert census(23, None, max_weight=1, max_degree=1) == []
        with pytest.raises(ResourceCapError, match="limited to 24 variables, got 25"):
            census(23, None, max_weight=1, max_degree=2)
        found = census(23, None, max_weight=1, max_degree=2, require_quasismooth=False)
        assert as_pairs(found) == [(2, (1,) * 25)]

    def test_cy_prefix_walk_past_the_recursion_limit(self):
        # 2001 smaller weights, each prefix one longer than the last.
        found = census(2000, max_degree=2003, require_quasismooth=False)
        assert as_pairs(found) == [(2002, (1,) * 2002), (2003, (2,) + (1,) * 2001)]
        with pytest.raises(ResourceCapError, match="limited to 24 variables, got 2002"):
            census(2000, max_degree=2003)

    def test_cy_prefix_walk_linear_in_the_weight_count(self):
        # The trailing ones of a prefix are appended in one step. Appended one
        # weight at a time, 64 001 smaller weights make a quadratic walk of
        # several seconds.
        start = time.perf_counter()
        found = census(64_000, max_degree=64_003, require_quasismooth=False)
        assert time.perf_counter() - start < 2
        assert as_pairs(found) == [(64_002, (1,) * 64_002), (64_003, (2,) + (1,) * 64_001)]

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

    @pytest.mark.parametrize("value", ["cy", "calabi_yau", 0, CanonicalKind])
    def test_canonical_kind_must_be_an_enum_member(self, value):
        with pytest.raises(ValidationError, match="canonical_kind"):
            SearchConstraints(dimension=1, canonical_kind=value, max_degree=30)

    @pytest.mark.parametrize(
        "field", ["require_well_formed", "require_quasismooth", "exclude_linear_cones"]
    )
    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_flags_must_be_bools(self, field, value):
        with pytest.raises(ValidationError, match=field):
            SearchConstraints(dimension=1, max_degree=30, **{field: value})

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
        defaults = SearchConstraints(dimension=1)
        assert defaults.max_weight is None
        assert (defaults.max_degree, defaults.candidate_cap) == (300, DEFAULT_CANDIDATE_CAP)
        assert defaults.require_well_formed is True
        assert defaults.require_quasismooth is True
        assert defaults.exclude_linear_cones is True
