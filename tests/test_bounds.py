import dataclasses
import random
import time
from fractions import Fraction
from math import factorial

import pytest

from wph import (
    CURVE_EFFECTIVE_CONSTANT,
    DimensionError,
    Finiteness,
    HypersurfaceFamily,
    InfiniteGroupError,
    JordanEntry,
    JordanTable,
    MissingJordanEntryError,
    ValidationError,
    WeightSystem,
    chermak_delgado_bounds,
    curve_bound,
    fermat_prediction,
    lin_finiteness,
    lin_order_bound,
    weak_jordan_of_aut,
    worst_case_constant,
)

from conftest import oracles, partition_walk_constant


def table_with(entries):
    return JordanTable({n: JordanEntry(Fraction(v), "test fixture") for n, v in entries.items()})


class TestFiniteness:
    def test_examples(self):
        r1 = lin_finiteness(HypersurfaceFamily([1, 1, 1], 4))
        assert r1.finite and r1.reason is Finiteness.DEG_ABOVE_TWICE_MAX
        r2 = lin_finiteness(HypersurfaceFamily([3, 1, 1], 6))
        assert r2.finite and r2.reason is Finiteness.DEG_TWICE_UNIQUE_MAX
        r3 = lin_finiteness(HypersurfaceFamily([2, 2, 1, 1], 4))
        assert not r3.finite and r3.rational_flag

    def test_agrees_with_direct_inequality(self):
        from itertools import combinations_with_replacement

        for ws in combinations_with_replacement(range(1, 8), 4):
            mx = max(ws)
            for d in range(1, 30):
                expected = d > 2 * mx or (d == 2 * mx and ws.count(mx) == 1)
                assert lin_finiteness(HypersurfaceFamily(ws, d)).finite == expected


class TestJordanTable:
    def test_defaults(self):
        t = JordanTable()
        assert t.value(1) == 1
        assert t.value(2) == 12
        assert t.value(71) == factorial(72)
        assert t.value(100) == factorial(101)

    def test_missing_entry(self):
        t = JordanTable()
        with pytest.raises(MissingJordanEntryError) as err:
            t.value(3)
        assert err.value.n == 3
        assert "N=3" in str(err.value) or "GL_3" in str(err.value)

    def test_pinned_entries_enforced(self):
        with pytest.raises(ValidationError, match="pinned"):
            table_with({2: 10})
        # agreeing override is fine
        assert table_with({2: 12}).value(2) == 12

    def test_override_large_n(self):
        t = table_with({71: 5})
        assert t.value(71) == 5
        assert t.value(72) == factorial(73)

    def test_value_floor(self):
        with pytest.raises(ValidationError):
            table_with({3: Fraction(1, 2)})

    def test_parse_values_and_trailing_comment(self):
        text = "# weak Jordan constants\n3 360 small-dimension table\n4 25920 small-dimension table\n5 21/2 nonsense rational  # trailing comment\n"
        t = JordanTable.parse(text)
        assert t.value(3) == 360
        assert t.value(5) == Fraction(21, 2)
        assert t.entry(5).provenance == "nonsense rational"

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "jordan.txt"
        path.write_text("3 360 test fixture\n", encoding="utf-8")
        assert JordanTable.load(path) == table_with({3: 360})

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0 7 a", "Jordan table key must be >= 1, got 0"),
            ("3 1/2 a", "Jordan constant for N=3 must be >= 1"),
            ("2 13 x", "entry for N=2 is pinned to 12, got 13"),
        ],
    )
    def test_parse_names_the_line_of_an_entry_defect(self, line, message):
        with pytest.raises(ValidationError, match=f"^Jordan table line 2: {message}$"):
            JordanTable.parse(f"4 25920 ok\n{line}\n")

    def test_parse_errors(self):
        with pytest.raises(ValidationError, match="line 1"):
            JordanTable.parse("banana\n")
        with pytest.raises(ValidationError, match="line 2"):
            JordanTable.parse("3 360 ok\n4 twelve bad\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 360 first\n3 720 second\n", "line 2: N=3 repeats the entry of line 1"),
            ("3 360 a\n4 25920 b\n# 3 1\n03 360 same value\n", "line 4: N=3 repeats .* line 1"),
            ("1 1 pinned\n1 1 again\n", "line 2: N=1 repeats the entry of line 1"),
        ],
    )
    def test_parse_rejects_a_repeated_n(self, text, message):
        with pytest.raises(ValidationError, match=message):
            JordanTable.parse(text)

    @pytest.mark.parametrize(
        "line, token",
        [
            ("1_0 7 a", "1_0"),
            ("\u0663 7 a", "\u0663"),
            ("3 1_2/5 a", "1_2"),
            ("3 12/\uff15 a", "\uff15"),
            ("3.0 12 a", "3.0"),
            ("3 7.5 a", "7.5"),
        ],
    )
    def test_parse_takes_plain_integers_only(self, line, token):
        with pytest.raises(ValidationError, match=f"line 2: {token!r} is not an integer"):
            JordanTable.parse(f"4 25920 ok\n{line}\n")

    @pytest.mark.parametrize("key", [2.7, True, "3", Fraction(3)])
    def test_keys_and_lookups_are_integers(self, key):
        entry = JordanEntry(Fraction(360), "test fixture")
        with pytest.raises(ValidationError, match="must be an integer"):
            JordanTable({key: entry})
        with pytest.raises(ValidationError, match="must be an integer"):
            JordanTable().entry(key)

    @pytest.mark.parametrize("value", [0.1, 360.5, True, " 360 ", "360.0", "1_000", "1e3"])
    def test_entry_values_follow_the_rational_rule(self, value):
        with pytest.raises(ValidationError, match=r"Jordan constant for N=3"):
            JordanTable({3: JordanEntry(value, "test fixture")})

    @pytest.mark.parametrize("value, expected", [("360", 360), ("721/2", Fraction(721, 2))])
    def test_entry_values_may_be_plain_text(self, value, expected):
        assert JordanTable({3: JordanEntry(value, "test fixture")}).value(3) == expected

    def test_zero_denominator_named(self):
        with pytest.raises(ValidationError, match="line 1: '7/0' has a zero denominator"):
            JordanTable.parse("3 7/0 a\n")

    def test_tables_are_frozen_and_hash_by_value(self):
        t = table_with({3: 360})
        with pytest.raises(TypeError):
            t.entries[1] = JordanEntry(Fraction(5), "override")
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.entries = {}
        assert t.value(1) == 1
        assert hash(JordanTable()) == hash(JordanTable())
        assert len({JordanTable(), JordanTable(), t, table_with({3: 360})}) == 2
        assert t != JordanTable()

    def test_chermak_delgado_window(self):
        lo, hi = chermak_delgado_bounds(Fraction(12))
        assert (lo, hi) == (12, 144)
        assert chermak_delgado_bounds("3/2") == (Fraction(3, 2), Fraction(9, 4))
        with pytest.raises(ValidationError, match="weak Jordan constant"):
            chermak_delgado_bounds(1.5)


class TestWeakJordan:
    def test_distinct_weights_give_one(self):
        t = JordanTable()
        assert weak_jordan_of_aut(WeightSystem([36, 31, 30, 25]), t) == 1

    def test_two_equal_weights_give_twelve(self):
        t = JordanTable()
        for a in (2, 3, 9):
            assert weak_jordan_of_aut(WeightSystem([a, 1, 1]), t) == 12

    def test_multiplicity_three_needs_table(self):
        t = JordanTable()
        with pytest.raises(MissingJordanEntryError):
            weak_jordan_of_aut(WeightSystem([1, 1, 1]), t)
        assert weak_jordan_of_aut(WeightSystem([1, 1, 1]), table_with({3: 360})) == 360

    def test_product_over_groups(self):
        t = table_with({3: 360})
        # multiplicities 3 and 2: product 360 * 12
        assert weak_jordan_of_aut(WeightSystem([2, 2, 2, 1, 1]), t) == 4320


class TestPartitionWalk:
    """The rows ``partition_walk_constant`` walks, the reference for ``worst_case_constant``:
    the degree-n piece of weights 1, ..., n, each row a partition of n as part multiplicities."""

    def test_examples(self):
        assert sorted(oracles.graded_piece([1, 2, 3], 3)) == [(0, 0, 1), (1, 1, 0), (3, 0, 0)]
        assert oracles.graded_piece([1], 1) == [(1,)]

    def test_counts_match_partition_numbers(self):
        # p(n) for n = 1..16, OEIS A000041.
        expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231]
        for n, p_n in enumerate(expected, 1):
            rows = oracles.graded_piece(list(range(1, n + 1)), n)
            assert len(rows) == len(set(rows)) == p_n
            for counts in rows:
                assert sum(part * c for part, c in enumerate(counts, 1)) == n


class TestWorstCase:
    def test_partitions_of_three(self):
        t = table_with({3: 360})
        # partitions of 3: {3} -> 360, {2,1} -> 12, {1,1,1} -> 1
        assert worst_case_constant(1, t) == 360

    def test_small_table_max(self):
        t = table_with({3: 5})
        assert worst_case_constant(1, t) == 12

    def test_dimension_zero(self):
        assert worst_case_constant(0, JordanTable()) == 12

    def test_dimension_two_over_all_partitions(self):
        t = table_with({3: 360, 4: 25920})
        # partitions of 4: {4}, {3,1}, {2,2}, {2,1,1}, {1,1,1,1}
        assert worst_case_constant(2, t) == 25920
        small = table_with({3: 5, 4: 7})
        # {2,2} wins with 144
        assert worst_case_constant(2, small) == 144

    def test_monotone_in_entries(self):
        low = table_with({3: 20, 4: 50})
        high = table_with({3: 21, 4: 50})
        assert worst_case_constant(2, low) <= worst_case_constant(2, high)

    def test_matches_partition_walk(self):
        rng = random.Random(14)
        raised = 0
        for _ in range(200):
            n = rng.randint(0, 14)
            entries = {
                k: Fraction(rng.randint(1, 10**6), rng.randint(1, 50))
                for k in range(3, n + 3)
                if rng.random() < 0.95
            }
            entries = {k: max(v, 1) for k, v in entries.items()}
            t = table_with(entries)
            missing = [k for k in range(3, n + 3) if k not in entries]
            if missing:
                raised += 1
                with pytest.raises(MissingJordanEntryError):
                    partition_walk_constant(n, t)
                with pytest.raises(MissingJordanEntryError) as info:
                    worst_case_constant(n, t)
                assert info.value.n == missing[0]
            else:
                assert worst_case_constant(n, t) == partition_walk_constant(n, t)
        assert 20 <= raised <= 180

    def test_full_table_at_dimension_68_is_fast(self):
        t = table_with({k: factorial(k + 1) for k in range(3, 71)})
        start = time.perf_counter()
        value = worst_case_constant(68, t)
        assert time.perf_counter() - start < 1.0
        assert value == factorial(71)

    def test_curve_constant_exposed_separately(self):
        assert CURVE_EFFECTIVE_CONSTANT == Fraction(21, 2)


class TestOrderBound:
    def test_flagship(self):
        bound = lin_order_bound(
            HypersurfaceFamily([36, 31, 30, 25], 180), JordanTable()
        )
        assert bound.weak_jordan == 1
        assert bound.exact == Fraction(180**3, 36 * 31 * 30 * 25)
        assert bound.exact == Fraction(5832000, 837000)
        assert bound.floor == 6

    def test_hyperelliptic(self):
        bound = lin_order_bound(HypersurfaceFamily([3, 1, 1], 6), JordanTable())
        assert bound.weak_jordan == 12
        assert bound.exact == 144 and bound.floor == 144

    def test_fermat_quintic_surface_with_table(self):
        t = table_with({4: factorial(4)})
        bound = lin_order_bound(HypersurfaceFamily([1, 1, 1, 1], 5), t)
        assert bound.exact == 24 * 125
        # consistency: the Fermat count is attainable, so the table value
        # must be at least (n+2)! for the bound to sit above it
        assert fermat_prediction(2, 5).total <= bound.exact

    def test_infinite_group_rejected(self):
        with pytest.raises(InfiniteGroupError):
            lin_order_bound(HypersurfaceFamily([2, 2, 1, 1], 4), JordanTable())

    def test_missing_entry_propagates(self):
        with pytest.raises(MissingJordanEntryError):
            lin_order_bound(HypersurfaceFamily([1, 1, 1, 1], 5), JordanTable())

    def test_fermat_total_below_bound_for_factorial_tables(self):
        for n, d in [(1, 4), (2, 5), (3, 4)]:
            t = table_with({k: factorial(k + 1) for k in range(3, n + 3)})
            fam = HypersurfaceFamily([1] * (n + 2), d)
            bound = lin_order_bound(fam, t)
            assert fermat_prediction(n, d).total <= bound.exact


class TestCurveBound:
    def test_klein_exception(self):
        result = curve_bound(HypersurfaceFamily([1, 1, 1], 4))
        assert result.bound == 96
        assert [e.order for e in result.exceptions] == [168]
        assert result.exceptions[0].name == "Klein quartic"

    def test_wiman_exception(self):
        result = curve_bound(HypersurfaceFamily([1, 1, 1], 6))
        assert result.bound == 216
        assert [e.order for e in result.exceptions] == [360]

    def test_weighted_curve_no_exception(self):
        result = curve_bound(HypersurfaceFamily([3, 1, 1], 6))
        assert result.bound == 72
        assert result.exceptions == ()

    def test_plane_quintic_no_exception(self):
        assert curve_bound(HypersurfaceFamily([1, 1, 1], 5)).exceptions == ()

    def test_wrong_dimension(self):
        with pytest.raises(DimensionError):
            curve_bound(HypersurfaceFamily([1, 1, 1, 1], 4))

    def test_infinite_group(self):
        with pytest.raises(InfiniteGroupError):
            curve_bound(HypersurfaceFamily([1, 1, 1], 2))


class TestDiagonalRespectsBound:
    def test_lin_diagonal_at_most_bound_floor(self):
        import random

        from wph import lin_diagonal_order
        from conftest import random_finite_support

        # any table value >= 1 keeps the diagonal part under the bound
        t = table_with({3: 1, 4: 1, 5: 1})
        rng = random.Random(6060)
        checked = 0
        while checked < 60:
            fam, support = random_finite_support(rng)
            from math import gcd

            g = 0
            for a in fam.weights.original:
                g = gcd(g, a)
            if g != 1:
                continue
            order = lin_diagonal_order(support)
            bound = lin_order_bound(fam, t)
            assert order is not None and order <= bound.floor, (fam, support.rows)
            checked += 1
