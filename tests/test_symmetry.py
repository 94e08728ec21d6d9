import random
from math import gcd, prod

import pytest

import wph.symmetry
from wph import (
    FERMAT_DIMENSION_CAP,
    AbelianGroupStructure,
    HypersurfaceFamily,
    IntMatrix,
    InvariantViolationError,
    JordanTable,
    MissingJordanEntryError,
    MissingWitnessError,
    PolynomialSupport,
    ResourceCapError,
    SearchConstraints,
    monomial_existence_check,
    ValidationError,
    WeightSystem,
    distinguished_minor,
    enumerate_families,
    enumerate_monomials,
    fermat_prediction,
    fermat_support,
    fixing_group,
    forced_central_group,
    is_witness_row,
    lin_diagonal_order,
    lin_finiteness,
    lin_order_bound,
    smith_normal_form,
)
from wph.intlinalg import invariant_factors
from wph.monomials import witness_rows
from wph.symmetry import MinorChoice, _order_modulo_scalars, _row_lattice_basis

from conftest import (
    _quotient_by_scalar,
    count_fixing_tuples,
    factors_and_vinv,
    random_finite_support,
)


def klein_support():
    fam = HypersurfaceFamily([1, 1, 1], 4)
    return PolynomialSupport(fam, [[1, 3, 0], [0, 1, 3], [3, 0, 1]])


class TestFixingGroup:
    def test_fermat_cubic_curve_weights(self):
        fam = HypersurfaceFamily([1, 1, 1], 4)
        support = PolynomialSupport(fam, [[4, 0, 0], [0, 4, 0], [0, 0, 4]])
        group = fixing_group(support)
        assert group.invariant_factors == (4, 4, 4)
        assert group.order == 64
        # brute force over quadruples of 4th roots of unity
        assert count_fixing_tuples(support.rows, 4) == 64

    def test_klein(self):
        group = fixing_group(klein_support())
        assert group.order == 28
        assert group.invariant_factors == (28,)
        assert count_fixing_tuples(klein_support().rows, 28) == 28

    def test_rank_deficient(self):
        support = PolynomialSupport(HypersurfaceFamily([1, 1], 2), [[1, 1]])
        group = fixing_group(support)
        assert not group.finite
        assert group.free_rank == 1
        assert group.order is None

    def test_hyperelliptic(self):
        fam = HypersurfaceFamily([3, 1, 1], 6)
        support = PolynomialSupport(fam, [[2, 0, 0], [0, 6, 0], [0, 0, 6]])
        group = fixing_group(support)
        assert group.order == 72
        assert count_fixing_tuples(support.rows, 6) == 72

    def test_permutation_invariance(self):
        rng = random.Random(5151)
        for _ in range(40):
            fam, support = random_finite_support(rng)
            m = len(fam.weights)
            perm = list(range(m))
            rng.shuffle(perm)
            permuted_ws = [fam.weights.original[p] for p in perm]
            permuted_rows = [tuple(row[p] for p in perm) for row in support.rows]
            permuted = PolynomialSupport(
                HypersurfaceFamily(permuted_ws, fam.degree), permuted_rows
            )
            assert fixing_group(permuted) == fixing_group(support)

    def test_brute_force_on_random_supports(self):
        rng = random.Random(2718)
        checked = 0
        while checked < 30:
            fam, support = random_finite_support(rng)
            group = fixing_group(support)
            if not group.finite or group.order > 200:
                continue
            exponent = group.invariant_factors[-1] if group.invariant_factors else 1
            if exponent ** len(fam.weights) > 2_000_000:
                continue
            assert count_fixing_tuples(support.rows, exponent) == group.order
            checked += 1

    def test_compression_matches_direct_snf(self):
        # a support large enough that the lattice exit skips rows
        from wph import enumerate_monomials

        fam = HypersurfaceFamily([1, 1, 1], 12)
        rows = enumerate_monomials(fam.weights, 12)
        assert len(rows) > 16
        support = PolynomialSupport(fam, rows)
        group = fixing_group(support)
        direct = smith_normal_form(IntMatrix.from_rows(rows))
        prod = 1
        for f in direct.invariant_factors:
            prod *= f
        assert group.finite and group.order == prod


def _lattice_oracle_check(support):
    """Compressed fixing group against the uncompressed SNF and brute force.

    Returns whether the compression stopped before the last row.
    """
    fam = support.family
    ws, d, m = fam.weights.original, fam.degree, len(fam.weights)
    rows = support.rows
    assert _large(rows, m)
    group = fixing_group(support)
    direct = smith_normal_form(IntMatrix.from_rows(rows)).invariant_factors
    assert group.invariant_factors == tuple(f for f in direct if f > 1)
    assert group.free_rank == m - len(direct)
    if group.finite:
        exponent = group.invariant_factors[-1] if group.invariant_factors else 1
        if exponent ** m <= 500_000:
            assert count_fixing_tuples(rows, exponent) == group.order
    index = d // gcd(d, *ws)
    pending = iter(rows)
    basis = _row_lattice_basis(pending, m, index)
    # Index 0 is never reached, so this call folds in every row.
    assert basis == _row_lattice_basis(rows, m, 0)
    return next(pending, None) is not None


def _large(rows, m):
    return len(rows) > max(4 * m, 16)


def _random_graded_piece(rng, hi=400):
    """Weights, degree and a whole graded piece with rows for the exit to skip."""
    while True:
        m = rng.randint(3, 5)
        ws = [rng.randint(1, 6) for _ in range(m)]
        d = rng.randint(max(ws), 40)
        rows = enumerate_monomials(WeightSystem(ws), d)
        if _large(rows, m) and len(rows) <= hi:
            return ws, d, rows


class TestLatticeExit:
    """The compression's early exit against the exhaustive pass."""

    def test_supports_spanning_the_degree_lattice(self):
        rng = random.Random(4141)
        checked = stopped = 0
        while checked < 40:
            ws, d, rows = _random_graded_piece(rng)
            # The same rows in a family whose weights and degree share k,
            # where the degree lattice has index d / k, in a shuffled order.
            k = rng.choice((1, 1, 2, 3))
            ws, d = [k * a for a in ws], k * d
            rows = rng.sample(rows, len(rows))
            fam = HypersurfaceFamily(ws, d)
            if checked % 2:
                rows = [
                    r
                    for r in rows
                    if any(is_witness_row(r, i) for i in range(len(ws)))
                    or rng.random() >= 1 / 3
                ]
                if not _large(rows, len(ws)):
                    continue
            direct = smith_normal_form(IntMatrix.from_rows(rows)).invariant_factors
            index = d // gcd(d, *ws)
            if len(direct) < len(ws) or prod(direct) != index:
                continue
            stopped += _lattice_oracle_check(PolynomialSupport(fam, rows))
            checked += 1
        assert stopped == checked

    def test_even_exponents_never_reach_the_degree_lattice(self):
        rng = random.Random(4242)
        for _ in range(15):
            ws, d, rows = _random_graded_piece(rng)
            fam = HypersurfaceFamily(ws, 2 * d)
            doubled = [tuple(2 * e for e in r) for r in rows]
            assert not _lattice_oracle_check(PolynomialSupport(fam, doubled))

    def test_extra_diagonal_symmetry_never_reaches_the_degree_lattice(self):
        # Monomials fixed by a random diagonal element of order k. Unless
        # that element is a scalar, their lattice is a proper sublattice of
        # the degree lattice; scalar draws are skipped below.
        rng = random.Random(4343)
        checked = 0
        while checked < 15:
            ws, d, rows = _random_graded_piece(rng, hi=1200)
            k = rng.randint(2, 5)
            theta = [rng.randrange(k) for _ in ws]
            kept = [r for r in rows if sum(t * e for t, e in zip(theta, r)) % k == 0]
            if not _large(kept, len(ws)):
                continue
            direct = smith_normal_form(IntMatrix.from_rows(kept)).invariant_factors
            if len(direct) == len(ws) and prod(direct) == d // gcd(d, *ws):
                continue
            fam = HypersurfaceFamily(ws, d)
            assert not _lattice_oracle_check(PolynomialSupport(fam, kept))
            checked += 1

    def test_signed_rows(self):
        # The Euclidean fold floors quotients of signed entries: random
        # matrices with negative entries, against the Smith form of the whole
        # matrix, and the exit against the shortest prefix that spans.
        rng = random.Random(1515)
        exits = 0
        for k in range(300):
            m = rng.randint(1, 5)
            hi = (3, 30, 1000)[k % 3]
            rows = [[rng.randint(-hi, hi) for _ in range(m)] for _ in range(rng.randint(1, 12))]
            basis = _row_lattice_basis(rows, m, 0)
            direct = smith_normal_form(IntMatrix.from_rows(rows)).invariant_factors
            assert (invariant_factors(basis) if basis else ()) == direct
            if len(direct) < m:
                continue
            # A prefix spans the whole lattice iff it has the same factors.
            needed = next(
                i
                for i in range(m, len(rows) + 1)
                if smith_normal_form(IntMatrix.from_rows(rows[:i])).invariant_factors == direct
            )
            pending = _CountingRows(rows)
            _row_lattice_basis(pending, m, prod(direct))
            assert pending.pulled == needed
            exits += needed < len(rows)
        assert exits > 50


class _CountingRows:
    """Iterator over ``rows`` that counts the rows pulled from it."""

    def __init__(self, rows):
        self._rows = iter(rows)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self._rows)
        self.pulled += 1
        return row


class TestWitnessFirst:
    """``fixing_group`` feeds the witness-shaped rows to the compression first."""

    def test_ascending_whole_piece(self, monkeypatch):
        ws, d = (1,) * 5, 24
        rows = sorted(enumerate_monomials(WeightSystem(ws), d))
        index = d // gcd(d, *ws)
        ascending = _CountingRows(rows)
        _row_lattice_basis(ascending, 5, index)
        assert ascending.pulled > 2000

        pulled = []

        def counted(rows, ncols, index):
            counting = _CountingRows(rows)
            basis = _row_lattice_basis(counting, ncols, index)
            pulled.append(counting.pulled)
            return basis

        monkeypatch.setattr(wph.symmetry, "_row_lattice_basis", counted)
        group = fixing_group(PolynomialSupport(HypersurfaceFamily(ws, d), rows))
        assert len(pulled) == 1 and pulled[0] <= 200
        # The whole matrix's Smith form: its 20 475 x 20 475 transform is out
        # of reach, so its invariant factors come from a basis folding in
        # every row without the exit (index 0), which has the same lattice.
        full = smith_normal_form(IntMatrix.from_rows(_row_lattice_basis(rows, 5, 0)))
        assert group.invariant_factors == tuple(f for f in full.invariant_factors if f > 1)
        assert group.free_rank == 5 - len(full.invariant_factors)
        # Only the scalars of order d fix every monomial of degree d >= 3.
        assert group.order == d


class TestLinDiagonalOrder:
    def test_fermat_quartic_curve(self):
        fam = HypersurfaceFamily([1, 1, 1], 4)
        support = PolynomialSupport(fam, [[4, 0, 0], [0, 4, 0], [0, 0, 4]])
        assert lin_diagonal_order(support) == 16

    def test_klein(self):
        assert lin_diagonal_order(klein_support()) == 7

    def test_hyperelliptic(self):
        fam = HypersurfaceFamily([3, 1, 1], 6)
        support = PolynomialSupport(fam, [[2, 0, 0], [0, 6, 0], [0, 0, 6]])
        assert lin_diagonal_order(support) == 12

    def test_infinite_flag(self):
        support = PolynomialSupport(HypersurfaceFamily([1, 1], 2), [[1, 1]])
        assert lin_diagonal_order(support) is None

    def test_common_factor_rejected(self):
        support = PolynomialSupport(HypersurfaceFamily([2, 2], 4), [[1, 1]])
        with pytest.raises(ValidationError, match="factor"):
            lin_diagonal_order(support)

    def test_order_not_divisible_by_degree(self):
        group = AbelianGroupStructure.from_factors((3,), free_rank=0)
        with pytest.raises(InvariantViolationError, match="not divisible by degree 2"):
            _order_modulo_scalars(group, 2)

    def test_scalar_always_in_fixing_group(self):
        # row . weights == d for every row, so order is divisible by d and
        # the quotient never raises for well-formed weights
        rng = random.Random(31415)
        for _ in range(40):
            fam, support = random_finite_support(rng)
            g = 0
            for a in fam.weights.original:
                g = gcd(g, a)
            if g != 1:
                continue
            order = lin_diagonal_order(support)
            group = fixing_group(support)
            assert order is not None and order * fam.degree == group.order


class TestDistinguishedMinor:
    def test_fermat_cubic_threefold(self):
        fam = HypersurfaceFamily([1, 1, 1, 1], 3)
        rows = [
            [3, 0, 0, 0],
            [0, 3, 0, 0],
            [0, 0, 3, 0],
            [0, 0, 0, 3],
        ]
        minor = distinguished_minor(PolynomialSupport(fam, rows))
        assert minor.B == IntMatrix.from_rows(rows)
        assert minor.determinant == 81
        # bound met with equality: 3^4 / 1
        assert minor.determinant == fam.degree ** 4 // fam.weight_product

    def test_klein(self):
        minor = distinguished_minor(klein_support())
        assert minor.B.to_rows() == [[3, 0, 1], [1, 3, 0], [0, 1, 3]]
        assert minor.determinant == 28
        assert [c.companion for c in minor.chosen_rows] == [2, 0, 1]

    def test_hyperelliptic_equality_case(self):
        fam = HypersurfaceFamily([3, 1, 1], 6)
        support = PolynomialSupport(fam, [[2, 0, 0], [0, 6, 0], [0, 0, 6]])
        minor = distinguished_minor(support)
        assert minor.determinant == 72
        assert minor.determinant * fam.weight_product == fam.degree ** 3

    def test_prefers_pure_powers(self):
        fam = HypersurfaceFamily([1, 1], 4)
        support = PolynomialSupport(fam, [[3, 1], [4, 0], [0, 4]])
        minor = distinguished_minor(support)
        assert minor.chosen_rows[0].companion is None
        assert minor.chosen_rows[0].exponent == 4

    def test_tie_breaks_on_largest_exponent_then_smallest_companion(self):
        fam = HypersurfaceFamily([1, 1, 1, 1], 5)
        rows = [
            [2, 3, 0, 0],  # not a witness for variable 0 (companion exponent 3)
            [3, 0, 2, 0],  # not a witness either
            [4, 1, 0, 0],
            [4, 0, 1, 0],
            [3, 0, 0, 2],
            [0, 5, 0, 0],
            [0, 0, 5, 0],
            [0, 0, 0, 5],
        ]
        minor = distinguished_minor(PolynomialSupport(fam, rows))
        choice = minor.chosen_rows[0]
        # both exponent-4 rows beat the exponent-3 ones; companion 1 < 2
        assert choice.exponent == 4 and choice.companion == 1

    def test_missing_witness_names_variable(self):
        fam = HypersurfaceFamily([1, 1, 1], 3)
        support = PolynomialSupport(fam, [[3, 0, 0], [1, 1, 1]])
        with pytest.raises(MissingWitnessError) as err:
            distinguished_minor(support)
        assert err.value.variable in (1, 2)

    def test_window_guard_rejects_a_zero_determinant(self, monkeypatch):
        assert lin_finiteness(klein_support().family).finite
        monkeypatch.setattr(wph.symmetry, "integer_determinant", lambda B: 0)
        with pytest.raises(InvariantViolationError, match="minor determinant 0 outside"):
            distinguished_minor(klein_support())

    def test_bound_on_random_finite_supports(self):
        rng = random.Random(8080)
        for _ in range(120):
            fam, support = random_finite_support(rng)
            minor = distinguished_minor(support)
            m = len(fam.weights)
            assert 0 < minor.determinant
            assert minor.determinant * fam.weight_product <= fam.degree ** m


def _brute_force_minor_choices(support):
    """The minor's rows and choices by a scan of every row per variable."""
    rows, choices = [], []
    for i in range(len(support.family.weights)):
        candidates = []
        for row in support.rows:
            if is_witness_row(row, i):
                companion = next((j for j, e in enumerate(row) if j != i and e), None)
                candidates.append((row, row[i], companion))
        pure = [c for c in candidates if c[2] is None]
        row, b, companion = pure[0] if pure else max(candidates, key=lambda c: (c[1], -c[2]))
        rows.append(list(row))
        choices.append(MinorChoice(i, b, companion))
    return rows, choices


class TestWitnessPass:
    """The one-pass witness lists agree with ``is_witness_row`` row by row."""

    @staticmethod
    def random_support(rng):
        while True:
            ws = [rng.randint(1, 7) for _ in range(rng.randint(2, 6))]
            d = rng.randint(1, 30)
            piece = enumerate_monomials(WeightSystem(ws), d)
            if piece:
                break
        rows = rng.sample(piece, rng.randint(1, len(piece)))
        return PolynomialSupport(HypersurfaceFamily(ws, d), rows)

    def test_lists_match_brute_force(self):
        rng = random.Random(2301)
        for _ in range(300):
            support = self.random_support(rng)
            assert support.sparse_rows == tuple(r for r in support.rows if sum(map(bool, r)) <= 2)
            found = witness_rows(support)
            for i, pairs in enumerate(found):
                expected = [row for row in support.rows if is_witness_row(row, i)]
                assert [row for row, _ in pairs] == expected
                for row, companion in pairs:
                    others = [j for j, e in enumerate(row) if j != i and e]
                    assert companion == (others[0] if others else None)
            report = monomial_existence_check(support)
            assert [w.witness for w in report.witnesses] == [
                next((row for row in support.rows if is_witness_row(row, i)), None)
                for i in range(len(found))
            ]

    def test_minor_choices_match_brute_force(self):
        rng = random.Random(2302)
        for _ in range(200):
            fam, support = random_finite_support(rng, max_vars=5)
            shuffled = list(support.rows)
            rng.shuffle(shuffled)
            for s in (support, PolynomialSupport(fam, shuffled)):
                rows, choices = _brute_force_minor_choices(s)
                minor = distinguished_minor(s)
                assert minor.B.to_rows() == rows
                assert list(minor.chosen_rows) == choices


class TestForcedCentralGroup:
    def test_flagship_order_five(self):
        group = forced_central_group(HypersurfaceFamily([36, 31, 30, 25], 180))
        assert group.finite and group.order == 5
        assert group.invariant_factors == (5,)

    def test_quartic_surface_trivial(self):
        group = forced_central_group(HypersurfaceFamily([1, 1, 1, 1], 4))
        assert group.finite and group.order == 1
        # oracle: the full graded piece only admits the scalar action
        from wph import enumerate_monomials

        rows = enumerate_monomials(WeightSystem([1, 1, 1, 1]), 4)
        assert count_fixing_tuples(rows, 4) == 4

    def test_cubic_curve_trivial(self):
        group = forced_central_group(HypersurfaceFamily([1, 1, 1], 3))
        assert group.finite and group.order == 1
        from wph import enumerate_monomials

        rows = enumerate_monomials(WeightSystem([1, 1, 1]), 3)
        assert count_fixing_tuples(rows, 3) == 3

    def test_linear_cone_infinite(self):
        group = forced_central_group(HypersurfaceFamily([5, 5, 4, 4], 5))
        assert not group.finite
        assert group.free_rank == 2

    def test_rejects_non_quasismooth_family(self):
        with pytest.raises(ValidationError, match="quasismooth"):
            forced_central_group(HypersurfaceFamily([1, 1, 3], 5))

    def test_unsorted_input_weights(self):
        group = forced_central_group(HypersurfaceFamily([25, 30, 31, 36], 180))
        assert group.order == 5
        group = forced_central_group(HypersurfaceFamily([4, 9, 6, 7], 18))
        assert group.invariant_factors == (2,)

    def test_cap_counts_rows_read(self):
        # 53 130 monomials, of which the first 6 span the degree lattice.
        group = forced_central_group(HypersurfaceFamily([1] * 6, 20), monomial_cap=10)
        assert group.finite and group.order == 1

    def test_cap_raises_when_the_piece_lattice_is_smaller(self):
        # The flagship piece has 4 monomials and forced order 5: its lattice
        # has index 5 * d, never d, so every row is read.
        fam = HypersurfaceFamily([36, 31, 30, 25], 180)
        assert len(enumerate_monomials(fam.weights, 180)) == 4
        with pytest.raises(ResourceCapError, match="more than 3 monomials"):
            forced_central_group(fam, monomial_cap=3)
        assert forced_central_group(fam, monomial_cap=4).order == 5

    @pytest.mark.parametrize("cap", ["5", 2.5, True, -1])
    def test_rejects_bad_monomial_cap(self, cap):
        with pytest.raises(ValidationError, match="monomial cap"):
            forced_central_group(HypersurfaceFamily([1, 1, 1], 3), monomial_cap=cap)

    def test_matches_brute_force_quotient_on_random_families(self):
        rng = random.Random(9009)
        from wph import quasismooth_exists

        checked = infinite = brute = large = 0
        while checked < 25:
            length = rng.randint(3, 4)
            ws = tuple(sorted((rng.randint(1, 6) for _ in range(length)), reverse=True))
            if gcd(*ws) != 1:
                continue
            d = rng.randint(2, 24)
            fam = HypersurfaceFamily(ws, d)
            if not quasismooth_exists(fam).exists:
                continue
            rows = enumerate_monomials(fam.weights, d)
            forced = forced_central_group(fam)
            large += len(rows) > 150
            factors, vinv = factors_and_vinv(rows)
            if len(factors) < length:
                assert forced.free_rank == length - len(factors)
                infinite += 1
                continue
            assert forced == _quotient_by_scalar(factors, vinv, ws, d), (ws, d)
            assert prod(factors) == d * forced.order, (ws, d)
            order = d * forced.order
            if order ** length <= 2_000_000:
                assert count_fixing_tuples(rows, order) == order, (ws, d)
                brute += 1
            checked += 1
        assert infinite and large and brute >= 20, (infinite, large, brute)

    @pytest.mark.parametrize(
        "constraints, counts, expected",
        [
            pytest.param(
                SearchConstraints(dimension=2, max_weight=14, max_degree=60),
                (5616, 4684, 4395),
                [((9, 7, 6, 4), 18), ((10, 9, 7, 6), 27), ((13, 10, 9, 6), 36)],
                id="dim2",
            ),
            pytest.param(
                SearchConstraints(dimension=3, max_weight=10, max_degree=40),
                (5287, 4471, 3447),
                [((9, 7, 6, 6, 4), 18), ((10, 9, 9, 7, 6), 27)],
                id="dim3",
            ),
        ],
    )
    def test_at_most_the_order_bound_floor_across_a_census(
        self, constraints, counts, expected
    ):
        # The forced group injects into Lin(X) of every member, so its order
        # is at most the floor of the order bound wherever that is defined.
        fams = enumerate_families(constraints)
        table = JordanTable()
        finite = bounded = 0
        nontrivial = {}
        for fam in fams:
            if not lin_finiteness(fam).finite:
                continue
            finite += 1
            try:
                floor = lin_order_bound(fam, table).floor
            except MissingJordanEntryError:
                continue
            bounded += 1
            group = forced_central_group(fam)
            assert group.order <= floor, (fam, group, floor)
            if group.order > 1:
                nontrivial[fam.weights.canonical, fam.degree] = group
        assert (len(fams), finite, bounded) == counts
        assert sorted(nontrivial) == expected
        for (ws, d), group in nontrivial.items():
            factors, vinv = factors_and_vinv(enumerate_monomials(WeightSystem(ws), d))
            assert group == _quotient_by_scalar(factors, vinv, ws, d), (ws, d)
            assert group.invariant_factors == (2,) and group.order == 2

    def test_matches_whole_piece_fixing_group_on_large_pieces(self):
        # Pieces of 150-5500 rows, where the streamed forced group stops
        # long before the end of the piece.
        rng = random.Random(9010)
        from wph import quasismooth_exists

        checked = 0
        while checked < 12:
            length = rng.randint(3, 5)
            ws = tuple(sorted((rng.randint(1, 6) for _ in range(length)), reverse=True))
            if gcd(*ws) != 1:
                continue
            d = rng.randint(12, 30)
            fam = HypersurfaceFamily(ws, d)
            if not quasismooth_exists(fam).exists:
                continue
            rows = enumerate_monomials(fam.weights, d)
            if len(rows) <= 150:
                continue
            full = fixing_group(PolynomialSupport(fam, rows))
            forced = forced_central_group(fam)
            assert full.finite and forced.finite, (ws, d)
            assert forced.order * d == full.order, (ws, d)
            checked += 1


class TestFermat:
    def test_prediction_values(self):
        assert fermat_prediction(1, 4) == (96, 16)
        assert fermat_prediction(2, 3) == (648, 27)
        assert fermat_prediction(1, 3) == (54, 9)
        assert fermat_prediction(2, 4) == (1536, 64)

    def test_prediction_validation(self):
        with pytest.raises(ValidationError):
            fermat_prediction(0, 4)
        with pytest.raises(ValidationError):
            fermat_prediction(1, 2)

    def test_dimension_cap(self, monkeypatch):
        """The cap is checked before the family or any row is built."""
        assert len(fermat_support(FERMAT_DIMENSION_CAP, 3)) == FERMAT_DIMENSION_CAP + 2

        def unbuilt(*args):
            raise AssertionError("Fermat support built above the cap")

        monkeypatch.setattr(wph.symmetry, "HypersurfaceFamily", unbuilt)
        with pytest.raises(ResourceCapError, match="exceeds cap 300"):
            fermat_support(FERMAT_DIMENSION_CAP + 1, 3)

    def test_prediction_dimension_cap(self, monkeypatch):
        """The cap is checked before (n+2)! * d^(n+1) is computed."""
        assert fermat_prediction(FERMAT_DIMENSION_CAP, 3).diagonal_part == 3 ** 301

        def uncomputed(*args):
            raise AssertionError("Fermat prediction computed above the cap")

        monkeypatch.setattr(wph.symmetry, "factorial", uncomputed)
        with pytest.raises(ResourceCapError, match="prediction dimension exceeds cap 300"):
            fermat_prediction(FERMAT_DIMENSION_CAP + 1, 3)

    def test_diagonal_law_small(self):
        for n in (1, 2):
            for d in (3, 4):
                support = fermat_support(n, d)
                assert lin_diagonal_order(support) == d ** (n + 1)
                assert count_fixing_tuples(support.rows, d) == d ** (n + 2)
