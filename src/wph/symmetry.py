"""Diagonal symmetry groups of explicit polynomials, via integer lattices.

A diagonal automorphism multiplying x_j by exp(2*pi*i*theta_j) fixes a
polynomial exactly when M @ theta is integral, where M is the matrix of
exponent vectors of the support. The solutions theta in (Q/Z)^m form a group
isomorphic to Z/d_1 + ... + Z/d_r + (Q/Z)^(m-r), where the d_i are the
invariant factors of M; it is finite iff M has full column rank. The scalar
one-parameter subgroup contributes the element sigma = (a_0/d, ..., a_{m-1}/d),
which lies in every fixing group because each support row has weighted degree
d; quotienting by it gives the image of the fixing group among automorphisms
of the ambient space.

All computations here stay in exact integer arithmetic; quotients are taken
by rewriting generators in a lattice basis derived from the Smith normal form
and running a second Smith reduction on the resulting integer matrix.

Large supports are first compressed to an echelon basis of their row lattice
L. Every row r has a.r = d, so L lies in the degree lattice
Lambda = {v : a.v = 0 mod d}, of index d / gcd(d, a_0, ..., a_{m-1}). The
compression stops as soon as its partial lattice L' has that index: then
L' <= L <= Lambda with [Z^m : L'] = [Z^m : Lambda] forces L' = L = Lambda,
and every remaining row would reduce to zero without changing a pivot, so the
basis is the one the exhaustive pass returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd
from typing import NamedTuple, Sequence

from .bounds import lin_finiteness
from .errors import (
    InvariantViolationError,
    MissingWitnessError,
    ValidationError,
)
from .intlinalg import (
    IntMatrix,
    SnfDecomposition,
    integer_determinant,
    smith_normal_form,
)
from .monomials import (
    DEFAULT_MONOMIAL_CAP,
    ExponentVector,
    PolynomialSupport,
    enumerate_monomials,
    witness_rows,
)
from .quasismooth import quasismooth_exists
from .weights import HypersurfaceFamily, WeightSystem

# Supports larger than this many rows are first compressed to a generating
# set of their row lattice; the fixing group only depends on that lattice.
_COMPRESS_THRESHOLD_FACTOR = 4


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Finitely generated abelian group in invariant-factor form.

    ``invariant_factors`` lists the nontrivial cyclic orders (each > 1, in a
    divisibility chain); ``order`` is their product and is only defined when
    the group is finite. ``free_rank`` counts divisible (circle-group) summands
    of an infinite diagonal symmetry group; the torsion factors are reported
    only in the finite case.
    """

    invariant_factors: tuple[int, ...]
    order: int | None
    finite: bool
    free_rank: int

    @classmethod
    def from_factors(cls, factors: Sequence[int], free_rank: int) -> "AbelianGroupStructure":
        nontrivial = tuple(int(f) for f in factors if f > 1)
        if free_rank:
            return cls(nontrivial, None, False, int(free_rank))
        order = 1
        for f in nontrivial:
            order *= f
        return cls(nontrivial, order, True, 0)


class MinorChoice(NamedTuple):
    """Which support row witnesses a variable inside the distinguished minor."""

    variable: int
    exponent: int
    companion: int | None


@dataclass(frozen=True)
class DistinguishedMinor:
    """Square minor with row i of shape x_i^{b_i} or x_i^{b_i} * x_j."""

    B: IntMatrix
    chosen_rows: tuple[MinorChoice, ...]
    determinant: int


def _exgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, s, t with g = s*a + t*b and g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _row_lattice_basis(
    rows: Sequence[Sequence[int]], ncols: int, index: int
) -> list[list[int]]:
    """At most ``ncols`` rows generating the same row lattice as ``rows``.

    Incremental integer echelon: each incoming row is folded into the pivot
    rows with unimodular 2x2 combinations, so the generated lattice never
    changes and the working set stays small even for huge supports.

    ``index`` is the index in Z^ncols of a lattice known to contain every
    row (0 if none is known). Once the pivots are full rank and the absolute
    product of their diagonal equals it, the partial lattice is that whole
    lattice, every remaining row lies in it and would reduce to zero through
    exact quotients alone, so the loop stops with the basis it would return
    after the last row.
    """
    pivots: dict[int, list[int]] = {}
    for row in rows:
        v = list(row)
        changed = False
        while True:
            p = next((j for j, x in enumerate(v) if x), None)
            if p is None:
                break
            b = pivots.get(p)
            if b is None:
                pivots[p] = v
                changed = True
                break
            bp, vp = b[p], v[p]
            if vp % bp == 0:
                q = vp // bp
                v = [x - q * y for x, y in zip(v, b)]
            else:
                g, s, t = _exgcd(bp, vp)
                u1, u2 = bp // g, vp // g
                combined = [s * y + t * x for x, y in zip(v, b)]
                v = [u1 * x - u2 * y for x, y in zip(v, b)]
                b[:] = combined
                changed = True
        if changed and len(pivots) == ncols:
            det = 1
            for p, b in pivots.items():
                det *= b[p]
            if abs(det) == index:
                break
    return [pivots[p] for p in sorted(pivots)]


def _support_snf(
    rows: Sequence[Sequence[int]], weights: Sequence[int], degree: int
) -> SnfDecomposition:
    """Smith form of the exponent matrix, compressing huge supports first.

    Every row must have weighted degree ``degree``; the compression relies on
    it to stop early (see :func:`_row_lattice_basis`).
    """
    m = len(weights)
    if len(rows) > max(_COMPRESS_THRESHOLD_FACTOR * m, 16):
        rows = _row_lattice_basis(rows, m, degree // gcd(degree, *weights))
    return smith_normal_form(IntMatrix.from_rows(rows))


def fixing_group(p: PolynomialSupport) -> AbelianGroupStructure:
    """Group of diagonal automorphisms fixing every monomial of the support.

    Computed from the invariant factors of the exponent matrix. An infinite
    group (rank-deficient exponent matrix) is a first-class result with
    ``finite`` False and the positive ``free_rank`` recorded.
    """
    weights = p.family.weights.original
    factors = _support_snf(p.rows, weights, p.family.degree).invariant_factors
    return AbelianGroupStructure.from_factors(
        factors, free_rank=len(weights) - len(factors)
    )


def lin_diagonal_order(p: PolynomialSupport) -> int | None:
    """Order of the fixing group modulo the scalar subgroup; None if infinite.

    The scalar vector (a_0/d, ..., a_{m-1}/d) always lies in the fixing group
    and has order exactly d once the weights have no common factor, which
    well-formedness guarantees. The result is then |fixing group| / d.
    """
    weights = p.family.weights.original
    g = p.family.weights.gcd
    if g != 1:
        raise ValidationError(
            f"weights {weights} share the factor {g}; the scalar subgroup only has "
            f"order d for well-formed families"
        )
    return _order_modulo_scalars(fixing_group(p), p.family.degree)


def _order_modulo_scalars(group: AbelianGroupStructure, degree: int) -> int | None:
    """|group| / degree for the fixing group of coprime weights; None if infinite."""
    if not group.finite:
        return None
    if group.order % degree != 0:
        raise InvariantViolationError(
            f"fixing group order {group.order} not divisible by degree {degree}"
        )
    return group.order // degree


def distinguished_minor(p: PolynomialSupport) -> DistinguishedMinor:
    """Square minor of the exponent matrix with row i keyed to variable i.

    For each variable, prefers the pure power x_i^k when the support has one,
    otherwise takes the witness with the largest exponent, ties broken by the
    smallest companion index. When the family satisfies the finiteness
    criterion, the determinant is checked against the exact window
    0 < det(B) <= d^(n+2) / (a_0 * ... * a_{n+1}).
    """
    weights = p.family.weights.original
    m = len(weights)
    picked_rows: list[ExponentVector] = []
    choices: list[MinorChoice] = []
    for i, candidates in enumerate(witness_rows(p)):
        if not candidates:
            raise MissingWitnessError(i)
        pure = [c for c in candidates if c[1] is None]
        if pure:
            row, companion = pure[0]
        else:
            row, companion = max(candidates, key=lambda c: (c[0][i], -c[1]))
        picked_rows.append(row)
        choices.append(MinorChoice(variable=i, exponent=row[i], companion=companion))
    B = IntMatrix.from_rows(picked_rows)
    det = integer_determinant(B)
    if lin_finiteness(p.family).finite:
        numerator = p.family.degree ** m
        if not (0 < det and det * p.family.weight_product <= numerator):
            raise InvariantViolationError(
                f"minor determinant {det} outside (0, d^(n+2)/prod(a_i)] for {p.family}"
            )
    return DistinguishedMinor(B=B, chosen_rows=tuple(choices), determinant=det)


def _quotient_by_scalar(
    snf: SnfDecomposition, weights: Sequence[int], degree: int
) -> AbelianGroupStructure:
    """Fixing group modulo the scalar element (a_0/d, ..., a_{m-1}/d).

    Works in the basis b_i = (column i of V) / d_i of the solution lattice:
    the standard lattice and the scalar vector are rewritten in that basis,
    giving an integer matrix whose cokernel is the quotient group.
    """
    vinv, factors = snf.Vinv, snf.invariant_factors
    m = len(weights)
    if len(factors) != m:
        raise InvariantViolationError("scalar quotient requires a finite fixing group")
    u = [sum(vinv.at(i, j) * weights[j] for j in range(m)) for i in range(m)]
    aug_col = []
    for i in range(m):
        num = factors[i] * u[i]
        if num % degree != 0:
            raise InvariantViolationError(
                "scalar vector does not lie in the fixing-group lattice"
            )
        aug_col.append(num // degree)
    rows = []
    for i in range(m):
        rows.append([factors[i] * vinv.at(i, j) for j in range(m)] + [aug_col[i]])
    qfactors = smith_normal_form(IntMatrix.from_rows(rows)).invariant_factors
    if len(qfactors) != m:
        raise InvariantViolationError("quotient of a finite group came out infinite")
    return AbelianGroupStructure.from_factors(qfactors, free_rank=0)


def forced_central_group(
    fam: HypersurfaceFamily, *, monomial_cap: int = DEFAULT_MONOMIAL_CAP
) -> AbelianGroupStructure:
    """Diagonal automorphisms fixing every degree-d monomial, modulo scalars.

    Any automorphism that fixes the whole graded piece fixes every member of
    the family, so this group injects into the linear automorphism group of
    each of them: it is a lower bound for the generic group, not the group
    itself. Requires a family passing the quasismoothness existence criterion.
    For infinite results (rank-deficient graded piece, e.g. linear cones)
    only the free rank is reported; the quotient's torsion is left out.
    """
    if not quasismooth_exists(fam).exists:
        raise ValidationError(
            f"{fam} admits no quasismooth member; the forced subgroup is only "
            f"meaningful for families that do"
        )
    return _forced_central_group(fam, monomial_cap)


def _forced_central_group(
    fam: HypersurfaceFamily, monomial_cap: int = DEFAULT_MONOMIAL_CAP
) -> AbelianGroupStructure:
    """:func:`forced_central_group` for a family already known to pass the
    quasismooth criterion."""
    wc = fam.weights.canonicalized()
    rows = enumerate_monomials(wc, fam.degree, cap=monomial_cap)
    snf = _support_snf(rows, wc.original, fam.degree)
    free_rank = len(wc.original) - len(snf.invariant_factors)
    if free_rank:
        return AbelianGroupStructure((), None, False, free_rank)
    return _quotient_by_scalar(snf, wc.original, fam.degree)


class FermatPrediction(NamedTuple):
    total: int
    diagonal_part: int


def fermat_prediction(n: int, d: int) -> FermatPrediction:
    """Order of the linear automorphism group of the Fermat hypersurface.

    total = (n+2)! * d^(n+1), of which the diagonal subgroup contributes
    d^(n+1) and coordinate permutations the rest. This is the classical
    characteristic-zero count for x_0^d + ... + x_{n+1}^d = 0.
    """
    n, d = int(n), int(d)
    if n < 1:
        raise ValidationError("Fermat prediction needs dimension n >= 1")
    if d < 3:
        raise ValidationError("Fermat prediction needs degree d >= 3")
    diagonal = d ** (n + 1)
    return FermatPrediction(total=factorial(n + 2) * diagonal, diagonal_part=diagonal)


def fermat_support(n: int, d: int) -> PolynomialSupport:
    """Support of x_0^d + ... + x_{n+1}^d in ordinary projective space."""
    n, d = int(n), int(d)
    if n < 1 or d < 1:
        raise ValidationError("Fermat support needs n >= 1 and d >= 1")
    m = n + 2
    fam = HypersurfaceFamily(WeightSystem((1,) * m), d)
    rows = [tuple(d if j == i else 0 for j in range(m)) for i in range(m)]
    return PolynomialSupport(fam, rows)
