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

All computations here stay in exact integer arithmetic. Every support, and
every graded piece, is first compressed to an echelon basis of its row
lattice L. Every row r has a.r = d, so L lies in the degree lattice
Lambda = {v : a.v = 0 mod d}, of index d / gcd(d, a_0, ..., a_{m-1}).
The compression stops as soon as its partial lattice L' has that index: then
L' <= L <= Lambda with [Z^m : L'] = [Z^m : Lambda] forces L' = L = Lambda,
and every remaining row would reduce to zero without changing a pivot, so the
basis is the one the exhaustive pass returns. The rows are therefore read
lazily, in an order that reaches the exit early: graded pieces as they are
enumerated, supports with their witness-shaped rows first.

The quotient by the scalars comes from duality. The fixing group of L is its
annihilator L^perp in (Q/Z)^m, and Lambda^perp = <sigma>: sigma annihilates
Lambda, and both groups have order [Z^m : Lambda]. So the fixing group modulo
scalars, L^perp / <sigma>, is Pontryagin dual to Lambda / L and has its
invariant factors. The map v -> (v, a.v / d) sends Lambda onto the saturated
lattice {(v, t) : a.v = d t} of Z^(m+1), so Lambda / L is the torsion of
Z^(m+1) modulo the rows (b, a.b / d) for b in a basis of L: one Smith form of
an m x (m+1) matrix. In particular the quotient is trivial exactly when L is
all of Lambda, that is, whenever the rows read span the degree lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import factorial, gcd, prod
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .bounds import lin_finiteness
from .errors import (
    InvariantViolationError,
    MissingWitnessError,
    ResourceCapError,
    ValidationError,
)
from .intlinalg import IntMatrix, integer_determinant, invariant_factors
from .monomials import (
    DEFAULT_MONOMIAL_CAP,
    ExponentVector,
    PolynomialSupport,
    _capped,
    _descending_monomials,
    witness_rows,
)
from .quasismooth import quasismooth_exists
from .weights import HypersurfaceFamily, WeightSystem, as_int


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
        return cls(nontrivial, prod(nontrivial), True, 0)


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


def _row_lattice_basis(
    rows: Iterable[Sequence[int]], ncols: int, index: int
) -> list[list[int]]:
    """At most ``ncols`` rows generating the same row lattice as ``rows``.

    Incremental integer echelon: each incoming row v is folded into the pivot
    rows by Euclidean row steps. At its leading column p with pivot row b,
    v becomes v - (v[p] // b[p]) * b; a nonzero remainder v[p] is smaller
    than b[p], so v takes over as the pivot of column p and b is folded on in
    its place. Each step is unimodular, so the generated lattice never
    changes and the working set stays small even for huge supports.

    ``index`` is the index in Z^ncols of a lattice known to contain every
    row (0 if none is known). Once the pivots are full rank and the absolute
    product of their diagonal equals it, the partial lattice is that whole
    lattice, every remaining row lies in it and would reduce to zero without
    changing a pivot, so the loop stops with the basis it would return after
    the last row, and pulls no further row from ``rows``.
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
            q = v[p] // b[p]
            v = [x - q * y for x, y in zip(v, b)]
            if v[p]:
                pivots[p], v = v, b
                changed = True
        if changed and len(pivots) == ncols:
            if abs(prod(b[p] for p, b in pivots.items())) == index:
                break
    return [pivots[p] for p in sorted(pivots)]


def fixing_group(p: PolynomialSupport) -> AbelianGroupStructure:
    """Group of diagonal automorphisms fixing every monomial of the support.

    Computed from the invariant factors of the exponent matrix, which are
    those of a basis of its row lattice. An infinite group (rank-deficient
    exponent matrix) is a first-class result with ``finite`` False and the
    positive ``free_rank`` recorded. The support's ``sparse_rows``, those
    with at most two nonzero exponents, go into the compression first: pure
    powers and x_i^k * x_j often span the degree lattice on their own, and
    then no other row is read.
    """
    weights, d = p.family.weights.original, p.family.degree
    rows = chain(p.sparse_rows, p.rows)
    basis = _row_lattice_basis(rows, len(weights), d // gcd(d, *weights))
    return AbelianGroupStructure.from_factors(
        invariant_factors(basis), free_rank=len(weights) - len(basis)
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

    The piece is enumerated lazily and ``monomial_cap`` bounds the rows read,
    not the size of the piece: the rows stop once they span the degree
    lattice, so a piece larger than the cap raises ResourceCapError only when
    more than ``monomial_cap`` of its rows are needed.
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
    weights, d = fam.weights.canonical, fam.degree
    rows = _capped(_descending_monomials(weights, d), monomial_cap)
    basis = _row_lattice_basis(rows, len(weights), d // gcd(d, *weights))
    free_rank = len(weights) - len(basis)
    if free_rank:
        return AbelianGroupStructure.from_factors((), free_rank)
    # The group is dual to Lambda / L; see the module docstring.
    for b in basis:
        b.append(sum(map(mul, b, weights)) // d)
    return AbelianGroupStructure.from_factors(invariant_factors(basis), free_rank=0)


#: Largest dimension :func:`fermat_support` builds. The Smith form of its
#: exponent matrix d * I_(n+2) costs O(n^3): about 1 s at the cap (Xeon, Python 3.11).
FERMAT_DIMENSION_CAP = 300


class FermatPrediction(NamedTuple):
    total: int
    diagonal_part: int


def fermat_prediction(n: int, d: int) -> FermatPrediction:
    """Order of the linear automorphism group of the Fermat hypersurface.

    total = (n+2)! * d^(n+1), of which the diagonal subgroup contributes
    d^(n+1) and coordinate permutations the rest. This is the classical
    characteristic-zero count for x_0^d + ... + x_{n+1}^d = 0.
    """
    n, d = as_int(n, "dimension"), as_int(d, "degree")
    if n < 1:
        raise ValidationError("Fermat prediction needs dimension n >= 1")
    if d < 3:
        raise ValidationError("Fermat prediction needs degree d >= 3")
    if n > FERMAT_DIMENSION_CAP:
        raise ResourceCapError(f"Fermat prediction dimension exceeds cap {FERMAT_DIMENSION_CAP}")
    diagonal = d ** (n + 1)
    return FermatPrediction(total=factorial(n + 2) * diagonal, diagonal_part=diagonal)


def fermat_support(n: int, d: int) -> PolynomialSupport:
    """Support of x_0^d + ... + x_{n+1}^d in ordinary projective space."""
    n, d = as_int(n, "dimension"), as_int(d, "degree")
    if n < 1 or d < 1:
        raise ValidationError("Fermat support needs n >= 1 and d >= 1")
    if n > FERMAT_DIMENSION_CAP:
        raise ResourceCapError(f"Fermat support dimension exceeds cap {FERMAT_DIMENSION_CAP}")
    m = n + 2
    fam = HypersurfaceFamily(WeightSystem((1,) * m), d)
    rows = [tuple(d if j == i else 0 for j in range(m)) for i in range(m)]
    return PolynomialSupport(fam, rows)
