"""Weighted-homogeneous monomials and polynomials.

Enumeration of graded pieces, exponent-vector supports, polynomials with
exact rational coefficients and the weighted Euler identity self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, count, cycle, repeat
from math import gcd, lcm
from operator import mul
from typing import Iterator, Sequence

from .errors import ResourceCapError, ValidationError
from .weights import HypersurfaceFamily, WeightSystem, as_int, as_rational

#: An exponent vector is a plain tuple of nonnegative ints, one per variable.
ExponentVector = tuple[int, ...]

DEFAULT_MONOMIAL_CAP = 1_000_000


def weighted_degree(weights: Sequence[int], exponents: Sequence[int]) -> int:
    return sum(a * e for a, e in zip(weights, exponents))


def _descending_monomials(weights: Sequence[int], degree: int) -> Iterator[ExponentVector]:
    """Odometer over all coordinates but the last two, which come in bulk.

    ``exps[i]`` runs from its largest value down to 0, and ``rest[i]`` is the
    degree left for coordinates i and later. For each prefix, the admissible
    exponents e of the second-to-last weight a are the e <= rest // a with
    rest - e * a divisible by the last weight b: one residue class modulo
    b / gcd(a, b), read off from the largest admissible e.
    """
    *head, a, b = weights
    k = len(head)
    step = b // gcd(a, b)
    exps = [0] * k
    rest = [degree] * (k + 1)
    top = 0  # coordinates top and later are reset to their largest values
    while True:
        for i in range(top, k):
            exps[i] = rest[i] // head[i]
            rest[i + 1] = rest[i] - exps[i] * head[i]
        prefix = tuple(exps)
        r = rest[k]
        largest = r // a
        for first in range(largest, max(largest - step, -1), -1):
            if (r - first * a) % b == 0:
                for e in range(first, -1, -step):
                    yield prefix + (e, (r - e * a) // b)
                break
        top = k - 1
        while top >= 0 and not exps[top]:
            top -= 1
        if top < 0:
            return
        exps[top] -= 1
        rest[top + 1] += head[top]
        top += 1


def enumerate_monomials(
    w: WeightSystem, degree: int, *, cap: int = DEFAULT_MONOMIAL_CAP
) -> list[ExponentVector]:
    """All exponent vectors of the given weighted degree, largest-lex first.

    Vectors align with the weight order as given (matching how supports are
    stored); the order is stable enough to freeze in golden files. Raises
    ResourceCapError when the piece has more than ``cap`` vectors, after
    reading ``cap + 1`` of them.
    """
    degree = as_int(degree, "degree")
    if degree < 0:
        raise ValidationError("degree must be nonnegative")
    return list(_capped(_descending_monomials(w.original, degree), cap))


def _capped(rows: Iterator[ExponentVector], cap: int) -> Iterator[ExponentVector]:
    """The rows, raising ResourceCapError when row ``cap + 1`` is pulled."""
    cap = as_int(cap, "monomial cap")
    if cap < 0:
        raise ValidationError(f"monomial cap must be >= 0, got {cap}")

    def capped():
        for read, row in enumerate(rows):
            if read >= cap:
                raise ResourceCapError(f"graded piece has more than {cap} monomials")
            yield row

    return capped()


def _checked_rows(rows, weights: Sequence[int], degree: int) -> tuple[ExponentVector, ...]:
    """The rows as exponent tuples; raises ValidationError on the first defect.

    A list or tuple of list or tuple rows is flattened once and checked in
    passes that run in C: row lengths, then over the flat tuple exact ints
    (no bools, no int subclasses), signs and weighted degrees, then
    distinctness. Other input, and a support those passes reject, is walked
    row by row to name the defect.
    """
    if type(rows) in (list, tuple) and set(map(type, rows)) <= {list, tuple}:
        flat = tuple(chain.from_iterable(rows))
        if (
            set(map(len, rows)) <= {len(weights)}
            and set(map(type, flat)) <= {int}
            and min(flat, default=0) >= 0
            # Every row has len(weights) entries, so that many products are one row's terms.
            and set(map(sum, zip(*[map(mul, flat, cycle(weights))] * len(weights)))) <= {degree}
        ):
            del flat  # held beside the row tuples, it would raise the peak memory
            vecs = tuple(map(tuple, rows))
            if len(set(vecs)) == len(vecs):
                return vecs
    parsed = []
    try:
        indexed = enumerate(rows)
    except TypeError as exc:
        raise ValidationError(
            f"support rows must be an iterable of exponent rows, got {rows!r}"
        ) from exc
    for idx, row in indexed:
        try:
            vec = tuple(as_int(e, f"row {idx} exponent") for e in row)
        except TypeError as exc:
            raise ValidationError(
                f"monomial row {idx} must be a sequence of exponents, got {row!r}"
            ) from exc
        if len(vec) != len(weights):
            raise ValidationError(
                f"row {idx} has {len(vec)} exponents for {len(weights)} variables"
            )
        if any(e < 0 for e in vec):
            raise ValidationError(f"row {idx} has a negative exponent: {vec}")
        deg = weighted_degree(weights, vec)
        if deg != degree:
            raise ValidationError(
                f"row {idx} {vec} has weighted degree {deg}, expected {degree}"
            )
        parsed.append(vec)
    if len(set(parsed)) != len(parsed):
        raise ValidationError("support rows must be distinct")
    return tuple(parsed)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class PolynomialSupport:
    """The set of exponent vectors of an explicit polynomial in a family.

    Rows align with the family's original weight order. Every row must have
    weighted degree exactly the family degree, and rows must be distinct.
    ``sparse_rows`` holds the rows with at most two nonzero exponents, in
    row order; every witness row of :func:`is_witness_row` is among them.
    Supports compare by identity.
    """

    family: HypersurfaceFamily
    rows: tuple[ExponentVector, ...]
    sparse_rows: tuple[ExponentVector, ...] = field(init=False)

    def __post_init__(self):
        if not isinstance(self.family, HypersurfaceFamily):
            raise ValidationError(
                f"support family must be a HypersurfaceFamily, got {self.family!r}"
            )
        vecs = _checked_rows(self.rows, self.family.weights.original, self.family.degree)
        if not vecs:
            raise ValidationError("support must contain at least one monomial")
        object.__setattr__(self, "rows", vecs)
        # A row with at most two nonzero exponents has at least m - 2 zeros.
        sparse = map((len(self.family.weights) - 2).__le__, map(tuple.count, vecs, repeat(0)))
        object.__setattr__(self, "sparse_rows", tuple(compress(vecs, sparse)))

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"PolynomialSupport({self.family!r}, {len(self.rows)} rows)"


@dataclass(frozen=True)
class VariableWitness:
    """First support row of shape x_i^k or x_i^k * x_j, if any."""

    variable: int
    witness: ExponentVector | None


@dataclass(frozen=True)
class MonomialExistenceReport:
    witnesses: tuple[VariableWitness, ...]

    @property
    def passed(self) -> bool:
        return all(w.witness is not None for w in self.witnesses)

    @property
    def failing_variables(self) -> tuple[int, ...]:
        return tuple(w.variable for w in self.witnesses if w.witness is None)


def is_witness_row(row: Sequence[int], variable: int) -> bool:
    """Does ``row`` have the shape x_i^k or x_i^k * x_j for ``variable`` i?"""
    variable = as_int(variable, "variable index")
    if not 0 <= variable < len(row):
        raise ValidationError(f"variable index {variable} out of range for {len(row)} variables")
    others = [e for j, e in enumerate(row) if j != variable and e]
    return row[variable] >= 1 and others in ([], [1])


def witness_rows(p: PolynomialSupport) -> list[list[tuple[ExponentVector, int | None]]]:
    """Each variable's witness rows as (row, companion), in support order.

    These are the rows :func:`is_witness_row` accepts: x_i^k with companion
    None, and x_i^k * x_j with companion j. One pass over the support's
    ``sparse_rows`` finds them for every variable.
    """
    m = len(p.family.weights)
    found: list[list[tuple[ExponentVector, int | None]]] = [[] for _ in range(m)]
    for row in p.sparse_rows:
        nonzero = [j for j, e in enumerate(row) if e]
        if len(nonzero) == 1:
            found[nonzero[0]].append((row, None))
        elif len(nonzero) == 2:
            i, j = nonzero
            if row[j] == 1:
                found[i].append((row, j))
            if row[i] == 1:
                found[j].append((row, i))
    return found


def monomial_existence_check(p: PolynomialSupport) -> MonomialExistenceReport:
    """Per-variable necessary condition for quasismoothness of an explicit member.

    A quasismooth polynomial must contain, for each variable i, a monomial of
    shape x_i^k or x_i^k * x_j; otherwise all partial derivatives vanish at
    the i-th coordinate point of the affine cone. The witness reported is the
    first such row of the support.
    """
    return MonomialExistenceReport(
        witnesses=tuple(
            VariableWitness(variable=i, witness=rows[0][0] if rows else None)
            for i, rows in enumerate(witness_rows(p))
        )
    )


def _coefficient(coeff, idx: int) -> Fraction:
    """The ``idx``-th coefficient under :func:`~wph.weights.as_rational`; never zero."""
    c = as_rational(coeff, f"coefficient {idx}")
    if c == 0:
        raise ValidationError(f"term {idx} has coefficient zero")
    return c


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class WeightedPolynomial:
    """Weighted-homogeneous polynomial with exact rational coefficients.

    Unlike :class:`PolynomialSupport` this stores coefficients and its own
    degree, which may be zero. Terms with mismatched degree are a hard error,
    never silently dropped. ``terms`` is given as (coefficient, exponents)
    pairs and stored as a tuple of (Fraction, exponent vector) pairs;
    coefficients follow :func:`~wph.weights.as_rational`. ``weights`` may be
    any iterable of integers, which is wrapped in a :class:`WeightSystem`.
    """

    weights: WeightSystem
    degree: int
    terms: tuple[tuple[Fraction, ExponentVector], ...]

    def __post_init__(self):
        degree = as_int(self.degree, "degree")
        if degree < 0:
            raise ValidationError("polynomial degree must be nonnegative")
        if not isinstance(self.weights, WeightSystem):
            object.__setattr__(self, "weights", WeightSystem(self.weights))
        coeffs, rows = [], []
        try:
            indexed = enumerate(self.terms)
        except TypeError as exc:
            raise ValidationError(
                f"terms must be an iterable of (coefficient, exponents) pairs, got {self.terms!r}"
            ) from exc
        for idx, term in indexed:
            try:
                coeff, exps = term
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"term {idx} must be a (coefficient, exponents) pair, got {term!r}"
                ) from exc
            coeffs.append(_coefficient(coeff, idx))
            rows.append(exps)
        vecs = _checked_rows(rows, self.weights.original, degree)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", tuple(zip(coeffs, vecs)))

    @classmethod
    def from_support(
        cls,
        support: PolynomialSupport,
        coefficients: Sequence[Fraction | int | str] | None = None,
    ) -> "WeightedPolynomial":
        """The polynomial with the support's rows and these coefficients.

        Only the coefficients are checked: the rows were checked when the
        support was built, so the fields are set without ``__post_init__``.
        """
        if coefficients is None:
            coefficients = [1] * len(support.rows)
        elif type(coefficients) not in (list, tuple):
            raise ValidationError(f"coefficients must be a list or tuple, got {coefficients!r}")
        if len(coefficients) != len(support.rows):
            raise ValidationError(
                f"{len(coefficients)} coefficients for {len(support.rows)} monomials"
            )
        terms = tuple(zip(map(_coefficient, coefficients, count()), support.rows))
        f = object.__new__(cls)
        object.__setattr__(f, "weights", support.family.weights)
        object.__setattr__(f, "degree", support.family.degree)
        object.__setattr__(f, "terms", terms)
        return f

    def __repr__(self) -> str:
        return (
            f"WeightedPolynomial(weights={list(self.weights.original)!r}, "
            f"degree={self.degree}, {len(self.terms)} terms)"
        )


def _derivative_terms(terms, i):
    """(e * c, x^v / x_i) for each term c * x^v with e = v_i >= 1."""
    for c, vec in terms:
        e = vec[i]
        if e:
            yield c * e, vec[:i] + (e - 1,) + vec[i + 1 :]


def euler_check(f: WeightedPolynomial) -> bool:
    """Verify sum_i a_i * x_i * df/dx_i == d * f term by term.

    The identity is forced for weighted-homogeneous input, so this is a
    self-test of the derivative plumbing rather than a property of ``f``.
    Both sides are scaled by the lcm of the denominators once, so the sums
    run over integers; a positive scale keeps every equality and every zero.
    """
    scale = lcm(*[c.denominator for c, _ in f.terms])
    terms = [(c.numerator * (scale // c.denominator), vec) for c, vec in f.terms]
    acc: dict[ExponentVector, int] = {}
    for i, a in enumerate(f.weights.original):
        for c, vec in _derivative_terms(terms, i):
            lifted = vec[:i] + (vec[i] + 1,) + vec[i + 1 :]
            acc[lifted] = acc.get(lifted, 0) + a * c
    lhs = {vec: c for vec, c in acc.items() if c}
    rhs = {vec: f.degree * c for c, vec in terms}
    return lhs == rhs
