"""Weight systems, hypersurface families and their basic classifiers."""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd, prod
from operator import index

from .errors import ValidationError


def as_int(value, what: str) -> int:
    """Coerce to int, rejecting bools, floats and other non-integral values."""
    if type(value) is bool:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    try:
        return index(value)
    except TypeError as exc:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from exc


_PLAIN_INT = re.compile(r"[+-]?[0-9]+")


def _too_long(action: str) -> str:
    """Why an int past Python's limit on conversions to or from text was refused."""
    return f"integer too long to {action} (more than {sys.get_int_max_str_digits()} digits)"


def _plain_int(text: str) -> int | None:
    """The value of an optionally signed run of ASCII digits, else None.

    ``int`` alone would also take underscores, surrounding blanks and
    non-ASCII digits. Too many digits for ``int`` raise ValidationError.
    """
    if not _PLAIN_INT.fullmatch(text):
        return None
    try:
        return int(text)
    except ValueError:
        raise ValidationError(_too_long("read")) from None


def _text_int(token: str, what: str) -> int:
    """:func:`_plain_int` of ``token``; a ValidationError naming it otherwise."""
    value = _plain_int(token)
    if value is None:
        raise ValidationError(f"{what}: {token!r} is not an integer")
    return value


def as_rational(value, what: str) -> Fraction:
    """The exact rational rule: a Fraction, an integer, or text ``p`` or ``p/q``.

    Integers are taken as :func:`as_int` takes them, and both parts of the
    text must pass :func:`_plain_int`. Bools, floats, blanks, underscores,
    exponents, non-ASCII digits and zero denominators are rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        p = _text_int(num, what)
        q = _text_int(den, what) if slash else 1
        if q == 0:
            raise ValidationError(f"{what}: {value!r} has a zero denominator")
        return Fraction(p, q)
    try:
        return Fraction(as_int(value, what))
    except ValidationError:
        raise ValidationError(
            f"{what} must be an integer, a Fraction or text 'p/q', got {value!r}"
        ) from None


@dataclass(frozen=True, slots=True, repr=False)
class WeightSystem:
    """Positive integer weights of an ambient weighted projective space.

    ``original`` keeps the order the weights were given in (exponent vectors
    of explicit polynomials align with it); ``canonical`` is the same multiset
    sorted non-increasingly and is what all family-level classifiers use.
    Equality and hashing read ``original`` only, so the given order matters.
    """

    original: tuple[int, ...]
    canonical: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        try:
            ws = tuple(as_int(a, "weight") for a in self.original)
        except TypeError as exc:
            raise ValidationError(f"weights must be an iterable of integers: {exc}") from exc
        if len(ws) < 2:
            raise ValidationError("a weight system needs at least two weights")
        if any(a < 1 for a in ws):
            raise ValidationError(f"weights must be positive, got {ws}")
        object.__setattr__(self, "original", ws)
        object.__setattr__(self, "canonical", tuple(sorted(ws, reverse=True)))

    def __len__(self) -> int:
        return len(self.original)

    @property
    def n(self) -> int:
        """Dimension of a hypersurface in the associated projective space."""
        return len(self.original) - 2

    @property
    def gcd(self) -> int:
        """Greatest common divisor of the weights; 1 when they share no factor."""
        return gcd(*self.original)

    def __repr__(self) -> str:
        return f"WeightSystem({list(self.original)!r})"


@dataclass(frozen=True, slots=True, repr=False)
class HypersurfaceFamily:
    """A weight system together with a degree; the input every criterion takes.

    ``weights`` may be given as any iterable of integers, which is wrapped in
    a :class:`WeightSystem`. Degenerate degrees below every weight are
    allowed: such families simply have an empty graded piece in that degree
    and fail the existence criteria, they are not construction errors.
    """

    weights: WeightSystem
    degree: int

    def __post_init__(self):
        degree = as_int(self.degree, "degree")
        if degree < 1:
            raise ValidationError(f"degree must be positive, got {degree}")
        if not isinstance(self.weights, WeightSystem):
            object.__setattr__(self, "weights", WeightSystem(self.weights))
        object.__setattr__(self, "degree", degree)

    @property
    def n(self) -> int:
        return self.weights.n

    @property
    def max_weight(self) -> int:
        return self.weights.canonical[0]

    @property
    def weight_sum(self) -> int:
        return sum(self.weights.original)

    @property
    def weight_product(self) -> int:
        return prod(self.weights.original)

    def __repr__(self) -> str:
        return f"HypersurfaceFamily({list(self.weights.original)!r}, degree={self.degree})"


class CanonicalKind(Enum):
    FANO = "Fano"
    CALABI_YAU = "CalabiYau"
    GENERAL_TYPE = "GeneralType"


@dataclass(frozen=True)
class CanonicalClassReport:
    """Sign classification of r = d - sum(weights)."""

    r: int
    kind: CanonicalKind


class LinearityVerdict(Enum):
    ALL_LINEAR = "AllLinear"
    MAYBE_NON_LINEAR = "MaybeNonLinear"
    OUT_OF_RANGE = "OutOfRange"


@dataclass(frozen=True)
class WellFormednessFailure:
    """The weights other than ``omitted_index`` share ``shared_factor`` > 1."""

    omitted_index: int
    shared_factor: int


def omit_one_gcds(ws: tuple[int, ...]) -> list[int]:
    """gcd of all entries but the i-th, for each i, from prefix and suffix gcds.

    The gcd of no entries is 0, so a single entry gives ``[0]``.
    """
    m = len(ws)
    prefix = [0] * (m + 1)
    for i, a in enumerate(ws):
        prefix[i + 1] = gcd(prefix[i], a)
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = gcd(suffix[i + 1], ws[i])
    return [gcd(prefix[i], suffix[i + 1]) for i in range(m)]


def well_formedness_failures(w: WeightSystem) -> tuple[WellFormednessFailure, ...]:
    """Omit-one gcd failures, indices referring to the canonical order."""
    return tuple(
        WellFormednessFailure(omitted_index=i, shared_factor=g)
        for i, g in enumerate(omit_one_gcds(w.canonical))
        if g != 1
    )


def is_well_formed(w: WeightSystem) -> bool:
    """True iff every omit-one gcd of the weights equals 1."""
    return not well_formedness_failures(w)


def canonical_class(fam: HypersurfaceFamily) -> CanonicalClassReport:
    """r = d - sum(weights) and its sign classification."""
    r = fam.degree - fam.weight_sum
    if r < 0:
        kind = CanonicalKind.FANO
    elif r == 0:
        kind = CanonicalKind.CALABI_YAU
    else:
        kind = CanonicalKind.GENERAL_TYPE
    return CanonicalClassReport(r=r, kind=kind)


def aut_equals_lin(fam: HypersurfaceFamily) -> LinearityVerdict:
    """Do all automorphisms of a member extend to the ambient space?

    The verdict assumes the caller-supplied context of a well-formed,
    quasismooth member that is not a linear cone. For n >= 3, or n = 2 with
    d != sum(weights), every automorphism is linear. For n = 2 with
    d = sum(weights) the members are K3 surfaces and non-linear automorphisms
    can occur. Dimensions n <= 1 are outside the criterion's range.
    """
    n = fam.n
    if n <= 1:
        return LinearityVerdict.OUT_OF_RANGE
    if n >= 3 or fam.weight_sum != fam.degree:
        return LinearityVerdict.ALL_LINEAR
    return LinearityVerdict.MAYBE_NON_LINEAR


def genericity_condition(fam: HypersurfaceFamily) -> bool:
    """True iff n >= 1 and d >= 5 * max(weights).

    In that range the linear automorphisms of a very general member are
    central in the ambient automorphism group (and in particular abelian).
    """
    return fam.n >= 1 and fam.degree >= 5 * fam.max_weight
