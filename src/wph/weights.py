"""Weight systems, hypersurface families and their basic classifiers."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from operator import index
from typing import Iterable

from .errors import ValidationError


def as_int(value, what: str) -> int:
    """Coerce to int, rejecting bools, floats and other non-integral values."""
    if type(value) is bool:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    try:
        return index(value)
    except TypeError as exc:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from exc


class WeightSystem:
    """Positive integer weights of an ambient weighted projective space.

    ``original`` keeps the order the weights were given in (exponent vectors
    of explicit polynomials align with it); ``canonical`` is the same multiset
    sorted non-increasingly and is what all family-level classifiers use.
    """

    __slots__ = ("original", "canonical")

    def __init__(self, weights: Iterable[int]):
        try:
            ws = tuple(as_int(a, "weight") for a in weights)
        except TypeError as exc:
            raise ValidationError(f"weights must be an iterable of integers: {exc}") from exc
        if len(ws) < 2:
            raise ValidationError("a weight system needs at least two weights")
        if any(a < 1 for a in ws):
            raise ValidationError(f"weights must be positive, got {ws}")
        self.original = ws
        self.canonical = tuple(sorted(ws, reverse=True))

    def __len__(self) -> int:
        return len(self.original)

    @property
    def n(self) -> int:
        """Dimension of a hypersurface in the associated projective space."""
        return len(self.original) - 2

    def canonicalized(self) -> "WeightSystem":
        """The same weights with the canonical order as the stored order."""
        return WeightSystem(self.canonical)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightSystem) and self.original == other.original

    def __hash__(self) -> int:
        return hash(("WeightSystem", self.original))

    def __repr__(self) -> str:
        return f"WeightSystem({list(self.original)!r})"


class HypersurfaceFamily:
    """A weight system together with a degree; the input every criterion takes.

    Degenerate degrees below every weight are allowed: such families simply
    have an empty graded piece in that degree and fail the existence criteria,
    they are not construction errors.
    """

    __slots__ = ("weights", "degree")

    def __init__(self, weights: WeightSystem, degree: int):
        degree = as_int(degree, "degree")
        if degree < 1:
            raise ValidationError(f"degree must be positive, got {degree}")
        if not isinstance(weights, WeightSystem):
            weights = WeightSystem(weights)
        self.weights = weights
        self.degree = degree

    @classmethod
    def of(cls, weights: Iterable[int], degree: int) -> "HypersurfaceFamily":
        return cls(WeightSystem(weights), degree)

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
        prod = 1
        for a in self.weights.original:
            prod *= a
        return prod

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HypersurfaceFamily)
            and self.weights == other.weights
            and self.degree == other.degree
        )

    def __hash__(self) -> int:
        return hash(("HypersurfaceFamily", self.weights.original, self.degree))

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
