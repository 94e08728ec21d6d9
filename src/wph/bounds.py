"""Finiteness of the linear automorphism group and explicit order bounds.

The bound route goes through weak Jordan constants of general linear groups:
every finite subgroup of GL_N(C) has an abelian subgroup of index at most
J_N, the weak Jordan constant. For a graded polynomial ring the constant of
its automorphism group is the product of the constants over the multiplicity
of each distinct weight, an abelian group fixing the defining polynomial has
order at most d^(n+2) / (a_0 * ... * a_{n+1}), and dividing out the order-d
scalar kernel gives

    |Lin(X)| <= Jbar * d^(n+1) / (a_0 * ... * a_{n+1}).

The table of weak Jordan constants ships with only the entries this package
can justify on its own: N = 1 (one-dimensional groups are abelian), N = 2
(classical classification of finite subgroups of GL_2, constant 12) and the
factorial rule (N+1)! for N >= 71. Values for 3 <= N <= 70 exist in the
literature but are not reproduced here; they must be supplied through a
table file, and a missing entry is a hard error rather than a guess.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Mapping

from .errors import (
    DimensionError,
    InfiniteGroupError,
    MissingJordanEntryError,
    ValidationError,
)
from .intlinalg import partitions_of
from .weights import HypersurfaceFamily, WeightSystem

#: Effective constant for curves from the classification of large automorphism
#: groups of plane curves: 6 * d^2 / (abc) holds with exactly two exceptional
#: curves, so 21/2 (= 168 / 4^2) is the optimal dimension-1 constant. This is
#: a classification fact, not a value the Jordan route produces.
CURVE_EFFECTIVE_CONSTANT = Fraction(21, 2)

_FACTORIAL_RULE_START = 71

_PINNED_ENTRIES = {1: Fraction(1), 2: Fraction(12)}


class Finiteness(Enum):
    DEG_ABOVE_TWICE_MAX = "DegAboveTwiceMax"
    DEG_TWICE_UNIQUE_MAX = "DegTwiceUniqueMax"
    INFINITE = "Infinite"


@dataclass(frozen=True)
class FinitenessReport:
    finite: bool
    reason: Finiteness
    rational_flag: bool


def lin_finiteness(fam: HypersurfaceFamily) -> FinitenessReport:
    """Is the linear automorphism group of a family member finite?

    Finite iff d > 2 * max(weights), or d = 2 * max(weights) with the maximum
    achieved by a single weight. In the infinite case the hypersurface is
    rational, which is what ``rational_flag`` records. The caller supplies the
    context (well-formed, quasismooth, n >= 1) under which the criterion is
    exact.
    """
    ws = fam.weights.canonical
    mx = ws[0]
    d = fam.degree
    if d > 2 * mx:
        return FinitenessReport(True, Finiteness.DEG_ABOVE_TWICE_MAX, False)
    if d == 2 * mx and ws.count(mx) == 1:
        return FinitenessReport(True, Finiteness.DEG_TWICE_UNIQUE_MAX, False)
    return FinitenessReport(False, Finiteness.INFINITE, True)


@dataclass(frozen=True)
class JordanEntry:
    value: Fraction
    provenance: str


class JordanTable:
    """Upper bounds on weak Jordan constants of GL_N(C), keyed by N.

    Entries for N = 1 and N = 2 are pinned (1 and 12); conflicting overrides
    are rejected. For N >= 71 the factorial rule (N+1)! answers lookups that
    have no explicit entry. Everything else must be loaded explicitly.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, JordanEntry] | None = None):
        merged: dict[int, JordanEntry] = {
            1: JordanEntry(Fraction(1), "pinned: GL_1 subgroups are abelian"),
            2: JordanEntry(Fraction(12), "pinned: finite subgroups of GL_2"),
        }
        for n, entry in (entries or {}).items():
            n = int(n)
            if n < 1:
                raise ValidationError(f"Jordan table key must be >= 1, got {n}")
            value = Fraction(entry.value)
            if value < 1:
                raise ValidationError(f"Jordan constant for N={n} must be >= 1")
            if n in _PINNED_ENTRIES and value != _PINNED_ENTRIES[n]:
                raise ValidationError(
                    f"entry for N={n} is pinned to {_PINNED_ENTRIES[n]}, got {value}"
                )
            if "#" in entry.provenance or "\n" in entry.provenance:
                raise ValidationError(
                    f"provenance for N={n} may not contain '#' or newlines "
                    f"(reserved by the table format)"
                )
            merged[n] = JordanEntry(value, entry.provenance)
        self._entries = merged

    @classmethod
    def default(cls) -> "JordanTable":
        return cls()

    def entry(self, n: int) -> JordanEntry:
        n = int(n)
        got = self._entries.get(n)
        if got is not None:
            return got
        if n >= _FACTORIAL_RULE_START:
            return JordanEntry(
                Fraction(factorial(n + 1)), f"factorial rule for N >= {_FACTORIAL_RULE_START}"
            )
        raise MissingJordanEntryError(n)

    def value(self, n: int) -> Fraction:
        return self.entry(n).value

    def with_entries(
        self, new_entries: Mapping[int, JordanEntry]
    ) -> "JordanTable":
        merged = dict(self._entries)
        merged.update({int(k): v for k, v in new_entries.items()})
        return JordanTable(merged)

    def __eq__(self, other) -> bool:
        return isinstance(other, JordanTable) and self._entries == other._entries

    def dump(self) -> str:
        """One line per explicit entry: ``N value provenance``."""
        lines = []
        for n in sorted(self._entries):
            e = self._entries[n]
            lines.append(f"{n} {_format_value(e.value)} {e.provenance}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "JordanTable":
        """Parse the plain-text table format; ``#`` starts a comment."""
        entries: dict[int, JordanEntry] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 2)
            if len(parts) < 2:
                raise ValidationError(
                    f"Jordan table line {lineno}: expected 'N value provenance'"
                )
            try:
                n = int(parts[0])
                value = _parse_value(parts[1])
            except (ValueError, ZeroDivisionError) as exc:
                raise ValidationError(f"Jordan table line {lineno}: {exc}") from exc
            provenance = parts[2] if len(parts) == 3 else "user-supplied"
            entries[n] = JordanEntry(value, provenance)
        return cls(entries)

    @classmethod
    def load(cls, path: str | Path) -> "JordanTable":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot read Jordan table {path}: {exc}") from exc
        return cls.parse(text)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.dump(), encoding="utf-8")


def _format_value(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _parse_value(token: str) -> Fraction:
    if "/" in token:
        num, den = token.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(token))


def chermak_delgado_bounds(weak_constant: Fraction) -> tuple[Fraction, Fraction]:
    """Admissible range [Jbar, Jbar^2] for the full Jordan constant.

    Offered as an optional sanity filter on user-supplied tables: a claimed
    full constant outside this window contradicts the weak one.
    """
    weak_constant = Fraction(weak_constant)
    return weak_constant, weak_constant * weak_constant


def weak_jordan_of_aut(w: WeightSystem, table: JordanTable) -> Fraction:
    """Weak Jordan constant of the graded automorphism group of the ring.

    Automorphisms cannot mix variables of different weights after conjugation,
    so the constant is the product over distinct weight values of the GL_N
    constant at the multiplicity N of that value. Distinct weights therefore
    give 1: every finite subgroup is abelian.
    """
    value = Fraction(1)
    for multiplicity in Counter(w.canonical).values():
        value *= table.value(multiplicity)
    return value


def worst_case_constant(n: int, table: JordanTable) -> Fraction:
    """Largest weak Jordan constant over all weight systems of a dimension.

    Maximizes the multiplicity product over all partitions of n+2. Monotone
    in every table entry.
    """
    n = int(n)
    if n < 0:
        raise ValidationError("dimension must be >= 0")
    best = Fraction(0)
    for partition in partitions_of(n + 2):
        value = Fraction(1)
        for part in partition:
            value *= table.value(part)
        if value > best:
            best = value
    return best


@dataclass(frozen=True)
class OrderBound:
    """Exact rational bound on |Lin(X)| and its usable integer floor."""

    weak_jordan: Fraction
    exact: Fraction
    floor: int


def lin_order_bound(fam: HypersurfaceFamily, table: JordanTable) -> OrderBound:
    """Family-specific bound Jbar * d^(n+1) / (a_0 * ... * a_{n+1}).

    Uses the family's own weak Jordan constant rather than the worst case
    over the dimension, so it is as sharp as the route allows. Requires the
    finiteness criterion to hold.
    """
    report = lin_finiteness(fam)
    if not report.finite:
        raise InfiniteGroupError(
            f"{fam} has infinite linear automorphism group; no order bound applies"
        )
    jbar = weak_jordan_of_aut(fam.weights, table)
    exact = jbar * Fraction(fam.degree ** (fam.n + 1), fam.weight_product)
    return OrderBound(weak_jordan=jbar, exact=exact, floor=exact.__floor__())


@dataclass(frozen=True)
class ExceptionalCurve:
    name: str
    group: str
    order: int


KLEIN_QUARTIC = ExceptionalCurve("Klein quartic", "PSL(2, F_7)", 168)
WIMAN_SEXTIC = ExceptionalCurve("Wiman sextic", "A_6", 360)


@dataclass(frozen=True)
class CurveBound:
    bound: Fraction
    exceptions: tuple[ExceptionalCurve, ...]


def curve_bound(fam: HypersurfaceFamily) -> CurveBound:
    """Curve bound 6 d^2 / (abc) with its two exceptional plane curves.

    Exactly two curves beat the bound: the Klein quartic (order 168) and the
    Wiman sextic (order 360), both plane curves, attached whenever the input
    is their family.
    """
    if fam.n != 1:
        raise DimensionError(f"curve bound needs a curve (3 weights), got n={fam.n}")
    report = lin_finiteness(fam)
    if not report.finite:
        raise InfiniteGroupError(
            f"{fam} has infinite linear automorphism group; no curve bound applies"
        )
    bound = Fraction(6 * fam.degree**2, fam.weight_product)
    exceptions: tuple[ExceptionalCurve, ...] = ()
    if fam.weights.canonical == (1, 1, 1):
        if fam.degree == 4:
            exceptions = (KLEIN_QUARTIC,)
        elif fam.degree == 6:
            exceptions = (WIMAN_SEXTIC,)
    return CurveBound(bound=bound, exceptions=exceptions)
