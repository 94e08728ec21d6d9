"""Combinatorial existence criterion for quasismooth hypersurfaces.

A general member of the family with weights a_0, ..., a_{n+1} and degree d is
quasismooth iff either some a_i equals d (the linear cone case), or for every
nonempty index subset I one of the following holds:

(a) d is a nonnegative integer combination of the weights in I, or
(b) at least |I| indices j outside I have d - a_j representable that way.

One traversal visits the subsets in increasing size, lexicographically within
a size, and yields each failing one as a :class:`SubsetDiagnostic`. A
singleton {i} reduces to divisibility (d or some d - a_j a multiple of a_i),
so it never has an outside witness when it fails. Larger subsets read one
representability mask of d + 1 bits per distinct set of weight values.
By default the scan stops at the first failure; with ``diagnostics=True`` it
runs to the end and reports every failing subset. A passing family visits
every subset either way. Subset indices refer to the canonical
(non-increasing) weight order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

from .errors import ResourceCapError
from .intlinalg import representable_mask
from .weights import HypersurfaceFamily

MAX_SUBSET_VARIABLES = 24


@dataclass(frozen=True)
class SubsetDiagnostic:
    """Why one index subset failed (or passed) the criterion."""

    subset: tuple[int, ...]
    degree_representable: bool
    outside_witnesses: tuple[int, ...]
    required: int

    @property
    def passed(self) -> bool:
        return self.degree_representable or len(self.outside_witnesses) >= self.required


@dataclass(frozen=True)
class QuasismoothReport:
    exists: bool
    is_linear_cone: bool
    failing_subsets: tuple[SubsetDiagnostic, ...]


def is_linear_cone(fam: HypersurfaceFamily) -> bool:
    """True iff some weight equals the degree, i.e. f contains a bare variable."""
    return fam.degree in fam.weights.canonical


def _failing_subsets(weights, d):
    """Failing subsets of the criterion, as diagnostics in (size, lex) order."""
    for i, a in enumerate(weights):
        if d % a and not any(
            j != i and d >= b and (d - b) % a == 0 for j, b in enumerate(weights)
        ):
            yield SubsetDiagnostic((i,), False, (), 1)
    masks: dict[frozenset[int], int] = {}
    for size in range(2, len(weights) + 1):
        for subset in combinations(range(len(weights)), size):
            values = frozenset(weights[i] for i in subset)
            mask = masks.get(values)
            if mask is None:
                mask = masks[values] = representable_mask(d, values)
            if (mask >> d) & 1:
                continue
            witnesses = tuple(
                j
                for j, a in enumerate(weights)
                if j not in subset and a <= d and (mask >> (d - a)) & 1
            )
            if len(witnesses) < size:
                yield SubsetDiagnostic(subset, False, witnesses, size)


def quasismooth_exists(
    fam: HypersurfaceFamily, *, diagnostics: bool = False
) -> QuasismoothReport:
    """Does the family contain a quasismooth member?

    Implements the subset criterion verbatim over all 2^(n+2) - 1 nonempty
    subsets, with the linear cone short-circuit. Families with more than
    24 variables are rejected (the scan is exponential in the variable
    count), as are degrees beyond the representability cap.
    """
    weights = fam.weights.canonical
    m = len(weights)
    if m > MAX_SUBSET_VARIABLES:
        raise ResourceCapError(
            f"subset criterion limited to {MAX_SUBSET_VARIABLES} variables, got {m}"
        )
    if is_linear_cone(fam):
        return QuasismoothReport(exists=True, is_linear_cone=True, failing_subsets=())
    failing = _failing_subsets(weights, fam.degree)
    found = tuple(failing if diagnostics else islice(failing, 1))
    return QuasismoothReport(exists=not found, is_linear_cone=False, failing_subsets=found)
