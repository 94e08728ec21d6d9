"""Combinatorial existence criterion for quasismooth hypersurfaces.

A general member of the family with weights a_0, ..., a_{n+1} and degree d is
quasismooth iff either some a_i equals d (the linear cone case), or for every
nonempty index subset I one of the following holds:

(a) d is a nonnegative integer combination of the weights in I, or
(b) at least |I| indices j outside I have d - a_j representable that way.

One traversal visits the subsets in increasing size, lexicographically within
a size, and yields each failing one as a :class:`SubsetDiagnostic`. A
singleton {i} reduces to divisibility (d or some d - a_j a multiple of a_i),
so it never has an outside witness when it fails. A larger subset reads a
representability mask of d + 1 bits, built from its parent's mask (the
subset without its last index) by closing it under one more weight; only
singleton masks come from :func:`representable_mask`, and the masks of one
size are kept until the next size is built. By default the scan stops at the
first failure; with ``diagnostics=True`` it runs to the end and reports every
failing subset. A passing family visits every subset either way. Subset
indices refer to the canonical (non-increasing) weight order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

from .errors import ResourceCapError
from .intlinalg import _closed, representable_mask
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
    """Failing subsets of the criterion, as diagnostics in (size, lex) order.

    Parents of one size, in lex order, give their children in lex order; only
    the masks of subsets that can be parents (last index below m - 1) are kept.
    """
    m = len(weights)
    for i, a in enumerate(weights):
        if d % a and not any(
            j != i and d >= b and (d - b) % a == 0 for j, b in enumerate(weights)
        ):
            yield SubsetDiagnostic((i,), False, (), 1)
    masks = [representable_mask(d, (a,)) for a in weights[:-1]]
    full = (1 << (d + 1)) - 1
    for size in range(2, m + 1):
        kept = []
        for parent, mask in zip(combinations(range(m - 1), size - 1), masks):
            for j in range(parent[-1] + 1, m):
                child = mask
                g = weights[j]
                # Once d is representable only bit d is read, here and below.
                # A representable g leaves the semigroup as it is, which
                # covers a weight equal to the one before it.
                if not (child >> d) & 1 and not (child >> g) & 1:
                    child = _closed(child, g, d, full)
                if j < m - 1:
                    kept.append(child)
                if (child >> d) & 1:
                    continue
                subset = parent + (j,)
                witnesses = tuple(
                    k
                    for k, a in enumerate(weights)
                    if k not in subset and a <= d and (child >> (d - a)) & 1
                )
                if len(witnesses) < size:
                    yield SubsetDiagnostic(subset, False, witnesses, size)
        masks = kept


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
