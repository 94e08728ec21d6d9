"""Combinatorial existence criterion for quasismooth hypersurfaces.

A general member of the family with weights a_0, ..., a_{n+1} and degree d is
quasismooth iff either some a_i equals d (the linear cone case), or for every
nonempty index subset I one of the following holds:

(a) d is a nonnegative integer combination of the weights in I, or
(b) at least |I| indices j outside I have d - a_j representable that way.

One traversal visits the subsets in increasing size, lexicographically within
a size, and yields each failing one as a :class:`SubsetDiagnostic`. It is the
one quasismooth decision: ``quasismooth_exists`` and both census searches run
it on a canonical weight tuple. More than ``MAX_SUBSET_VARIABLES`` (24)
weights raise :class:`ResourceCapError` before anything else, the scan being
exponential in the variable count; a linear cone then yields nothing. A
singleton {i} reduces to divisibility (d or some d - a_j a multiple of a_i),
so it never has an outside witness when it fails.

Before any larger subset, a certificate is tried (Kreuzer-Skarke's witness
pointers). Give each index i a pointer p(i): p(i) = i if a_i divides d,
else some j != i with a_j < d and a_i dividing d - a_j, so that
x_i^{k_i} * x_{p(i)} has degree d for some k_i >= 1. One table of which
a_i divide which d - a_j gives both the singleton tests and the possible
pointers. An index whose singleton fails has no pointer, so such a family
has no certificate.

Lemma. If the pointers of the indices with a_i not dividing d are pairwise
distinct, every nonempty subset I satisfies the criterion.

Proof. If some i in I has p(i) in I, then x_i^{k_i} * x_{p(i)} is supported
on I and d = k_i * a_i + a_{p(i)} (or d = k_i * a_i when p(i) = i) is a
combination of the weights in I: (a) holds. Otherwise no a_i with i in I
divides d, so p maps I injectively outside I, and each
d - a_{p(i)} = k_i * a_i is representable by I: these |I| outside indices
give (b).

Such pointers are found by augmenting-path bipartite matching; when they
exist the family passes with no scan. Otherwise a larger subset reads a
representability mask of d + 1 bits, built from its parent's mask (the
subset without its last index) by closing it under one more weight; only
the singleton masks start from the empty semigroup, and the masks of one
size are kept until the next size is built. Degrees above
``REPRESENTABLE_TARGET_CAP`` raise :class:`ResourceCapError` once the
singletons are tested, before the certificate or any mask is built. A
subset whose mask lacks d reads its outside witnesses off the bits d - a_j
of that mask, one tuple that both counts and reports them. By default the
scan stops at the first failure; with ``diagnostics=True`` it runs to the
end and reports every failing subset. A passing family that has no
certificate visits every subset either way. Subset indices refer to the
canonical (non-increasing) weight order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

from .errors import ResourceCapError
from .intlinalg import _check_target_cap, _closed
from .weights import HypersurfaceFamily

MAX_SUBSET_VARIABLES = 24


@dataclass(frozen=True)
class SubsetDiagnostic:
    """Why one index subset failed the criterion."""

    subset: tuple[int, ...]
    degree_representable: bool
    outside_witnesses: tuple[int, ...]
    required: int


@dataclass(frozen=True)
class QuasismoothReport:
    exists: bool
    is_linear_cone: bool
    failing_subsets: tuple[SubsetDiagnostic, ...]


def is_linear_cone(fam: HypersurfaceFamily) -> bool:
    """True iff some weight equals the degree, i.e. f contains a bare variable."""
    return fam.degree in fam.weights.canonical


def _claim(s, targets, owner, seen) -> bool:
    """Give the s-th index a target not in ``seen``, moving earlier owners along."""
    for j in targets[s]:
        if j not in seen:
            seen.add(j)
            if j not in owner or _claim(owner[j], targets, owner, seen):
                owner[j] = s
                return True
    return False


def _distinct_pointers(targets):
    """Can each index point to its own target, no two indices sharing one?

    Augmenting-path bipartite matching: ``targets[s]`` lists the targets open
    to the s-th index, and ``owner`` maps a target to the index holding it.
    The search is a module-level function, not a closure that refers to
    itself, so nothing it builds waits for the cycle collector.
    """
    owner = {}
    return all(_claim(s, targets, owner, set()) for s in range(len(targets)))


def _check_variable_count(m: int) -> None:
    """Raise if the subset criterion cannot decide a family of ``m`` weights."""
    if m > MAX_SUBSET_VARIABLES:
        raise ResourceCapError(
            f"subset criterion limited to {MAX_SUBSET_VARIABLES} variables, got {m}"
        )


def _failing_subsets(weights, d):
    """Failing subsets of the criterion, as diagnostics in (size, lex) order.

    Parents of one size, in lex order, give their children in lex order; only
    the masks of subsets that can be parents (last index below m - 1) are kept.
    """
    m = len(weights)
    _check_variable_count(m)
    if d in weights:
        return
    # One divisibility table serves the singletons and the pointers. An
    # index with a_i dividing d passes its singleton and points to itself.
    # Any other i passes iff it has a target: a j with a_j < d and a_i
    # dividing d - a_j. A failed singleton has no target, so the matching
    # fails too.
    gaps = [(j, d - b) for j, b in enumerate(weights) if b < d]
    targets = []
    for i, a in enumerate(weights):
        if d % a:
            row = [j for j, g in gaps if g % a == 0]
            if not row:
                yield SubsetDiagnostic((i,), False, (), 1)
            targets.append(row)
    _check_target_cap(d)
    # The lemma of the module docstring.
    if _distinct_pointers(targets):
        return
    full = (1 << (d + 1)) - 1
    masks = [_closed(1, a, d, full) for a in weights[:-1]]
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
                # An index inside the subset never witnesses: d - a and a
                # would sum to d.
                witnesses = tuple(k for k, gap in gaps if (child >> gap) & 1)
                if len(witnesses) < size:
                    yield SubsetDiagnostic(parent + (j,), False, witnesses, size)
        masks = kept


def quasismooth_exists(
    fam: HypersurfaceFamily, *, diagnostics: bool = False
) -> QuasismoothReport:
    """Does the family contain a quasismooth member?

    Decides the subset criterion exactly, with the linear cone
    short-circuit. After the singleton tests, distinct witness pointers
    settle a passing family at once; a family without them is scanned over
    all 2^(n+2) - 1 nonempty subsets. Families with more than 24 variables
    are rejected (the scan is exponential in the variable count), as are
    degrees beyond the representability cap.
    """
    failing = _failing_subsets(fam.weights.canonical, fam.degree)
    found = tuple(failing if diagnostics else islice(failing, 1))
    return QuasismoothReport(
        exists=not found, is_linear_cone=is_linear_cone(fam), failing_subsets=found
    )
