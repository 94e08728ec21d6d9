"""Enumeration of hypersurface families meeting combinatorial constraints.

The Calabi-Yau search (degree equal to the weight sum) is the workhorse: it
reproduces the classical lists of elliptic and K3 hypersurface families. It
walks sorted tuples a_1 >= a_2 >= ... of smaller weights and completes each
with leading weights a_0 >= a_1, so d = a_0 + R with R the sum of the smaller
weights, and only tuples with R + a_1 <= max_degree are visited. Four tests
prune on the raw integers, before any WeightSystem is built:

* the singleton condition at the lead: a_0 divides R or R minus a smaller
  weight. Every smaller weight is at most a_0, so the quotient is at most
  the number of weights summed, and a few divisions give the leads;
* dominance, with two or more weights after a_1: let S = a_2 + a_3 + ...
  If S < a_1, then a_0 = a_1 + S - b and a_1 = 2S - b - b' for some b, b'
  in {0, a_2, a_3, ...}. Proof: a_0 divides a_1 + S - b for b = 0 or a
  weight other than a_0 (singleton condition at a_0); b = a_1 would need
  a_0 <= S < a_1, so 0 < a_1 + S - b < 2 a_0 and the quotient is 1. Then
  d = 2 a_1 + 2S - b, and a_1 divides d - b', that is 2S - b - b', for
  b' = 0 or a weight other than a_1 (singleton condition at a_1); b' = a_0
  would need a_1 | S. Every b, b' is at most a_2 < S, so
  0 < 2S - b - b' < 2 a_1 and the quotient is 1 again. (With a_2 alone
  after a_1, b = b' = a_2 = S is also possible, and the test is not used.)
  So the walk takes every last weight at or above the split, where
  S >= a_1, and below it only the few last weights these equations give;
* well-formedness: the smaller weights must be coprime, and a_0 must be
  coprime to each of their omit-one gcds;
* the singleton condition at every smaller weight a: a must divide d or
  d minus another weight.

The quasismooth tests apply only under ``require_quasismooth``, the
well-formedness tests only under ``require_well_formed``. Each is a necessary
condition only, and every emitted family is re-checked against the public
predicates, so the pruning changes the speed of the search and never its
result.

The candidate cap counts the steps of the Calabi-Yau search: each prefix of
smaller weights (all but the last) it walks, each tuple of smaller weights it
visits, and each lead the first test keeps (each lead in range without
``require_quasismooth``; none when the smaller weights share a factor under
``require_well_formed``). A tuple the dominance test skips is not visited and
is not counted; a prefix costs a bounded amount of work whether or not any of
its tuples is visited, which its own step pays for. The search raises
ResourceCapError once the count passes the cap, before it does the work
counted. The generic search (another canonical kind, or none) raises up front
when its (weights, degree) pairs number more than the cap; with a Fano or
general-type kind it tries only the degrees below or above the weight sum.

The measured census time against the degree bound is in ``bench/README.md``
(section "Census scaling", from ``python3 bench/scaling.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
from math import comb, gcd, lcm

from .errors import ResourceCapError, ValidationError
from .quasismooth import is_linear_cone, quasismooth_exists
from .weights import (
    CanonicalKind,
    HypersurfaceFamily,
    WeightSystem,
    as_int,
    canonical_class,
    is_well_formed,
    omit_one_gcds,
)

DEFAULT_CANDIDATE_CAP = 50_000_000


@dataclass(frozen=True)
class SearchConstraints:
    """What to enumerate and which filters to apply."""

    dimension: int
    canonical_kind: CanonicalKind | None = None
    max_degree: int = 300
    max_weight: int | None = None
    require_well_formed: bool = True
    require_quasismooth: bool = True
    exclude_linear_cones: bool = True
    candidate_cap: int = DEFAULT_CANDIDATE_CAP

    def __post_init__(self):
        for name in ("dimension", "max_degree", "candidate_cap"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.max_weight is not None:
            object.__setattr__(self, "max_weight", as_int(self.max_weight, "max_weight"))
        if self.dimension < 0:
            raise ValidationError("dimension must be >= 0")
        if self.max_degree < 1:
            raise ValidationError("max_degree must be >= 1")
        if self.max_weight is not None and self.max_weight < 1:
            raise ValidationError("max_weight must be >= 1")
        if self.candidate_cap < 1:
            raise ValidationError("candidate_cap must be >= 1")

    @property
    def variables(self) -> int:
        return self.dimension + 2

    @property
    def effective_max_weight(self) -> int:
        return self.max_weight if self.max_weight is not None else self.max_degree


def _passes_filters(fam: HypersurfaceFamily, c: SearchConstraints) -> bool:
    if c.exclude_linear_cones and is_linear_cone(fam):
        return False
    if c.canonical_kind is not None and canonical_class(fam).kind is not c.canonical_kind:
        return False
    if c.require_well_formed and not is_well_formed(fam.weights):
        return False
    if c.require_quasismooth and not quasismooth_exists(fam).exists:
        return False
    return True


def _cap_exceeded(c: SearchConstraints) -> ResourceCapError:
    return ResourceCapError(
        f"candidate cap {c.candidate_cap} exceeded during search; raise it to proceed"
    )


def _prefixes(length: int, top: int, max_degree: int):
    """(prefix, sum, gcd, largest last weight) for the smaller weights but the
    last, over the tuples with 2 a_1 + a_2 + ... <= max_degree."""
    if length == 1:
        yield (), 0, 0, min(top, max_degree // 2)
        return

    def rec(prefix, total, g, bound, room):
        left = length - len(prefix)
        if left == 1:
            yield prefix, total, g, min(bound, room)
            return
        for e in range(1, min(bound, room - left + 1) + 1):
            yield from rec(prefix + (e,), total + e, gcd(g, e), e, room - e)

    for first in range(1, min(top, (max_degree - length + 1) // 2) + 1):
        yield from rec((first,), first, first, first, max_degree - 2 * first)


def _dominated_lasts(first, rest, tail, hi):
    """The last weights e in 1..hi that pass the dominance test, in order.

    ``first`` is a_1 and ``tail`` the weights between a_1 and e, with sum
    ``rest``; every e <= hi has S = rest + e < a_1. The test asks for
    a_1 = 2S - b - b' with b, b' in {0, e} or ``tail``.
    """
    if first == 2 * rest:  # b = b' = e: every e
        return range(1, hi + 1)
    others = {0, *tail}
    lasts = {first - 2 * rest + b for b in others}  # one of b, b' is e
    lasts.update(  # neither is e
        (first + b + b2) // 2 - rest
        for b in others
        for b2 in others
        if (first + b + b2) % 2 == 0
    )
    return sorted(e for e in lasts if 1 <= e <= hi)


def _enumerate_calabi_yau(c: SearchConstraints) -> list[HypersurfaceFamily]:
    length = c.variables - 1
    top = min(c.effective_max_weight, c.max_degree - length)
    found: list[HypersurfaceFamily] = []
    if top < 1:
        return found
    qs, wf = c.require_quasismooth, c.require_well_formed
    # With one smaller weight every lead passes both singleton conditions.
    every_lead = not qs or length == 1
    dominance = qs and length > 2
    cap, max_degree = c.candidate_cap, c.max_degree
    seen = 0
    for prefix, psum, pgcd, last_max in _prefixes(length, top, max_degree):
        first = prefix[0] if prefix else 0
        lasts = range(1, last_max + 1)
        if dominance:
            # Below the split S = psum - a_1 + e is less than a_1.
            split = 2 * first - psum
            if split > 1:
                lasts = [
                    *_dominated_lasts(first, psum - first, prefix[1:], min(split - 1, last_max)),
                    *range(split, last_max + 1),
                ]
        seen += 1 + len(lasts)
        if seen > cap:
            raise _cap_exceeded(c)
        if not lasts:
            continue
        if qs:
            values = sorted(set(prefix), reverse=True)
            residues = [(a, {b % a for b in values}) for a in values]
        if not every_lead:
            # The lead divides d - q - b = total - b for b = 0 or a smaller
            # weight: ``bases`` holds total - b - e for b = 0 or a prefix
            # weight, and b = e gives the leads dividing psum.
            bases = [psum, *[psum - b for b in values]]
            by_last = [psum // k for k in range(1, psum // first + 1) if psum % k == 0]
        omitted = None
        for e in lasts:
            if wf and gcd(pgcd, e) != 1:
                continue
            total = psum + e
            lead_min = first or e
            lead_max = min(top, max_degree - total)
            if every_lead:
                leads = range(lead_min, lead_max + 1)
            else:
                leads = {q for q in by_last if q <= lead_max}
                for v in bases:
                    v += e
                    for k in range(-(-v // lead_max), v // lead_min + 1):
                        if v % k == 0:
                            leads.add(v // k)
            seen += len(leads)
            if seen > cap:
                raise _cap_exceeded(c)
            if not leads:
                continue
            if qs:
                # Each smaller weight a divides d, or d - b for another weight
                # b; with b = e that is a | q + psum.
                for a, allowed in residues:
                    r = total % a
                    if r:
                        leads = [q for q in leads if (q + r) % a in allowed or (q + psum) % a == 0]
                        if not leads:
                            break
                else:
                    r = psum % e
                    if r:
                        allowed = {b % e for b in values}
                        allowed.add(0)
                        leads = [q for q in leads if (q + r) % e in allowed]
            if wf and leads:
                if omitted is None:
                    omitted = set(omit_one_gcds(prefix))
                coprime_to = lcm(pgcd, *[gcd(g, e) for g in omitted])
                leads = [q for q in leads if gcd(q, coprime_to) == 1]
            smalls = prefix + (e,)
            for q in leads:
                fam = HypersurfaceFamily(WeightSystem((q,) + smalls), q + total)
                if _passes_filters(fam, c):
                    found.append(fam)
    return found


def _enumerate_generic(c: SearchConstraints) -> list[HypersurfaceFamily]:
    m = c.variables
    max_w = c.effective_max_weight
    raw = comb(max_w + m - 1, m) * c.max_degree
    if raw > c.candidate_cap:
        raise ResourceCapError(
            f"search would examine {raw} (weights, degree) pairs, above the cap "
            f"{c.candidate_cap}; raise the cap or tighten the constraints"
        )
    # Well-formedness depends on the weights alone, so it is tested once per
    # weight system, not once per degree.
    per_degree = replace(c, require_well_formed=False)
    found = []
    for tup in combinations_with_replacement(range(max_w, 0, -1), m):
        w = WeightSystem(tup)
        if c.require_well_formed and not is_well_formed(w):
            continue
        # A Fano degree is below the weight sum, a general-type one above it.
        degrees = range(1, c.max_degree + 1)
        if c.canonical_kind is CanonicalKind.FANO:
            degrees = degrees[: sum(tup) - 1]
        elif c.canonical_kind is CanonicalKind.GENERAL_TYPE:
            degrees = degrees[sum(tup) :]
        for d in degrees:
            fam = HypersurfaceFamily(w, d)
            if _passes_filters(fam, per_degree):
                found.append(fam)
    return found


def enumerate_families(c: SearchConstraints) -> list[HypersurfaceFamily]:
    """All families meeting the constraints, deduplicated up to permutation.

    Weights are canonical (non-increasing) in the output, which is sorted by
    (degree, weights). Raises ResourceCapError if the raw candidate count
    would exceed the configured cap.
    """
    if c.canonical_kind is CanonicalKind.CALABI_YAU:
        found = _enumerate_calabi_yau(c)
    else:
        found = _enumerate_generic(c)
    found.sort(key=lambda f: (f.degree, f.weights.canonical))
    return found
