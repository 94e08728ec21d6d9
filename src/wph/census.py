"""Enumeration of hypersurface families meeting combinatorial constraints.

The Calabi-Yau search (degree equal to the weight sum) is the workhorse: it
reproduces the classical lists of elliptic and K3 hypersurface families. It
walks sorted tuples a_1 >= a_2 >= ... of smaller weights and completes each
with leading weights a_0 >= a_1, so d = a_0 + R with R the sum of the smaller
weights, and only tuples with R + a_1 <= max_degree are visited. Three tests
prune on the raw integers, before any WeightSystem is built:

* the singleton condition at the lead: a_0 divides R or R minus a smaller
  weight. Every smaller weight is at most a_0, so the quotient is at most
  the number of weights summed, and a few divisions give the leads;
* well-formedness: the smaller weights must be coprime, and a_0 must be
  coprime to each of their omit-one gcds;
* the singleton condition at every smaller weight a: a must divide d or
  d minus another weight.

The quasismooth tests apply only under ``require_quasismooth``, the
well-formedness tests only under ``require_well_formed``. Each is a necessary
condition only, and every emitted family is re-checked against the public
predicates, so the pruning changes the speed of the search and never its
result.

The candidate cap counts the steps of the Calabi-Yau search: each tuple of
smaller weights it visits, and each lead the first test keeps (each lead in
range without ``require_quasismooth``; none when the smaller weights share a
factor under ``require_well_formed``). The search raises ResourceCapError
once the count passes the cap, before it does the work counted. The generic
search (another canonical kind, or none) raises up front when its (weights,
degree) pairs number more than the cap.

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


def _enumerate_calabi_yau(c: SearchConstraints) -> list[HypersurfaceFamily]:
    length = c.variables - 1
    top = min(c.effective_max_weight, c.max_degree - length)
    found: list[HypersurfaceFamily] = []
    if top < 1:
        return found
    qs, wf = c.require_quasismooth, c.require_well_formed
    # With one smaller weight every lead passes both singleton conditions.
    every_lead = not qs or length == 1
    cap, max_degree = c.candidate_cap, c.max_degree
    seen = 0
    for prefix, psum, pgcd, last_max in _prefixes(length, top, max_degree):
        seen += last_max
        if seen > cap:
            raise _cap_exceeded(c)
        first = prefix[0] if prefix else 0
        for e in range(1, last_max + 1):
            if wf and gcd(pgcd, e) != 1:
                continue
            total = psum + e
            lead_min = first or e
            lead_max = min(top, max_degree - total)
            if every_lead:
                leads = range(lead_min, lead_max + 1)
            else:
                # The lead q divides total - b for b = 0 or a smaller weight.
                leads = set()
                for v in (total, total - e, *[total - b for b in prefix]):
                    for k in range(-(-v // lead_max), v // lead_min + 1):
                        if v % k == 0:
                            leads.add(v // k)
            seen += len(leads)
            if seen > cap:
                raise _cap_exceeded(c)
            if not leads:
                continue
            smalls = prefix + (e,)
            if qs:
                # Each smaller weight a divides total, or d - b for a smaller
                # weight b (b = a stands for a | d).
                for a in smalls:
                    if total % a:
                        allowed = {b % a for b in smalls}
                        leads = [q for q in leads if (q + total) % a in allowed]
                        if not leads:
                            break
            if wf and leads:
                coprime_to = lcm(*omit_one_gcds(smalls))
                leads = [q for q in leads if gcd(q, coprime_to) == 1]
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
        for d in range(1, c.max_degree + 1):
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
