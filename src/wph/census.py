"""Enumeration of hypersurface families meeting combinatorial constraints.

The Calabi-Yau search (degree equal to the weight sum) is the workhorse: it
reproduces the classical lists of elliptic and K3 hypersurface families. It
walks sorted prefixes a_1 >= a_2 >= ... of the smaller weights (all but the
last, with sum psum) and completes each with pairs of a lead a_0 = q >= a_1
and a last weight e, so d = q + R with R = psum + e. Four tests prune on the
raw integers, before any WeightSystem is built:

* the singleton condition at the lead: q divides R - b for b = 0 or a
  smaller weight. With b = e that is q | psum, and e is free. Otherwise
  q k = psum - b + e for some k >= 1, and for fixed (b, k) the leads run
  over one range (q >= a_1, q at most the weight bound, e in range and
  (k + 1) q + b <= max_degree), each q fixing e. These ranges generate
  every pair that meets the condition, and only those;
* the singleton condition at a_1, one residue test per pair generated: a_1
  divides d - b for b = 0, a prefix weight, q or e;
* well-formedness: the smaller weights must be coprime, and a_0 must be
  coprime to the lcm of their omit-one gcds;
* the singleton condition at every other smaller weight a: a must divide d
  or d minus another weight.

The pairs kept by the first two tests are grouped by e for the other two.
The quasismooth tests apply only under ``require_quasismooth``, the
well-formedness tests only under ``require_well_formed``. With a single
smaller weight a_1 divides R = a_1, so every lead passes both singleton
conditions and neither is tested.

Both searches decide on raw canonical tuples and build a WeightSystem and a
HypersurfaceFamily only for the families emitted. A candidate is quasismooth
iff ``_failing_subsets`` of ``wph.quasismooth``, the core of
``quasismooth_exists``, yields nothing. Above 24 weights that raises
ResourceCapError: the Calabi-Yau search raises before its walk, since the
all-ones tuple is among its candidates whenever there are any, and the
generic search at the first candidate it decides. The other predicates
hold by construction or are tested exactly:

* no Calabi-Yau candidate is a linear cone. Proof: R >= 1, so
  d = a_0 + R > a_0, and a_0 is the largest weight; a cone needs a weight
  equal to d. A generic candidate is a cone iff d is one of its weights;
* every candidate has the kind asked for. Proof: with s the weight sum, a
  Calabi-Yau d is s, a Fano kind tries only d <= s - 1 and a general-type
  kind only d >= s + 1, so r = d - s has the sign ``canonical_class`` reads;
* the raw well-formedness test of the Calabi-Yau search is exactly
  well-formedness. Proof: the omit-one gcd at a_0 is the gcd of the smaller
  weights, and the one at a smaller weight a_i is gcd(a_0, g_i), with g_i
  the gcd of the smaller weights other than a_i. All of them are 1 iff the
  smaller weights are coprime and a_0 is coprime to every g_i, that is to
  their lcm. (With a single smaller weight its g_i is the gcd of no
  weights, 0, and a_0 must be 1.) The generic search tests the omit-one
  gcds of each tuple once, for all its degrees.

Every raw quasismooth test is a necessary condition and the decision is the
subset criterion itself, so both searches emit exactly the families the public
predicates accept; the raw tests change their speed, never their result.

The candidate cap counts each prefix of smaller weights walked and each
(lead, last) pair that the singleton condition at the lead generates, once
for each (b, k) that generates it; without the quasismooth filter, or with a
single smaller weight, it counts each pair in range. The search raises
ResourceCapError once the count passes the cap, before it makes the pairs
counted. The generic search raises up front when its (weights, degree) pairs
number more than the cap, a count it stops building once it passes the cap
(``_check_pair_count``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, repeat
from math import gcd, lcm

from .errors import ResourceCapError, ValidationError
from .quasismooth import _check_variable_count, _failing_subsets
from .weights import CanonicalKind, HypersurfaceFamily, WeightSystem, as_int, omit_one_gcds

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
        if self.canonical_kind is not None and not isinstance(self.canonical_kind, CanonicalKind):
            raise ValidationError(
                f"canonical_kind must be a CanonicalKind or None, got {self.canonical_kind!r}"
            )
        for name in ("require_well_formed", "require_quasismooth", "exclude_linear_cones"):
            if type(getattr(self, name)) is not bool:
                raise ValidationError(f"{name} must be True or False, got {getattr(self, name)!r}")

    @property
    def variables(self) -> int:
        return self.dimension + 2

    @property
    def effective_max_weight(self) -> int:
        return self.max_weight if self.max_weight is not None else self.max_degree


def _cap_exceeded(cap: int) -> ResourceCapError:
    return ResourceCapError(
        f"candidate cap {cap} exceeded during search; raise it to proceed"
    )


def _prefixes(length: int, top: int, max_degree: int):
    """(prefix, sum, gcd, largest last weight) for the smaller weights but the
    last, over the tuples with 2 a_1 + a_2 + ... <= max_degree, in lex order.
    An explicit stack, not recursion, so that no length meets the recursion
    limit; children are pushed largest first. Once the largest child is 1 every
    later weight is 1, and the ones are appended in one step, so a walk of many
    weights stays linear in their count."""
    if length == 1:
        yield (), 0, 0, min(top, max_degree // 2)
        return
    stack = [
        ((first,), first, first, max_degree - 2 * first)
        for first in range(min(top, (max_degree - length + 1) // 2), 0, -1)
    ]
    while stack:
        prefix, total, g, room = stack.pop()
        left = length - len(prefix)
        if left == 1:
            yield prefix, total, g, min(prefix[-1], room)
            continue
        largest = min(prefix[-1], room - left + 1)
        if largest == 1:
            ones = left - 1
            stack.append((prefix + (1,) * ones, total + ones, 1, room - ones))
            continue
        stack.extend(
            (prefix + (e,), total + e, gcd(g, e), room - e)
            for e in range(largest, 0, -1)
        )


def _lead_pairs(prefix, psum, top, last_max, max_degree, seen, cap):
    """``seen`` plus the pairs the lead condition generates, and the (lead q,
    last e) pairs that meet the singleton conditions at the lead and at a_1,
    as {e: [q, ...]}.

    ``prefix`` is nonempty, with sum ``psum``; the pairs in range have
    prefix[0] <= q <= top, 1 <= e <= last_max and q + psum + e <= max_degree.
    Raises ResourceCapError, before any pair is made, when the count passes
    ``cap``.
    """
    first = prefix[0]
    values = {0, *prefix}
    # (leads, lasts) ranges, one per b = e (q | psum, e free) and one per
    # (b, k) with b = 0 or a prefix weight (q k = psum - b + e).
    ranges = []
    for k in range(1, psum // first + 1):
        q = psum // k
        if psum % k == 0 and q <= top:
            ranges.append((repeat(q), range(1, min(last_max, max_degree - psum - q) + 1)))
    room = max_degree - psum
    for b in values:
        base = psum - b
        # e >= 1 with d <= max_degree needs k > base / room, and q >= first
        # with e <= last_max and d <= max_degree bounds k above.
        k_max = min(base + last_max, max_degree - b - first) // first
        for k in range(base // room + 1, k_max + 1):
            lo = max(first, base // k + 1)
            hi = min(top, (base + last_max) // k, (max_degree - b) // (k + 1))
            if lo <= hi:
                ranges.append((range(lo, hi + 1), range(lo * k - base, hi * k - base + 1, k)))
    seen += sum(len(lasts) for _, lasts in ranges)
    if seen > cap:
        raise _cap_exceeded(cap)
    # a_1 divides d - b for b = 0, a prefix weight, q or e.
    at_first = {b % first for b in values}
    kept = {
        (q, e)
        for leads, lasts in ranges
        for q, e in zip(leads, lasts)
        if (r := (psum + q + e) % first) in at_first or r == q % first or r == e % first
    }
    by_last = {}
    for q, e in kept:
        by_last.setdefault(e, []).append(q)
    return seen, by_last


def _enumerate_calabi_yau(c: SearchConstraints) -> list[HypersurfaceFamily]:
    length = c.variables - 1
    top = min(c.effective_max_weight, c.max_degree - length)
    found: list[HypersurfaceFamily] = []
    if top < 1:
        return found
    qs, wf = c.require_quasismooth, c.require_well_formed
    if qs:
        # The all-ones tuple is in range, so some candidate reaches the
        # subset criterion: raise before the walk, not at that candidate.
        _check_variable_count(c.variables)
    # With one smaller weight every lead passes both singleton conditions.
    every_lead = not qs or length == 1
    cap, max_degree = c.candidate_cap, c.max_degree
    seen = 0
    for prefix, psum, pgcd, last_max in _prefixes(length, top, max_degree):
        seen += 1
        if seen > cap:
            raise _cap_exceeded(cap)
        if every_lead:
            first = prefix[0] if prefix else 0
            by_last = {}
            for e in range(1, last_max + 1):
                by_last[e] = range(first or e, min(top, max_degree - psum - e) + 1)
                seen += len(by_last[e])
                if seen > cap:
                    raise _cap_exceeded(cap)
        else:
            seen, by_last = _lead_pairs(prefix, psum, top, last_max, max_degree, seen, cap)
        if not by_last:
            continue
        if qs:
            values = sorted(set(prefix), reverse=True)
            # a_1 is tested in _lead_pairs, the other prefix weights here.
            residues = [(a, {b % a for b in values}) for a in values[1:]]
        omitted = None
        for e, leads in by_last.items():
            if wf and gcd(pgcd, e) != 1:
                continue
            total = psum + e
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
                ws = (q,) + smalls
                if qs and next(_failing_subsets(ws, q + total), None) is not None:
                    continue
                found.append(HypersurfaceFamily(WeightSystem(ws), q + total))
    return found


def _check_pair_count(c: SearchConstraints) -> None:
    """Raise if the generic search has more (weights, degree) pairs than the cap.

    They number C(a + b, b) * max_degree, with {a, b} = {m, max_weight - 1}
    and b the smaller. The partial binomials C(a + i, i) grow with i, so the
    loop stops at the first one whose pairs pass the cap."""
    a, b = sorted((c.variables, c.effective_max_weight - 1), reverse=True)
    pairs = c.max_degree
    for i in range(1, b + 1):
        if pairs > c.candidate_cap:
            break
        pairs = pairs * (a + i) // i
    if pairs > c.candidate_cap:
        raise ResourceCapError(
            f"search would examine more than {c.candidate_cap} (weights, degree) pairs, "
            "the cap; raise the cap or tighten the constraints"
        )


def _enumerate_generic(c: SearchConstraints) -> list[HypersurfaceFamily]:
    _check_pair_count(c)
    found = []
    # Non-increasing tuples, each already canonical.
    for ws in combinations_with_replacement(range(c.effective_max_weight, 0, -1), c.variables):
        # Well-formedness depends on the weights alone, so it is tested once
        # per tuple, not once per degree. Every omit-one gcd is at least 1.
        if c.require_well_formed and max(omit_one_gcds(ws)) > 1:
            continue
        # A Fano degree is below the weight sum, a general-type one above it.
        degrees = range(1, c.max_degree + 1)
        if c.canonical_kind is CanonicalKind.FANO:
            degrees = degrees[: sum(ws) - 1]
        elif c.canonical_kind is CanonicalKind.GENERAL_TYPE:
            degrees = degrees[sum(ws) :]
        if c.exclude_linear_cones:
            degrees = [d for d in degrees if d not in ws]
        if c.require_quasismooth:
            degrees = [d for d in degrees if next(_failing_subsets(ws, d), None) is None]
        if degrees:
            w = WeightSystem(ws)
            found.extend(HypersurfaceFamily(w, d) for d in degrees)
    return found


def enumerate_families(c: SearchConstraints) -> list[HypersurfaceFamily]:
    """All families meeting the constraints, deduplicated up to permutation.

    Weights are canonical (non-increasing) in the output, which is sorted by
    (degree, weights). Raises ResourceCapError once the Calabi-Yau search
    counts more steps than the cap, and before any other search starts when
    its (weights, degree) pairs number more than the cap.
    """
    if c.canonical_kind is CanonicalKind.CALABI_YAU:
        found = _enumerate_calabi_yau(c)
    else:
        found = _enumerate_generic(c)
    found.sort(key=lambda f: (f.degree, f.weights.canonical))
    return found
