"""Enumeration of hypersurface families meeting combinatorial constraints.

The Calabi-Yau search (degree equal to the weight sum) is the workhorse: it
reproduces the classical lists of elliptic and K3 hypersurface families. It
walks sorted tuples (a_0 >= a_1 >= ...) of smaller weights a_1, ... and
completes each with leading weights a_0, so d = a_0 + R with R the sum of the
smaller weights. Three tests prune these candidates on the raw integers,
before any WeightSystem is built:

* the divisor pruning: the singleton case of the quasismooth subset criterion
  at the largest weight forces a_0 to divide R or R minus a smaller weight,
  so the leading weights come from the divisors of a few numbers up to
  max_degree;
* well-formedness: the smaller weights must be coprime, and a_0 must be
  coprime to each of their omit-one gcds;
* the singleton condition at every smaller weight a: a must divide d or
  d minus another weight.

The quasismooth tests apply only under ``require_quasismooth``, the
well-formedness test only under ``require_well_formed``. Each is a necessary
condition only, and every emitted family is re-checked against the public
predicates, so the pruning changes the speed of the search and never its
result. The candidate cap counts the leads the divisor pruning keeps, before
the later tests drop any.

The divisor pruning turns a quartic scan into a roughly cubic one; the
measured census time against the degree bound is in ``bench/README.md``
(section "Census scaling", from ``python3 bench/scaling.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _divisor_table(limit: int) -> list[list[int]]:
    divisors: list[list[int]] = [[] for _ in range(limit + 1)]
    for q in range(1, limit + 1):
        for v in range(q, limit + 1, q):
            divisors[v].append(q)
    return divisors


def _sorted_tuples(length: int, max_entry: int, max_sum: int):
    """Yield non-increasing positive tuples with the given bounds."""
    buf = [0] * length

    def rec(pos: int, bound: int, budget: int):
        if pos == length:
            yield tuple(buf)
            return
        slots_after = length - pos - 1
        top = min(bound, budget - slots_after)
        for e in range(top, 0, -1):
            buf[pos] = e
            yield from rec(pos + 1, e, budget - e)

    yield from rec(0, max_entry, max_sum)


def _passes_filters(fam: HypersurfaceFamily, c: SearchConstraints) -> bool:
    # Only Calabi-Yau candidates (degree = weight sum) get here, so the
    # canonical class needs no check.
    if c.exclude_linear_cones and is_linear_cone(fam):
        return False
    if c.require_well_formed and not is_well_formed(fam.weights):
        return False
    if c.require_quasismooth and not quasismooth_exists(fam).exists:
        return False
    return True


def _pruned_leads(
    smalls: tuple[int, ...], total: int, leads: list[int], c: SearchConstraints
) -> list[int]:
    """The leads that pass the raw-tuple tests, in the order given.

    The singleton condition at a small weight a asks a | d - b for some
    weight b of the tuple, where d = lead + total (b = a stands for a | d).
    b = lead asks a | total, which holds for every lead or none; b in
    ``smalls`` asks lead = b - total (mod a). Well-formedness asks coprime
    smaller weights and a lead coprime to each of their omit-one gcds, that
    is to their lcm (0 for a single small weight, which leaves only lead 1).
    """
    if c.require_quasismooth:
        values = set(smalls)
        for a in values:
            if total % a:
                allowed = {(b - total) % a for b in values}
                leads = [q for q in leads if q % a in allowed]
    if c.require_well_formed and leads:
        if gcd(*smalls) != 1:
            return []
        coprime_to = lcm(*omit_one_gcds(smalls))
        leads = [q for q in leads if gcd(q, coprime_to) == 1]
    return leads


def _enumerate_calabi_yau(c: SearchConstraints) -> list[HypersurfaceFamily]:
    # Raw candidates are the smaller-weight tuples plus the leading-weight
    # completions they spawn; both count against the cap as they are visited,
    # so a runaway search stops after at most cap + 1 steps.
    m = c.variables
    max_w = min(c.effective_max_weight, c.max_degree - m + 1)
    if max_w < 1:
        return []
    smalls_budget = c.max_degree - 1
    divisors = _divisor_table(c.max_degree)
    found = []
    seen = 0
    for smalls in _sorted_tuples(m - 1, min(max_w, smalls_budget), smalls_budget):
        seen += 1
        if seen > c.candidate_cap:
            raise ResourceCapError(
                f"candidate cap {c.candidate_cap} exceeded during search; "
                f"raise it to proceed"
            )
        lead_min = smalls[0]
        total = sum(smalls)
        if total + lead_min > c.max_degree:
            continue
        lead_max = min(max_w, c.max_degree - total)
        if not c.require_quasismooth:
            # The divisor pruning encodes the quasismoothness singleton
            # condition; without that filter every completion is a candidate.
            candidates = set(range(lead_min, lead_max + 1))
        else:
            candidates = set()
            targets = {total}
            targets.update(total - s for s in set(smalls))
            for v in targets:
                if v == 0:
                    candidates.update(range(lead_min, lead_max + 1))
                    continue
                for q in divisors[v]:
                    if lead_min <= q <= lead_max:
                        candidates.add(q)
        seen += len(candidates)
        if seen > c.candidate_cap:
            raise ResourceCapError(
                f"candidate cap {c.candidate_cap} exceeded during search; "
                f"raise it to proceed"
            )
        for lead in _pruned_leads(smalls, total, sorted(candidates), c):
            fam = HypersurfaceFamily(WeightSystem((lead,) + smalls), lead + total)
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
    found = []
    for tup in combinations_with_replacement(range(max_w, 0, -1), m):
        w = WeightSystem(tup)
        if c.require_well_formed and not is_well_formed(w):
            continue
        for d in range(1, c.max_degree + 1):
            fam = HypersurfaceFamily(w, d)
            if c.exclude_linear_cones and is_linear_cone(fam):
                continue
            if c.canonical_kind is not None and canonical_class(fam).kind != c.canonical_kind:
                continue
            if c.require_quasismooth and not quasismooth_exists(fam).exists:
                continue
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
