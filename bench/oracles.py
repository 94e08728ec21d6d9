"""Independent oracles for the benchmark's answer checks.

Nothing here imports ``wph``. Each routine uses a different method from the
library code whose answers it checks:

* numerical-semigroup membership from the Apery set of the smallest
  generator (shortest paths over residues), or for two generators by trying
  the multiples of the larger, against the library's shift-or bitmask
  closure;
* the quasismoothness subset criterion (Iano-Fletcher, *Working with
  weighted complete intersections*, 2000, Thm 8.1) evaluated over index
  bitmasks with that membership test;
* omit-one gcds computed one by one, against prefix/suffix gcd tables;
* determinants by cofactor expansion, against Bareiss elimination;
* graded pieces and their sizes by a coin-change recursion and a counting
  table, against the library's depth-first enumeration.
"""

from __future__ import annotations

import heapq
from functools import reduce
from math import gcd, prod


class Semigroup:
    """Membership in the numerical semigroup generated by ``gens``.

    The Apery set with respect to the smallest generator g lists, for each
    residue r mod g, the least representable number congruent to r; a
    number n is representable iff it is at least the entry of its residue.
    """

    __slots__ = ("g", "least")

    def __init__(self, gens):
        gens = sorted(set(gens))
        g = gens[0]
        least = [None] * g
        least[0] = 0
        heap = [(0, 0)]
        while heap:
            dist, r = heapq.heappop(heap)
            if dist > least[r]:
                continue
            for a in gens[1:]:
                nr = (r + a) % g
                nd = dist + a
                if least[nr] is None or nd < least[nr]:
                    least[nr] = nd
                    heapq.heappush(heap, (nd, nr))
        self.g = g
        self.least = least

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        bound = self.least[n % self.g]
        return bound is not None and bound <= n


class SemigroupCache:
    """Membership tests; ``gens`` is a sorted tuple of distinct generators.

    Apery sets are kept per generator tuple.
    """

    def __init__(self):
        self._groups: dict[tuple[int, ...], Semigroup] = {}

    def contains(self, n: int, gens: tuple[int, ...]) -> bool:
        if n < 0:
            return False
        if n == 0 or any(n % a == 0 for a in gens):
            return True
        if n % reduce(gcd, gens) != 0:
            return False
        if len(gens) == 2:
            # n = x*b + y*a with 0 <= x < a whenever n is representable.
            a, b = gens
            return any((n - x * b) % a == 0 for x in range(min(n // b, a - 1) + 1))
        group = self._groups.get(gens)
        if group is None:
            group = self._groups[gens] = Semigroup(gens)
        return n in group


def quasismooth_failures(weights, degree: int, cache: SemigroupCache | None = None):
    """Failing subsets of the existence criterion, or None for a linear cone.

    ``weights`` must be in canonical (non-increasing) order; subsets are
    index tuples into it. Each failure is ``(subset, degree_representable,
    outside_witnesses, required)``, sorted by (size, indices). The family has
    a quasismooth member iff the result is None or empty.
    """
    ws = tuple(weights)
    if degree in ws:
        return None
    cache = cache or SemigroupCache()
    m = len(ws)
    # A subset holding a weight that divides d satisfies (a), so only subsets
    # of the other weights can fail.
    rest = [i for i in range(m) if degree % ws[i]]
    failures = []
    for bits in range(1, 1 << len(rest)):
        inside = [i for k, i in enumerate(rest) if bits >> k & 1]
        gens = tuple(sorted({ws[i] for i in inside}))
        if cache.contains(degree, gens):
            continue
        witnesses = tuple(
            j for j in range(m)
            if j not in inside and cache.contains(degree - ws[j], gens)
        )
        if len(witnesses) < len(inside):
            failures.append((tuple(inside), False, witnesses, len(inside)))
    failures.sort(key=lambda f: (len(f[0]), f[0]))
    return failures


def quasismooth_exists(weights, degree: int, cache: SemigroupCache | None = None) -> bool:
    return not quasismooth_failures(weights, degree, cache)


def omit_one_gcds(weights) -> list[int]:
    """gcd of the weights other than index i, for every i."""
    return [reduce(gcd, weights[:i] + weights[i + 1 :], 0) for i in range(len(weights))]


def is_well_formed(weights) -> bool:
    return all(g == 1 for g in omit_one_gcds(tuple(weights)))


def cofactor_determinant(rows) -> int:
    """Determinant by expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * x * cofactor_determinant(minor)
    return total


def graded_piece_sizes(weights, upto: int) -> list[int]:
    """Number of monomials of each weighted degree 0..upto."""
    counts = [1] + [0] * upto
    for a in weights:
        for k in range(a, upto + 1):
            counts[k] += counts[k - a]
    return counts


def graded_piece(weights, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the given weighted degree, in ascending order.

    Built back to front: the exponent of the last weight is fixed first, so
    the construction order differs from the library's.
    """
    m = len(weights)
    sizes = [graded_piece_sizes(weights[:k], degree) for k in range(m + 1)]
    out: list[tuple[int, ...]] = []

    def build(k: int, rest: int, tail: tuple[int, ...]):
        if k == 0:
            if rest == 0:
                out.append(tail)
            return
        a = weights[k - 1]
        for e in range(rest // a + 1):
            left = rest - e * a
            if sizes[k - 1][left]:
                build(k - 1, left, (e,) + tail)

    build(m, degree, ())
    out.sort()
    return out


def is_witness_row(row, variable: int) -> bool:
    """Shape x_i^k (k >= 1) or x_i^k * x_j with a single other exponent 1."""
    if row[variable] < 1:
        return False
    others = [e for j, e in enumerate(row) if j != variable and e]
    return others == [] or others == [1]


def minor_window(weights, degree: int) -> tuple[int, int]:
    """The window 0 < det(B) <= d^(n+2) / prod(a) as (numerator, denominator)."""
    return degree ** len(weights), prod(weights)
