"""Shared oracles and generators for the test suite.

Each oracle here deliberately uses a different algorithm than the library
code it checks: recursive cofactor determinants against Bareiss elimination,
power-series convolution against DFS enumeration, list-based dynamic
programming against bitmask closure, and root-of-unity counting against
Smith normal forms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from hypothesis import HealthCheck, settings

from wph import (
    HypersurfaceFamily,
    PolynomialSupport,
    WeightedPolynomial,
    WeightSystem,
    enumerate_monomials,
)

settings.register_profile(
    "wph",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("wph")


def cofactor_determinant(rows) -> int:
    """Recursive cofactor expansion; exponential but independent of Bareiss."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * rows[0][j] * cofactor_determinant(minor)
    return total


def series_dimensions(weights, upto: int) -> list[int]:
    """Coefficients of prod_i 1/(1 - t^a_i) up to degree ``upto``."""
    coeffs = [0] * (upto + 1)
    coeffs[0] = 1
    for a in weights:
        for k in range(a, upto + 1):
            coeffs[k] += coeffs[k - a]
    return coeffs


def coin_representable(target: int, generators: tuple[int, ...]) -> bool:
    """Classic memoized coin-change recursion."""

    gens = tuple(sorted(set(generators)))

    @lru_cache(maxsize=None)
    def reach(t: int, idx: int) -> bool:
        if t == 0:
            return True
        if idx == len(gens):
            return False
        g = gens[idx]
        k = 0
        while k * g <= t:
            if reach(t - k * g, idx + 1):
                return True
            k += 1
        return False

    return reach(target, 0)


def count_fixing_tuples(rows, modulus: int) -> int:
    """Number of tuples k in (Z/e)^m with every row dot k divisible by e.

    Root-of-unity brute force: these are exactly the diagonal automorphisms
    by e-th roots of unity preserving every monomial of the support.
    """
    import numpy as np

    e = int(modulus)
    assert e >= 1
    if e == 1:
        return 1
    m = len(rows[0])
    reduced = [[x % e for x in row] for row in rows]
    if m == 1:
        ks = np.arange(e, dtype=np.int64)
        ok = np.ones(e, dtype=bool)
        for row in reduced:
            ok &= (row[0] * ks) % e == 0
        return int(ok.sum())
    grids = np.indices((e,) * (m - 1)).reshape(m - 1, -1).astype(np.int64)
    bases = [np.array(row[1:], dtype=np.int64) @ grids for row in reduced]
    total = 0
    for k0 in range(e):
        ok = np.ones(grids.shape[1], dtype=bool)
        for row, base in zip(reduced, bases):
            ok &= (base + row[0] * k0) % e == 0
        total += int(ok.sum())
    return total


def naive_quasismooth_failures(weights, degree: int) -> list[tuple]:
    """Every failing subset of the criterion, by plain list DP.

    Returns (subset, degree_representable, outside_witnesses, required) for
    each failing index subset, in (size, lex) order; empty for linear cones.
    """
    ws = tuple(weights)
    m = len(ws)
    d = degree
    if d in ws:
        return []

    cache: dict[frozenset[int], list[bool]] = {}

    def reachable(gens: frozenset[int]) -> list[bool]:
        got = cache.get(gens)
        if got is None:
            got = [False] * (d + 1)
            got[0] = True
            for k in range(1, d + 1):
                got[k] = any(k >= g and got[k - g] for g in gens)
            cache[gens] = got
        return got

    failures = []
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            reach = reachable(frozenset(ws[i] for i in subset))
            if reach[d]:
                continue
            inside = set(subset)
            witnesses = tuple(
                j
                for j in range(m)
                if j not in inside and d - ws[j] >= 0 and reach[d - ws[j]]
            )
            if len(witnesses) < size:
                failures.append((subset, False, witnesses, size))
    return failures


def naive_quasismooth_exists(weights, degree: int) -> bool:
    """Independent restatement of the subset criterion with plain list DP."""
    return not naive_quasismooth_failures(weights, degree)


def monomial_witness_oracle(weights, degree: int, variable: int) -> bool:
    """Directly search for a monomial x_i^k or x_i^k x_j of the given degree."""
    a = weights[variable]
    for k in range(1, degree // a + 1):
        rest = degree - k * a
        if rest == 0:
            return True
        if any(j != variable and weights[j] == rest for j in range(len(weights))):
            return True
    return False


def random_weighted_polynomial(
    rng: random.Random,
    max_vars: int = 5,
    max_weight: int = 9,
    max_degree: int = 40,
) -> WeightedPolynomial:
    while True:
        m = rng.randint(2, max_vars)
        weights = WeightSystem(
            sorted((rng.randint(1, max_weight) for _ in range(m)), reverse=True)
        )
        d = rng.randint(1, max_degree)
        monomials = enumerate_monomials(weights, d)
        if monomials:
            break
    k = rng.randint(1, min(len(monomials), 12))
    rows = rng.sample(monomials, k)
    coeffs = []
    for _ in range(k):
        num = rng.choice([n for n in range(-9, 10) if n != 0])
        coeffs.append(Fraction(num, rng.randint(1, 9)))
    fam = HypersurfaceFamily(weights, d)
    return WeightedPolynomial.from_support(PolynomialSupport(fam, rows), coeffs)


def random_finite_support(rng: random.Random, max_vars: int = 4):
    """Support passing monomial existence in a family meeting the finiteness criterion."""
    from wph import lin_finiteness, monomial_existence_check

    while True:
        m = rng.randint(3, max_vars)
        weights = WeightSystem(
            sorted((rng.randint(1, 6) for _ in range(m)), reverse=True)
        )
        mx = weights.canonical[0]
        d = rng.randint(2 * mx, min(4 * mx + rng.randint(0, 10), 40))
        fam = HypersurfaceFamily(weights, d)
        if not lin_finiteness(fam).finite:
            continue
        monomials = enumerate_monomials(weights, d)
        if not monomials:
            continue
        full = PolynomialSupport(fam, monomials)
        if not monomial_existence_check(full).passed:
            continue
        chosen: set = set()
        from wph import is_witness_row

        for i in range(m):
            witnesses = [row for row in monomials if is_witness_row(row, i)]
            chosen.add(rng.choice(witnesses))
        extras = rng.randint(0, min(4, len(monomials)))
        chosen.update(rng.sample(monomials, extras))
        return fam, PolynomialSupport(fam, sorted(chosen, reverse=True))
