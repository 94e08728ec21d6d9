"""Shared oracles and generators for the test suite.

The stdlib oracles for the subset criterion, the graded pieces and their
sizes, determinants, semigroup membership and well-formedness live in
``bench/oracles.py``, the module the benchmark checks its answers with. It
imports nothing from ``wph``, and it is loaded here by path as ``oracles``,
so ``bench/`` stays off ``sys.path``.

Each oracle deliberately uses a different algorithm than the library code it
checks: cofactor expansion against Bareiss elimination, a back-to-front
recursion against an odometer, a counting table against enumeration, Apery
sets against bitmask closure, root-of-unity counting against Smith normal
forms, a divisor-table census against the arithmetic lead loop, a walk over
every partition against the dynamic program for the worst-case Jordan
constant, and a rewrite of the scalar vector in the Smith basis of the whole
graded piece against the dual quotient Lambda / L. That Smith basis comes
from the library's elimination with the piece bordered below by an identity,
which records the column transform V and no row transform, so whole pieces of
thousands of rows stay cheap.
"""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from typing import Sequence

from hypothesis import HealthCheck, settings

from wph import (
    AbelianGroupStructure,
    HypersurfaceFamily,
    IntMatrix,
    InvariantViolationError,
    PolynomialSupport,
    WeightedPolynomial,
    WeightSystem,
    enumerate_monomials,
    smith_normal_form,
)
from wph.intlinalg import _diagonal, _snf_worker

settings.register_profile(
    "wph",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("wph")

_ORACLES = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"
_spec = importlib.util.spec_from_file_location("oracles", _ORACLES)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


def partition_walk_constant(n: int, table) -> Fraction:
    """Largest multiplicity product over the partitions of n+2, one by one.

    The degree-(n+2) piece of weights 1, ..., n+2 lists every partition of
    n+2 once, as the multiplicity of each part.
    """
    best = Fraction(0)
    for counts in oracles.graded_piece(list(range(1, n + 3)), n + 2):
        value = Fraction(1)
        for part, count in enumerate(counts, 1):
            if count:
                value *= table.value(part) ** count
        best = max(best, value)
    return best


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


def factors_and_vinv(rows) -> tuple[tuple[int, ...], IntMatrix]:
    """Invariant factors and V^-1 of the Smith form U * rows * V = D.

    The rows are bordered below by I_c only, so the elimination records V in
    those extra rows and keeps no rows x rows transform U.
    """
    nrows, ncols = len(rows), len(rows[0])
    a = [list(r) for r in rows] + [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    _snf_worker(a, nrows, ncols)
    inverse = smith_normal_form(IntMatrix.from_rows(a[nrows:]))
    return _diagonal(a[:nrows]), inverse.V @ inverse.U


def _quotient_by_scalar(
    factors: Sequence[int], vinv: IntMatrix, weights: Sequence[int], degree: int
) -> AbelianGroupStructure:
    """Fixing group modulo the scalar element (a_0/d, ..., a_{m-1}/d).

    Works in the basis b_i = (column i of V) / d_i of the solution lattice:
    the standard lattice and the scalar vector are rewritten in that basis,
    giving an integer matrix whose cokernel is the quotient group. ``factors``
    and ``vinv`` are those of :func:`factors_and_vinv` on the support rows.
    """
    m = len(weights)
    if len(factors) != m:
        raise InvariantViolationError("scalar quotient requires a finite fixing group")
    u = [sum(vinv.at(i, j) * weights[j] for j in range(m)) for i in range(m)]
    aug_col = []
    for i in range(m):
        num = factors[i] * u[i]
        if num % degree != 0:
            raise InvariantViolationError(
                "scalar vector does not lie in the fixing-group lattice"
            )
        aug_col.append(num // degree)
    rows = []
    for i in range(m):
        rows.append([factors[i] * vinv.at(i, j) for j in range(m)] + [aug_col[i]])
    qfactors = smith_normal_form(IntMatrix.from_rows(rows)).invariant_factors
    if len(qfactors) != m:
        raise InvariantViolationError("quotient of a finite group came out infinite")
    return AbelianGroupStructure.from_factors(qfactors, free_rank=0)


def descending_tuples(length, bound, budget):
    """Non-increasing tuples of positive integers at most bound, sum <= budget."""
    if length == 0:
        yield ()
        return
    for e in range(min(bound, budget - length + 1), 0, -1):
        for rest in descending_tuples(length - 1, e, budget - e):
            yield (e,) + rest


def reference_cy_census(c) -> list[tuple[int, tuple[int, ...]]]:
    """The Calabi-Yau census of ``SearchConstraints`` c by the earlier method.

    Walks every sorted tuple of smaller weights with entries and sum below
    the degree bound, takes the leads from a divisor table, prunes them with
    residue sets (singleton condition at each smaller weight) and omit-one
    gcds, and decides the survivors with :mod:`oracles`, so no ``wph``
    predicate is shared with the census it checks. Returns the
    (degree, canonical weights) pairs sorted like ``enumerate_families``.
    """
    m = c.variables
    max_w = min(c.effective_max_weight, c.max_degree - m + 1)
    if max_w < 1:
        return []
    divisors = [[] for _ in range(c.max_degree + 1)]
    for q in range(1, c.max_degree + 1):
        for v in range(q, c.max_degree + 1, q):
            divisors[v].append(q)
    cache = oracles.SemigroupCache()
    found = []
    for smalls in descending_tuples(m - 1, max_w, c.max_degree - 1):
        total = sum(smalls)
        if total + smalls[0] > c.max_degree:
            continue
        lead_range = range(smalls[0], min(max_w, c.max_degree - total) + 1)
        if not c.require_quasismooth:
            leads = set(lead_range)
        else:
            leads = set()
            for v in {total} | {total - s for s in smalls}:
                leads.update(lead_range if v == 0 else (q for q in divisors[v] if q in lead_range))
            for a in set(smalls):
                if total % a:
                    allowed = {(b - total) % a for b in smalls}
                    leads = {q for q in leads if q % a in allowed}
        if c.require_well_formed:
            if gcd(*smalls) != 1:
                continue
            coprime_to = lcm(*oracles.omit_one_gcds(smalls))
            leads = {q for q in leads if gcd(q, coprime_to) == 1}
        for lead in leads:
            ws, d = (lead,) + smalls, lead + total
            if c.exclude_linear_cones and d in ws:
                continue
            if c.require_well_formed and not oracles.is_well_formed(ws):
                continue
            if c.require_quasismooth and not oracles.quasismooth_exists(ws, d, cache):
                continue
            found.append((d, ws))
    found.sort()
    return found


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
