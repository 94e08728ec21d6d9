#!/usr/bin/env python3
"""Regenerate the expected Calabi-Yau census counts by brute force.

    python3 bench/census_counts.py           # rewrite bench/census_counts.json
    python3 bench/census_counts.py --check   # recompute and compare with it

No count of the dim-3 census at a bounded degree is published (the literature
gives only the complete list of 7555 weight systems), so the benchmark's
``cy_census`` checks use counts recomputed here. The enumerator does not use
``wph``: it visits every non-increasing weight tuple with sum at most the
bound, sets the degree to the weight sum, and keeps the tuples that are
well-formed and pass the quasismooth criterion of :mod:`oracles`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import oracles

COUNTS_FILE = Path(__file__).with_name("census_counts.json")
#: dimension -> largest degree bound recorded.
LIMITS = {2: 100, 3: 100}


def _tuples(length: int, top: int, budget: int, prefix=()):
    """Non-increasing positive tuples with entries <= top and sum <= budget."""
    if length == 0:
        yield prefix
        return
    for a in range(min(top, budget - (length - 1)), 0, -1):
        yield from _tuples(length - 1, a, budget - a, prefix + (a,))


def _singletons_pass(ws, d) -> bool:
    # The size-one subsets of the criterion: a | d, or a | d - b for another b.
    for i, a in enumerate(ws):
        if d % a and not any((d - b) % a == 0 for j, b in enumerate(ws) if j != i):
            return False
    return True


def census_counts(dim: int, limit: int) -> list[int]:
    """count_upto[B] = number of Calabi-Yau families of degree <= B."""
    per_degree = [0] * (limit + 1)
    cache = oracles.SemigroupCache()
    for ws in _tuples(dim + 2, limit, limit):
        d = sum(ws)
        if (
            _singletons_pass(ws, d)
            and oracles.is_well_formed(ws)
            and oracles.quasismooth_exists(ws, d, cache)
        ):
            per_degree[d] += 1
    upto, total = [], 0
    for c in per_degree:
        total += c
        upto.append(total)
    return upto


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare, do not write")
    args = parser.parse_args(argv)
    table = {
        f"dim{dim}": {"max_bound": limit, "count_upto": census_counts(dim, limit)}
        for dim, limit in LIMITS.items()
    }
    for dim, limit in LIMITS.items():
        print(f"dim {dim}: {table[f'dim{dim}']['count_upto'][limit]} families of degree <= {limit}")
    if args.check:
        stored = json.loads(COUNTS_FILE.read_text(encoding="utf-8"))
        if stored != table:
            print("census_counts.json differs from the recomputed counts", file=sys.stderr)
            return 1
        print("census_counts.json matches")
        return 0
    COUNTS_FILE.write_text(json.dumps(table) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
