#!/usr/bin/env python3
"""Time the Calabi-Yau census against its degree bound and fit the exponent.

    python3 bench/scaling.py

For each dimension and bound in ``BOUNDS`` it reports the best of
``REPEATS`` wall times (one run from ``SINGLE_FROM`` on), the local exponent
log(t2/t1) / log(b2/b1) between neighbouring bounds, and the least-squares
slope of log time against log bound. The census docstring claims its divisor
pruning turns "a quartic scan into a cubic one"; these exponents test that
claim. A full run takes about a minute and a half.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wph.census import SearchConstraints, enumerate_families  # noqa: E402
from wph.weights import CanonicalKind  # noqa: E402

BOUNDS = {2: (100, 150, 200, 250, 300, 400), 3: (40, 60, 80, 100, 120)}
REPEATS = 2
#: Bounds from which a single run is timed; the dim-2 census at 400 takes
#: about 20 s.
SINGLE_FROM = 400


def census_seconds(dim: int, bound: int) -> tuple[float, int]:
    best, count = math.inf, 0
    for _ in range(1 if bound >= SINGLE_FROM else REPEATS):
        t = perf_counter()
        count = len(enumerate_families(SearchConstraints(
            dimension=dim, canonical_kind=CanonicalKind.CALABI_YAU, max_degree=bound,
        )))
        best = min(best, perf_counter() - t)
    return best, count


def slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(bound)."""
    xs = [math.log(b) for b, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    for dim, bounds in BOUNDS.items():
        print(f"dim {dim}: bound  families  seconds  local exponent")
        points: list[tuple[int, float]] = []
        for bound in bounds:
            secs, count = census_seconds(dim, bound)
            local = ""
            if points:
                prev_bound, prev_secs = points[-1]
                local = f"{math.log(secs / prev_secs) / math.log(bound / prev_bound):.2f}"
            print(f"       {bound:5d}  {count:8d}  {secs:7.3f}  {local}", flush=True)
            points.append((bound, secs))
        print(f"dim {dim}: least-squares exponent {slope(points):.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
