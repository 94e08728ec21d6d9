#!/usr/bin/env python3
"""Reproduce the headline symmetry computations in one go.

Prints the Klein quartic numbers, the degree-180 family in P(36,31,30,25)
with its forced order-5 symmetry, and the Fermat diagonal law on a small
grid, each with the value the computation should reproduce.
"""

from wph import (
    HypersurfaceFamily,
    JordanTable,
    PolynomialSupport,
    curve_bound,
    distinguished_minor,
    fermat_prediction,
    fermat_support,
    fixing_group,
    forced_central_group,
    lin_diagonal_order,
    lin_order_bound,
)


def klein():
    fam = HypersurfaceFamily([1, 1, 1], 4)
    support = PolynomialSupport(fam, [[1, 3, 0], [0, 1, 3], [3, 0, 1]])
    print("== Klein quartic x*y^3 + y*z^3 + z*x^3 in P(1,1,1), degree 4")
    print(f"fixing group order: {fixing_group(support).order} (expect 28)")
    print(f"diagonal symmetry mod scalars: {lin_diagonal_order(support)} (expect 7)")
    minor = distinguished_minor(support)
    print(f"distinguished minor det: {minor.determinant} (expect 28, window (0, 64])")
    cb = curve_bound(fam)
    print(f"curve bound: {cb.bound} with exceptions {[e.name for e in cb.exceptions]}")
    print()


def flagship():
    fam = HypersurfaceFamily([36, 31, 30, 25], 180)
    print("== degree-180 family in P(36,31,30,25)")
    forced = forced_central_group(fam)
    print(f"forced central subgroup order: {forced.order} (expect 5)")
    bound = lin_order_bound(fam, JordanTable())
    print(f"order bound: {bound.exact} = floor {bound.floor} (expect floor 6)")
    print()


def fermat_grid():
    print("== Fermat diagonal law, d^(n+1)")
    for n in (1, 2, 3):
        for d in (3, 4, 5):
            got = lin_diagonal_order(fermat_support(n, d))
            expected = fermat_prediction(n, d).diagonal_part
            status = "ok" if got == expected else "MISMATCH"
            print(f"n={n} d={d}: diagonal part {got} (expect {expected}) {status}")


if __name__ == "__main__":
    klein()
    flagship()
    fermat_grid()
