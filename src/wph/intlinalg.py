"""Exact integer linear algebra and combinatorial primitives.

Everything in this module runs over arbitrary-precision Python integers.
No floating point is used anywhere: every downstream claim built on these
routines is exact. The main entry points are

* :func:`smith_normal_form`, a deterministic Smith normal form with the
  unimodular transforms recorded,
* :func:`integer_determinant`, a fraction-free (Bareiss) determinant,
* :func:`n_representable`, membership in the numerical semigroup generated
  by a set of positive integers,
* :func:`partitions_of`, unordered integer partitions in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionError, ResourceCapError, ValidationError

#: Largest target accepted by the representability routines. The cost of the
#: semigroup-membership computation is pseudo-polynomial in the target, so
#: anything bigger is rejected instead of silently grinding.
REPRESENTABLE_TARGET_CAP = 10_000_000


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValidationError("matrix needs at least one row and one column")
        if len(self.entries) != self.rows * self.cols:
            raise ValidationError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        data = [tuple(int(x) for x in row) for row in rows]
        if not data:
            raise ValidationError("matrix needs at least one row")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValidationError("ragged rows")
        return cls(len(data), width, tuple(x for row in data for x in row))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, values: Sequence[int], rows: int | None = None,
                 cols: int | None = None) -> "IntMatrix":
        values = [int(v) for v in values]
        r = rows if rows is not None else len(values)
        c = cols if cols is not None else len(values)
        ent = [0] * (r * c)
        for i, v in enumerate(values):
            ent[i * c + i] = v
        return cls(r, c, tuple(ent))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            left = self.row(i)
            for j in range(other.cols):
                out.append(sum(left[k] * other.at(k, j) for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return self.mul(other)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


@dataclass(frozen=True)
class SnfDecomposition:
    """Smith normal form ``U * M * V = D`` with unimodular ``U`` and ``V``.

    ``Vinv`` is the inverse of ``V``, for lattice work on the solution space.
    ``invariant_factors`` lists the nonzero diagonal entries of ``D``; they
    are positive and form a divisibility chain d_1 | d_2 | ... | d_r.
    """

    D: IntMatrix
    U: IntMatrix
    V: IntMatrix
    Vinv: IntMatrix
    invariant_factors: tuple[int, ...]


def _snf_worker(a: list[list[int]], nrows: int, ncols: int):
    """Diagonalize ``a`` in place; return (U, V, Vinv) as lists of rows.

    Pivots are always the smallest-absolute-value nonzero entry of the
    remaining block, ties broken by lowest (row, col). That makes the output
    deterministic and keeps intermediate entries small.
    """
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    vinv = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for r in a:
                r[i], r[j] = r[j], r[i]
            for r in v:
                r[i], r[j] = r[j], r[i]
            vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(dst, src, k):
        # row dst += k * row src
        if k:
            rd, rs = a[dst], a[src]
            for idx in range(ncols):
                rd[idx] += k * rs[idx]
            rd, rs = u[dst], u[src]
            for idx in range(nrows):
                rd[idx] += k * rs[idx]

    def add_col(dst, src, k):
        # col dst += k * col src; the inverse transform acts on rows of vinv
        if k:
            for r in a:
                r[dst] += k * r[src]
            for r in v:
                r[dst] += k * r[src]
            rs, rd = vinv[src], vinv[dst]
            for idx in range(ncols):
                rs[idx] -= k * rd[idx]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t):
        best = None
        best_abs = None
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                x = row[j]
                if x:
                    ax = -x if x < 0 else x
                    if best_abs is None or ax < best_abs:
                        best, best_abs = (i, j), ax
        return best

    limit = min(nrows, ncols)
    for t in range(limit):
        piv = find_pivot(t)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            if a[t][t] < 0:
                negate_row(t)
            p = a[t][t]
            for i in range(t + 1, nrows):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // p))
            for j in range(t + 1, ncols):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // p))
            # Any leftover residue is strictly smaller than the pivot; swap
            # the smallest one in and repeat until row and column are clear.
            res = None
            res_abs = None
            for i in range(t + 1, nrows):
                x = a[i][t]
                if x and (res_abs is None or abs(x) < res_abs):
                    res, res_abs = ("r", i), abs(x)
            for j in range(t + 1, ncols):
                x = a[t][j]
                if x and (res_abs is None or abs(x) < res_abs):
                    res, res_abs = ("c", j), abs(x)
            if res is not None:
                if res[0] == "r":
                    swap_rows(t, res[1])
                else:
                    swap_cols(t, res[1])
                continue
            # Row/column clear. Enforce that the pivot divides the rest of
            # the block before moving on; this is what yields the chain.
            p = a[t][t]
            bad = None
            for i in range(t + 1, nrows):
                if any(x % p for x in a[i][t + 1 :]):
                    bad = i
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
    return u, v, vinv


def smith_normal_form(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form of ``m`` with recorded unimodular transforms.

    Deterministic for a given input. The diagonal of the returned ``D`` is
    nonnegative with the nonzero entries forming a divisibility chain,
    ``U @ m @ V == D`` holds exactly, and ``V @ Vinv`` is the identity.
    """
    a = m.to_rows()
    u, v, vinv = _snf_worker(a, m.rows, m.cols)
    return SnfDecomposition(
        D=IntMatrix.from_rows(a),
        U=IntMatrix.from_rows(u),
        V=IntMatrix.from_rows(v),
        Vinv=IntMatrix.from_rows(vinv),
        invariant_factors=tuple(
            a[i][i] for i in range(min(m.rows, m.cols)) if a[i][i] != 0
        ),
    )


def integer_determinant(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise DimensionError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    n = m.rows
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def loop_matrix(diagonal: Sequence[int]) -> IntMatrix:
    """Cyclic companion matrix with the given diagonal.

    Entry (i, i) is ``diagonal[i]`` and entry (i, (i+1) mod m) gains 1; for a
    single row the wrapped 1 lands on the diagonal itself. The determinant is
    ``prod(diagonal) + (-1)**(m+1)``.
    """
    bs = [int(b) for b in diagonal]
    if not bs:
        raise ValidationError("loop matrix needs at least one diagonal entry")
    m = len(bs)
    rows = [[0] * m for _ in range(m)]
    for i, b in enumerate(bs):
        rows[i][i] = b
        rows[i][(i + 1) % m] += 1
    return IntMatrix.from_rows(rows)


def representable_mask(limit: int, generators: Iterable[int]) -> int:
    """Bitmask of the numerical semigroup of ``generators`` up to ``limit``.

    Bit k of the result is set iff k is a nonnegative integer combination of
    the generators. Implemented by doubling shift-or closure on a big integer,
    which keeps the pseudo-polynomial sweep inside C-level arithmetic.
    """
    limit = int(limit)
    if limit < 0:
        raise ValidationError("limit must be nonnegative")
    _check_target_cap(limit)
    gens = sorted({int(g) for g in generators})
    if not gens:
        raise ValidationError("generator list must be nonempty")
    if gens[0] < 1:
        raise ValidationError("generators must be positive")
    mask = 1
    full = (1 << (limit + 1)) - 1
    for g in gens:
        mask = _closed(mask, g, limit, full)
    return mask


def _check_target_cap(limit: int) -> None:
    if limit > REPRESENTABLE_TARGET_CAP:
        raise ResourceCapError(
            f"representability target {limit} exceeds cap {REPRESENTABLE_TARGET_CAP}"
        )


def _closed(mask: int, g: int, limit: int, full: int) -> int:
    """``mask`` closed under adding g up to bit ``limit``; ``full`` has bits
    0..limit set. Shifting by g, 2g, ..., 2^k g adds 0..2^(k+1) - 1 times g."""
    shift = g
    while shift <= limit:
        mask |= (mask << shift) & full
        shift <<= 1
    return mask


def n_representable(target: int, generators: Iterable[int]) -> bool:
    """Is ``target`` a nonnegative integer combination of ``generators``?"""
    target = int(target)
    if target < 0:
        raise ValidationError("target must be nonnegative")
    mask = representable_mask(target, generators)
    return bool((mask >> target) & 1)


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All unordered partitions of ``n`` as non-increasing tuples.

    The order is deterministic: largest first part first, so for 3 the list
    is (3,), (2, 1), (1, 1, 1).
    """
    n = int(n)
    if n < 1:
        raise ValidationError("partitions are defined for n >= 1")
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def descend(remaining, largest):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(largest, remaining), 0, -1):
            prefix.append(part)
            descend(remaining - part, part)
            prefix.pop()

    descend(n, n)
    return out
