"""Exact integer linear algebra and combinatorial primitives.

Everything in this module runs over arbitrary-precision Python integers.
No floating point is used anywhere: every downstream claim built on these
routines is exact. The main entry points are

* :func:`smith_normal_form`, a deterministic Smith normal form with the
  unimodular transforms recorded, and :func:`invariant_factors`, its
  diagonal alone,
* :func:`integer_determinant`, a fraction-free (Bareiss) determinant.

Both Smith forms run one elimination that records nothing itself. The
transforms come from bordering the matrix with identities, which the
elimination updates along with it (Kannan and Bachem, 1979; Cohen, *A Course
in Computational Algebraic Number Theory*, section 2.4). So the factors alone
need no memory beyond the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DimensionError, ResourceCapError, ValidationError
from .weights import as_int

#: Largest target of the semigroup masks the subset criterion of
#: :mod:`wph.quasismooth` builds. Their cost is pseudo-polynomial in the
#: target, so anything bigger is rejected instead of silently grinding.
REPRESENTABLE_TARGET_CAP = 10_000_000


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", as_int(self.rows, "matrix rows"))
        object.__setattr__(self, "cols", as_int(self.cols, "matrix cols"))
        try:
            entries = tuple(as_int(x, "matrix entry") for x in self.entries)
        except TypeError as exc:
            raise ValidationError(
                f"matrix entries must be an iterable of integers, got {self.entries!r}"
            ) from exc
        object.__setattr__(self, "entries", entries)
        if self.rows < 1 or self.cols < 1:
            raise ValidationError("matrix needs at least one row and one column")
        if len(self.entries) != self.rows * self.cols:
            raise ValidationError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        try:
            data = [tuple(row) for row in rows]
        except TypeError as exc:
            raise ValidationError(
                f"matrix rows must be an iterable of integer rows, got {rows!r}"
            ) from exc
        if not data:
            raise ValidationError("matrix needs at least one row")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValidationError("ragged rows")
        return cls(len(data), width, tuple(x for row in data for x in row))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
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

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


@dataclass(frozen=True)
class SnfDecomposition:
    """Smith normal form ``U * M * V = D`` with unimodular ``U`` and ``V``.

    ``invariant_factors`` lists the nonzero diagonal entries of ``D``; they
    are positive and form a divisibility chain d_1 | d_2 | ... | d_r.
    """

    D: IntMatrix
    U: IntMatrix
    V: IntMatrix
    invariant_factors: tuple[int, ...]


def _snf_worker(a: list[list[int]], nrows: int, ncols: int) -> None:
    """Diagonalize the leading ``nrows`` x ``ncols`` block of ``a`` in place.

    At each diagonal position t the smallest-absolute-value nonzero entry of
    the remaining block, ties to the lowest (row, col), moves to (t, t) and is
    made positive, and row t and column t are reduced by floor division. A
    remainder, or a row with an entry the pivot does not divide (added to row
    t; this yields the divisibility chain), sends the search round again. So
    every pivot is the smallest entry of the remaining block: the output is
    deterministic and intermediate entries stay small.

    Row operations act on whole rows among the first ``nrows``, column
    operations on whole columns among the first ``ncols``, and the searches
    read only the block. So whatever a caller appends records the transforms
    (bordering): entries right of the first ``nrows`` rows undergo exactly
    the row operations, and rows below the block, ``ncols`` entries long,
    exactly the column operations.
    """
    for t in range(min(nrows, ncols)):
        while True:
            best = 0
            for i in range(t, nrows):
                row = a[i]
                for j in range(t, ncols):
                    x = row[j]
                    if x:
                        ax = -x if x < 0 else x
                        if not best or ax < best:
                            best, bi, bj = ax, i, j
            if not best:
                return
            a[t], a[bi] = a[bi], a[t]
            if bj != t:
                for r in a:
                    r[t], r[bj] = r[bj], r[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            top = a[t]
            for i in range(t + 1, nrows):
                k = a[i][t] // best
                if k:
                    a[i] = [x - k * y for x, y in zip(a[i], top)]
            for j in range(t + 1, ncols):
                k = top[j] // best
                if k:
                    for r in a:
                        r[j] -= k * r[t]
            if any(top[t + 1 : ncols]) or any(a[i][t] for i in range(t + 1, nrows)):
                continue
            bad = [i for i in range(t + 1, nrows) if any(x % best for x in a[i][t + 1 : ncols])]
            if not bad:
                break
            a[t] = [x + y for x, y in zip(top, a[bad[0]])]


def _bordered(rows: list[list[int]]) -> list[list[int]]:
    """``rows`` (r x c) with I_r appended to the right and I_c appended below."""
    r, c = len(rows), len(rows[0])
    return [row + [int(i == j) for j in range(r)] for i, row in enumerate(rows)] + [
        [int(i == j) for j in range(c)] for i in range(c)
    ]


def smith_normal_form(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form of ``m`` with recorded unimodular transforms.

    Deterministic for a given input. The diagonal of the returned ``D`` is
    nonnegative with the nonzero entries forming a divisibility chain, and
    ``U @ m @ V == D`` holds exactly. One pass over ``m`` bordered by
    identities yields D, U and V.
    """
    r, c = m.rows, m.cols
    a = _bordered(m.to_rows())
    _snf_worker(a, r, c)
    d = [row[:c] for row in a[:r]]
    return SnfDecomposition(
        D=IntMatrix.from_rows(d),
        U=IntMatrix.from_rows([row[c:] for row in a[:r]]),
        V=IntMatrix.from_rows(a[r:]),
        invariant_factors=_diagonal(d),
    )


def invariant_factors(rows: list[list[int]]) -> tuple[int, ...]:
    """The factors of :func:`smith_normal_form` alone; diagonalizes ``rows`` in place."""
    _snf_worker(rows, len(rows), len(rows[0]))
    return _diagonal(rows)


def _diagonal(a: list[list[int]]) -> tuple[int, ...]:
    """The nonzero diagonal entries :func:`_snf_worker` leaves in ``a``."""
    return tuple(a[i][i] for i in range(min(len(a), len(a[0]))) if a[i][i])


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


def _check_target_cap(limit: int) -> None:
    """ResourceCapError past the cap, naming a long target by its digit count."""
    if limit > REPRESENTABLE_TARGET_CAP:
        # A lower bound on the digit count, raised to it without converting to text.
        digits = (limit.bit_length() - 1) * 30102 // 100000
        while 10**digits <= limit:
            digits += 1
        shown = limit if digits <= 20 else f"of {digits} digits"
        raise ResourceCapError(
            f"representability target {shown} exceeds cap {REPRESENTABLE_TARGET_CAP}"
        )


def _closed(mask: int, g: int, limit: int, full: int) -> int:
    """``mask`` closed under adding g up to bit ``limit``; ``full`` has bits
    0..limit set. Shifting by g, 2g, ..., 2^k g adds 0..2^(k+1) - 1 times g."""
    shift = g
    while shift <= limit:
        mask |= (mask << shift) & full
        shift <<= 1
    return mask
