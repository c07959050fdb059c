"""Exact linear algebra over the rationals for small dense systems.

One fraction-free (Bareiss) forward-elimination loop serves everything.
`Factor` runs it once over a square integer matrix without row
exchanges and keeps the eliminated matrix: its first nonpositive pivot
is Sylvester's answer (the first leading principal minor <= 0), and on
a positive-definite matrix the Bareiss multipliers left in the lower
triangle let any integer right-hand side replay the same steps in
O(n^2).  By Cramer's rule det * N^-1 b is integral for integral b
(Bareiss, Math. Comp. 1968), so `Factor.scaled_solve` returns integers
and every division on the way is exact.  N is therefore eliminated once
per graph, and callers carry numerators over one denominator, building
fractions only for the values they report.  `Factor.border` appends
rows and columns to a factored matrix and eliminates only the new
entries, replaying the stored steps on them: a sequence of growing
principal blocks, such as the supports of the delta_min LCP, costs one
elimination of the largest block in all.

`solve` is the general route for any invertible matrix: the same loop
over the augmented matrix, with deterministic row exchanges (first
nonzero row below the diagonal) so results are bit-identical across
runs, and n fractions at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

IntMatrix = Sequence[Sequence[int]]


def _square_size(rows: IntMatrix) -> int:
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    return n


def _eliminate(
    a: list[list[int]], n: int, *, exchange: bool, done: int = 0
) -> int | None:
    """Bareiss forward elimination of the leading n columns of `a`, in place.

    Extra (right-hand-side) columns are eliminated along.  Returns the
    1-based step k that stopped, or None: with row exchanges, a column
    with no nonzero pivot (singular); without them, a pivot <= 0, which
    is then the k-th leading principal minor.  Entry (i, k) below the
    diagonal is never rewritten after step k reads it as row i's
    multiplier, so the lower triangle keeps every multiplier.

    With ``done`` = m (no exchanges), the leading m x m block of `a` is
    already eliminated: only the new entries, columns >= m of the first
    m rows and the rows below, are carried through the stored steps.
    """
    width = len(a[0]) if n else 0
    prev = 1
    for k in range(n):
        if exchange and a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    break
        row_k = a[k]
        pivot = row_k[k]
        if pivot == 0 or (pivot < 0 and not exchange):
            return k + 1
        for i in range(k + 1, n):
            row_i = a[i]
            factor = row_i[k]
            for j in range(done if i < done else k + 1, width):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return None


class Factor:
    """One elimination of a square integer matrix, kept for replay.

    ``first_nonpositive`` is the size k of the first leading principal
    minor <= 0, or None when the matrix is positive definite; only then
    is ``det`` its determinant and `scaled_solve` usable.  `border`
    grows the matrix by new trailing rows and columns, eliminating only
    the new entries.
    """

    __slots__ = ("_a", "det", "first_nonpositive")

    def __init__(self, rows: IntMatrix):
        _square_size(rows)
        self._a = [list(map(int, row)) for row in rows]
        self._eliminate_from(0)

    def border(self, cols: IntMatrix, rows: IntMatrix) -> None:
        """Extend the m x m matrix to (m + r) x (m + r): cols[i] holds the
        r new entries of old row i, rows the r new rows at full width.

        Leading minors up to m are unchanged, so the stored steps are
        replayed on the new entries and elimination goes on from step m.
        """
        a = self._a
        m = len(a)
        n = m + len(rows)
        if len(cols) != m or any(len(row) != n for row in rows) or any(
            len(c) + m != n for c in cols
        ):
            raise ValueError("matrix is not square")
        for row, c in zip(a, cols):
            row.extend(map(int, c))
        a += [list(map(int, row)) for row in rows]
        self._eliminate_from(m)

    def _eliminate_from(self, done: int) -> None:
        a = self._a
        n = len(a)
        self.first_nonpositive = _eliminate(a, n, exchange=False, done=done)
        self.det = a[n - 1][n - 1] if n and self.first_nonpositive is None else 1

    def scaled_solve(self, b: Sequence[int]) -> list[int]:
        """The integer y with rows * y = det * b, for integral b."""
        if self.first_nonpositive is not None:
            raise ValueError("matrix is not positive definite")
        a = self._a
        n = len(a)
        if len(b) != n:
            raise ValueError(
                f"dimension mismatch: matrix is {n}x{n}, vector has length {len(b)}"
            )
        y = list(b)
        prev = 1
        for k in range(n):
            pivot, yk = a[k][k], y[k]
            for i in range(k + 1, n):
                y[i] = (y[i] * pivot - a[i][k] * yk) // prev
            prev = pivot
        return _back_substitute(a, y, self.det)


def _back_substitute(a: list[list[int]], y: list[int], det: int) -> list[int]:
    """Turn the eliminated right-hand side y into det * x, in place.

    By Cramer's rule det * x is integral, so every division is exact.
    """
    for i in range(len(y) - 1, -1, -1):
        row = a[i]
        acc = det * y[i]
        for j in range(i + 1, len(y)):
            acc -= row[j] * y[j]
        y[i] = acc // row[i]
    return y


def solve(rows: IntMatrix, rhs: Sequence[Fraction | int]) -> list[Fraction]:
    """Solve rows * x = rhs exactly; the matrix must be invertible over Q.

    Raises ValueError on dimension mismatch or a singular matrix.
    """
    b, scale = _cleared(rows, rhs)
    n = len(b)
    if n == 0:
        return []
    aug = [[int(x) for x in row] + [v] for row, v in zip(rows, b)]
    if _eliminate(aug, n, exchange=True) is not None:
        raise ValueError("matrix is singular")
    det = aug[n - 1][n - 1]  # +-det after the row exchanges
    y = _back_substitute(aug, [row[n] for row in aug], det)
    return [Fraction(yi, det * scale) for yi in y]


def clear_denominators(v: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """(d*v as integers, d) for the least common denominator d."""
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def int_matvec(rows: IntMatrix, v: Sequence[int]) -> list[int]:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in rows]


def _cleared(rows: IntMatrix, v: Sequence[Fraction | int]) -> tuple[list[int], int]:
    n = _square_size(rows)
    if len(v) != n:
        raise ValueError(
            f"dimension mismatch: matrix is {n}x{n}, vector has length {len(v)}"
        )
    return clear_denominators(v)


def matvec(rows: IntMatrix, v: Sequence[Fraction | int]) -> list[Fraction]:
    ints, d = _cleared(rows, v)
    return [Fraction(w, d) for w in int_matvec(rows, ints)]


def quadratic_form(rows: IntMatrix, v: Sequence[Fraction | int]) -> Fraction:
    """v^T * rows * v, exactly."""
    ints, d = _cleared(rows, v)
    return Fraction(sum(a * b for a, b in zip(ints, int_matvec(rows, ints))), d * d)
