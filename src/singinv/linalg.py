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

The loop skips zero multipliers.  Step k of Bareiss maps row i to
(M_{k+1} row_i - a_ik row_k) / M_k, where M_k is the leading principal
minor of size k (M_0 = 1; the recurrence is Sylvester's identity).  When
a_ik = 0 this is row_i * M_{k+1} / M_k, so a row skipped from step t up
to step k is its stored value times M_k / M_t, an exact division.  Each
row keeps the step it has reached and is rescaled only when it is next
read.  Eliminated in vertex order, a tree makes little fill-in (Parter,
SIAM Review 1961), so most rows skip most steps, and the eliminated
array is bit for bit the dense one.  The replay of a right-hand side y
skips zero multipliers, and whole steps with y_k = 0, the same way;
back substitution skips zero entries.
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


def _eliminate(a: list[list[int]], done: int = 0) -> int | None:
    """Bareiss forward elimination of the square matrix `a`, in place.

    Returns None, or the 1-based step k whose pivot, the k-th leading
    principal minor, is <= 0.  Entry (i, k) below the diagonal is never
    rewritten after step k reads it as row i's multiplier, so the lower
    triangle keeps every multiplier.

    A row whose multiplier is zero skips the step: row i holds its
    values after lag[i] steps and is rescaled to step k (module
    docstring) when it is next read, as the pivot row, for a nonzero
    multiplier, or on an early exit.  The result is the dense one.

    With ``done`` = m, the leading m x m block of `a` is already
    eliminated: only the new entries, columns >= m of the first m rows
    and the rows below, are carried through the stored steps.
    """
    n = len(a)
    lag = [0] * n
    prev = 1
    for k in range(n):
        if lag[k] < k:
            _catch_up(a, k, lag[k], k, done)
        row_k = a[k]
        pivot = row_k[k]
        if pivot <= 0:
            for i in range(k + 1, n):
                if lag[i] < k:
                    _catch_up(a, i, lag[i], k, done)
            return k + 1
        for i in range(k + 1, n):
            row_i = a[i]
            if row_i[k]:
                if lag[i] < k:
                    _catch_up(a, i, lag[i], k, done)
                lag[i] = k + 1
                factor = row_i[k]
                for j in range(done if i < done else k + 1, n):
                    row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return None


def _catch_up(a: list[list[int]], i: int, t: int, k: int, done: int) -> None:
    """Take row i of `a` from its values after t steps to those after k:
    times M_k / M_t, exactly, where M_s = a[s - 1][s - 1] is the pivot of
    step s - 1, which no later step rewrites (M_0 = 1).  Only the columns
    the skipped steps would update change; before them lie the frozen
    multipliers and the zeros that made the row skip."""
    new = a[k - 1][k - 1] if k else 1
    old = a[t - 1][t - 1] if t else 1
    row = a[i]
    for j in range(done if i < done else k, len(row)):
        row[j] = row[j] * new // old


class Factor:
    """One elimination of a square integer matrix, kept for replay.

    ``first_nonpositive`` is the size k of the first leading principal
    minor <= 0, or None when the matrix is positive definite; only then
    is ``det`` its determinant and `scaled_solve` and `solve` usable.
    `border` grows the matrix by new trailing rows and columns,
    eliminating only the new entries.
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
        self.first_nonpositive = _eliminate(a, done)
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
        lag = [0] * n  # y[i] holds its value after lag[i] steps
        prev = 1
        for k in range(n):
            yk, t = y[k], lag[k]
            if t < k:
                yk = y[k] = yk * prev // (a[t - 1][t - 1] if t else 1)
            pivot = a[k][k]
            if yk:  # otherwise step k only rescales y
                for i in range(k + 1, n):
                    factor = a[i][k]
                    if factor:
                        yi, t = y[i], lag[i]
                        if t < k:
                            yi = yi * prev // (a[t - 1][t - 1] if t else 1)
                        y[i] = (yi * pivot - factor * yk) // prev
                        lag[i] = k + 1
            prev = pivot
        # back substitution: by Cramer's rule det * x is integral, so
        # every division is exact
        det = self.det
        for i in range(n - 1, -1, -1):
            row = a[i]
            acc = det * y[i]
            for j in range(i + 1, n):
                if row[j]:
                    acc -= row[j] * y[j]
            y[i] = acc // row[i]
        return y

    def solve(self, rhs: Sequence[Fraction | int]) -> list[Fraction]:
        """The exact x with rows * x = rhs, as fractions."""
        b, d = clear_denominators(rhs)
        den = self.det * d
        return [Fraction(y, den) for y in self.scaled_solve(b)]


def solve(rows: IntMatrix, rhs: Sequence[Fraction | int]) -> list[Fraction]:
    """Solve rows * x = rhs exactly for a positive-definite matrix.

    Raises ValueError on a dimension mismatch or a matrix that is not
    positive definite.
    """
    return Factor(rows).solve(rhs)


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
