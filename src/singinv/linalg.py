"""Exact linear algebra over the rationals for small dense systems.

One fraction-free (Bareiss) forward-elimination loop serves both
Sylvester's criterion and `solve`.  Rational right-hand sides are scaled
to integers first, so every intermediate quantity is an integer and
every division is exact; back-substitution stays in integers too (by
Cramer's rule det * x is integral), and only the n entries of the
solution become fractions.  Pivoting is deterministic (first nonzero
row below the diagonal), which keeps results bit-identical across runs.
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


def _eliminate(a: list[list[int]], n: int, *, exchange: bool) -> int | None:
    """Bareiss forward elimination of the leading n columns of `a`, in place.

    Extra (right-hand-side) columns are eliminated along.  Returns the
    1-based step k that stopped, or None: with row exchanges, a column
    with no nonzero pivot (singular); without them, a pivot <= 0, which
    is then the k-th leading principal minor.
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
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return None


def first_nonpositive_leading_minor(rows: IntMatrix) -> int | None:
    """Size k of the first leading principal minor <= 0, or None if all > 0.

    One elimination without row exchanges: a zero or negative pivot stops
    it, and that minor is already the answer.
    """
    n = _square_size(rows)
    return _eliminate([[int(x) for x in row] for row in rows], n, exchange=False)


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
    # The last pivot is +-det; y = det * x is integral, so every division
    # below is exact.
    det = aug[n - 1][n - 1]
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = det * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))
        y[i] = acc // row[i]
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
