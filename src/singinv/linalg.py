"""Exact linear algebra over the rationals for small integer systems.

One fraction-free (Bareiss) elimination kernel serves everything.
`Factor` eliminates a symmetric integer matrix without row exchanges:
its first nonpositive pivot is Sylvester's answer (the first leading
principal minor <= 0), and on a positive-definite matrix the
multipliers left in the lower triangle forward-eliminate any integer
right-hand side.  By Cramer's rule det * N^-1 b is integral for
integral b (Bareiss, Math. Comp. 1968), so `Factor.scaled_solve`
returns integers, every division is exact, and callers carry
numerators over det.

The kernel works row by row, reading the final rows above.  Step k maps
row i to (M_{k+1} row_i - a_ik row_k) / M_k, M_k the leading principal
minor of size k (M_0 = 1; Sylvester's identity); where a_ik or row k is
zero it only scales by M_{k+1} / M_k.  So each row keeps its nonzero
multiplier steps, runs only the steps with a nonzero multiplier, on the
pivot row's nonzero columns, and rescales an entry last changed by step
t by M_k / M_t, exactly, when step k next reads it; entries left of a
row's first nonzero run no step, so its scan starts there.  After a
nonpositive pivot at step k the later rows stop at step k.  The array is
bit for bit the dense one; a tree in vertex order makes little fill-in
(Parter, SIAM Review 1961).

Each entry of the array is a bordered leading minor, so for a symmetric
matrix the array is symmetric too, and the kernel keeps only its lower
triangle, as in row-by-row symmetric elimination (George and Liu,
*Computer Solution of Large Sparse Positive Definite Systems*, 1981):
row i is stored up to its diagonal, and the pivot row's entry a_kj is
read as a_jk.  Row i comes in as its nonzero pairs (j, a_ij), as
`DualGraph.columns` holds N.  Rows enter a factor one way, `border`
(`Factor(rows)` borders the empty factor), which appends them and never
changes an old row.  Row i and the pivots up to M_{i+1} are minors of
the leading (i + 1) x (i + 1) block alone, so two matrices that agree on
their leading p x p block have the same first p rows, bit for bit.
`prefix(p)` hands them on, shared, not copied: one row list serves many
factors, so a graph reweighted from vertex p on (`DualGraph.reweighted`)
and a least-element block whose first p vertices are 0..p-1
(`cycles.least_element`) eliminate only the rows after p.
A solve is two calls.  `carry` forward-eliminates
the entries of a right-hand side added since its last call and keeps the
old ones.
`back_substitute` can stop at given rows and the rows their
substitution reads, the closure of the given rows under the nonzero
columns below the diagonal (Gilbert and Peierls, SIAM J. Sci. Stat.
Comput. 1988), and can later complete what it left out.  So an
iteration of the delta_min LCP costs one border, the forward values of
its entering rows and the back substitution of the rows its entering
test reads; only the last solve covers the whole block.

Besides the kernel the module holds `solve`, the public checked solve
of a dense matrix, which refuses one that is not square or not
symmetric, and `clear_denominators`.  No route of the library goes
through `solve`: the exhaustive delta_min oracle factors each principal
block of N with `Factor` directly.  No product with N is here: N is
held only as `DualGraph.columns`, and `graph.form_image` multiplies
through them.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

IntMatrix = Sequence[Sequence[int]]
SparseRows = Iterable[Iterable[tuple[int, int]]]  # row i: its pairs (j, a_ij)


class Factor:
    """One elimination of a symmetric integer matrix, kept for replay.

    Row i is its nonzero pairs (j, a_ij), each j at most once, in any
    order; pairs past the diagonal are skipped, as the matrix is taken to
    be symmetric and is not checked (`solve` checks it).
    ``first_nonpositive`` is the size k of the first leading principal
    minor <= 0, or None when the matrix is positive definite; only then
    is ``det`` its determinant and the solves usable.
    """

    __slots__ = ("_a", "_lower", "_upper", "_piv", "det", "first_nonpositive")

    def __init__(self, rows: SparseRows):
        self._a: list[list[int]] = []  # row i up to its diagonal
        self._lower: list[list[int]] = []  # of row i: steps k < i with a[i][k] != 0
        self._upper: list[list[int]] = []  # of row k: rows i > k with a[i][k] != 0
        self._piv = [1]  # M_0 and the positive pivots M_1, M_2, ...
        self.first_nonpositive: int | None = None
        self.border(rows)

    def prefix(self, p: int) -> "Factor":
        """The factor of the leading p x p block.  Rows 0..p-1 and the
        pivots M_0..M_p are that block's own, so the rows are shared, not
        copied; only the lists of the later rows that read each of them
        (`_upper`, in increasing order) are cut to the rows below p.
        `border` then appends the rows of any symmetric matrix that
        agrees with this one on the block."""
        bad = self.first_nonpositive
        f = Factor.__new__(Factor)
        f._a = self._a[:p]
        f._lower = self._lower[:p]
        f._upper = [below[: bisect_left(below, p)] for below in self._upper[:p]]
        f._piv = self._piv[: p + 1]
        f.first_nonpositive = bad if bad is not None and bad <= p else None
        f.det = f._piv[-1] if f.first_nonpositive is None else 1
        return f

    def border(self, rows: SparseRows) -> None:
        """Extend the symmetric m x m matrix by r new rows: append them
        reduced, or none on a negative column index.  By symmetry a new
        row's pairs below m are the old rows' new columns, and its pairs
        past its diagonal, which later rows hold, are skipped.  Row i runs
        its nonzero multiplier steps k from its first nonzero on; step k
        updates only the columns j <= i below pivot k, `_upper[k]`, and i
        itself, reading the pivot row's a[k][j] as a[j][k].  No old row is
        written, so rows shared by `prefix` stay as they were."""
        a, piv, lower, upper = self._a, self._piv, self._lower, self._upper
        spread = []  # (first nonzero column, dense row up to the diagonal)
        for i, pairs in enumerate(rows, len(a)):
            row, first = [0] * (i + 1), i
            for j, c in pairs:
                if j <= i:
                    if j < first:
                        if j < 0:
                            raise ValueError(f"row {i}: negative column index {j}")
                        first = j
                    row[j] = c
            spread.append((first, row))
        done = len(a) if self.first_nonpositive is None else self.first_nonpositive - 1
        for i, (first, row) in enumerate(spread, len(a)):
            steps: list[int] = []
            a.append(row)
            lower.append(steps)
            upper.append([])
            stop = i if i < done else done
            lag = [0] * (i + 1)  # row[j] holds its value after lag[j] steps
            for k in range(first, stop):
                f = row[k]
                if not f:
                    continue
                if lag[k] < k:
                    f = row[k] = f * piv[k] // piv[lag[k]]
                steps.append(k)
                below = upper[k]
                below.append(i)  # so a[i][k] = f is read as a[k][i]
                prev, pivot = piv[k], piv[k + 1]
                for j in below:
                    v, t = row[j], lag[j]
                    if t < k and v:
                        v = v * prev // piv[t]
                    row[j] = (v * pivot - f * a[j][k]) // prev
                    lag[j] = k + 1
            for j in range(stop, i + 1):  # the diagonal; after an early exit, from stop on
                if row[j] and lag[j] < stop:
                    row[j] = row[j] * piv[stop] // piv[lag[j]]
            if done == i:  # no nonpositive pivot yet
                if row[i] > 0:
                    piv.append(row[i])
                    done += 1
                else:
                    self.first_nonpositive = i + 1
        self.det = piv[-1] if self.first_nonpositive is None else 1  # M_m, M_0 = 1

    def _reached(self, rows: Iterable[int]) -> list[int]:
        """`rows` and every row a back substitution at `rows` reads, in
        increasing order: the closure of `rows` under `_upper`.  It costs
        what it reaches, not the size of the factor."""
        upper = self._upper
        reached = set(rows)
        todo = [*reached]
        for i in todo:  # also visits the rows appended on the way
            for j in upper[i]:
                if j not in reached:
                    reached.add(j)
                    todo.append(j)
        return sorted(todo)

    def _check(self, size: int) -> None:
        """A solve needs a positive-definite matrix and a vector of its size."""
        if self.first_nonpositive is not None:
            raise ValueError("matrix is not positive definite")
        n = len(self._a)
        if size != n:
            raise ValueError(f"dimension mismatch: matrix is {n}x{n}, vector has length {size}")

    def scaled_solve(self, b: Sequence[int]) -> list[int]:
        """The integer y with rows * y = det * b, for integral b."""
        forward: list[int] = []
        self.carry(forward, b)
        return self.back_substitute(forward)

    def carry(self, forward: list[int], b: Sequence[int]) -> None:
        """Forward-eliminate a right-hand side whose leading entries an
        earlier call, before the latest borders, left in `forward`: b
        holds the entries of the rows added since, and their forward
        values are appended to `forward`."""
        self._check(len(forward) + len(b))
        a, piv = self._a, self._piv
        for i, v in enumerate(b, len(forward)):
            row, t = a[i], 0
            for k in self._lower[i]:
                yk = forward[k]
                if yk:
                    if t < k and v:
                        v = v * piv[k] // piv[t]
                    v = (v * piv[k + 1] - row[k] * yk) // piv[k]
                    t = k + 1
            forward.append(v * piv[i] // piv[t] if t < i and v else v)

    def back_substitute(
        self,
        forward: Sequence[int],
        rows: Iterable[int] | None = None,
        y: list[int | None] | None = None,
    ) -> list[int | None]:
        """det * x for the forward values of a full right-hand side: at
        `rows` and the rows their substitution reads (every row when
        None), with None elsewhere.  Entries of `y`, the result of an
        earlier call on the same forward values, are kept, not redone.

        By Cramer's rule det * x is integral, so every division is exact.
        """
        self._check(len(forward))
        a, upper, det = self._a, self._upper, self.det
        n = len(a)
        order = range(n - 1, -1, -1) if rows is None else reversed(self._reached(rows))
        if y is None:
            y = [None] * n
        else:
            order = [i for i in order if y[i] is None]
        for i in order:
            acc = det * forward[i]
            for j in upper[i]:
                acc -= a[j][i] * y[j]
            y[i] = acc // a[i][i]
        return y

    def solve(self, rhs: Sequence[Fraction | int]) -> list[Fraction]:
        """The exact x with rows * x = rhs, as fractions."""
        b, d = clear_denominators(rhs)
        den = self.det * d
        return [Fraction(y, den) for y in self.scaled_solve(b)]


def solve(rows: IntMatrix, rhs: Sequence[Fraction | int]) -> list[Fraction]:
    """Solve rows * x = rhs exactly for a positive-definite matrix;
    ValueError on a dimension mismatch or any other matrix."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    if any(row[j] != rows[j][i] for i, row in enumerate(rows) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    return Factor([[(j, v) for j, v in enumerate(row) if v] for row in rows]).solve(rhs)


def clear_denominators(v: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """(d*v as integers, d) for the least common denominator d."""
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d
