"""Determinant calculus for chain configurations.

For a chain of weights (w_1, ..., w_n) the intersection form is the
tridiagonal matrix A with diagonal w and off-diagonal -1.  Its
determinant a(w_1, ..., w_n) obeys the continuant recurrence

    a(w_1, ..., w_j) = w_j * a(w_1, ..., w_{j-1}) - a(w_1, ..., w_{j-2})

with a() = 1, and every entry of A^{-1} is a ratio of prefix/suffix
continuants:

    c_ij = a(w_1, ..., w_{i-1}) * a(w_{j+1}, ..., w_n) / a(w_1, ..., w_n)

for i <= j, extended symmetrically.  The same quotients give the
canonical-cycle coefficients:

    1 - a_i = (a(w_1, ..., w_{i-1}) + a(w_{i+1}, ..., w_n)) / a(w_1, ..., w_n).

Positions i, j are 1-based throughout, matching the chain notation.
All weights must be >= 2: the calculus is only invoked for chains that
resolve a singular point, and strict growth of the continuants (which
the end-coefficient bound relies on) needs w_j >= 2.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .graph import exact_fraction


def _check_weights(weights: Sequence[int]) -> tuple[int, ...]:
    ws = tuple(weights)
    for w in ws:
        if type(w) is not int:  # exact ints only, as for DualGraph: none is truncated
            raise ValueError(f"chain weights must be integers, got {w!r}")
    if any(w < 2 for w in ws):
        raise ValueError("chain weights must all be >= 2")
    return ws


def _prefix_continuants(ws: Sequence[int]) -> list[int]:
    """[a(), a(w_1), a(w_1 w_2), ..., a(w_1..w_n)], length n+1."""
    out = [1]
    prev2, prev1 = 0, 1  # a of the (-1)- and 0-length prefixes
    for w in ws:
        prev2, prev1 = prev1, w * prev1 - prev2
        out.append(prev1)
    return out


def continuant(weights: Sequence[int]) -> int:
    """a(w_1, ..., w_n); the empty chain gives 1."""
    return _prefix_continuants(_check_weights(weights))[-1]


def _continuants(weights: Sequence[int]) -> tuple[list[int], list[int]]:
    """pre[k] = a(w_1..w_k) and suf[k] = a(w_{k+1}..w_n) for k = 0..n,
    of weights checked once; a(w_i..w_n) = a(w_n..w_i), so the suffixes
    are the prefixes of the reversed weights."""
    ws = _check_weights(weights)
    return _prefix_continuants(ws), _prefix_continuants(ws[::-1])[::-1]


def _check_position(n: int, i: int) -> None:
    if not 1 <= i <= n:
        raise IndexError(f"position {i} out of range for a chain of length {n}")


def inverse_entry(weights: Sequence[int], i: int, j: int) -> Fraction:
    """Entry (i, j) of the inverse intersection form, 1-based, symmetric."""
    pre, suf = _continuants(weights)
    n = len(pre) - 1
    _check_position(n, i)
    _check_position(n, j)
    if i > j:
        i, j = j, i
    return Fraction(pre[i - 1] * suf[j], pre[n])


def inverse_matrix(weights: Sequence[int]) -> tuple[tuple[Fraction, ...], ...]:
    """Full inverse of the chain intersection form, via one prefix/suffix pass."""
    pre, suf = _continuants(weights)
    n = len(pre) - 1
    total = pre[n]
    return tuple(
        tuple(
            Fraction(pre[min(i, j) - 1] * suf[max(i, j)], total) for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )


def discrepancy_complement(weights: Sequence[int], i: int) -> Fraction:
    """1 - a_i for the canonical-cycle coefficient a_i at position i."""
    pre, suf = _continuants(weights)
    n = len(pre) - 1
    _check_position(n, i)
    return Fraction(pre[i - 1] + suf[i], pre[n])


def chain_delta_y(weights: Sequence[int]) -> Fraction:
    """delta_y of a chain in closed form: 2 - a_1 - a_n, that is
    (1 + a(w_2..w_n) + a(w_1..w_{n-1}) + 1) / a(w_1..w_n).

    For n = 1 the two ends coincide and this reads 2 - 2*a_1.  Must agree
    with the quadratic form -(Z - Delta)^2 on the corresponding graph.
    """
    pre, suf = _continuants(weights)
    n = len(pre) - 1
    if n == 0:
        raise ValueError("chain must be nonempty")
    return Fraction(2 + suf[1] + pre[n - 1], pre[n])


class EndBound(NamedTuple):
    """Outcome of the chain-end coefficient bound p_n <= a(w_1..w_{n-1}) * p_1."""

    holds: bool
    first: Fraction  # p_1
    last: Fraction  # p_n


def pullback_end_bound(
    weights: Sequence[int], q: Sequence[Fraction | int]
) -> EndBound:
    """Check the end-coefficient bound for p = A^{-1} q with q >= 0.

    p_j are the exceptional coefficients of the pullback of an effective
    divisor whose strict transform meets E_j with multiplicity q_j; the
    bound holds for every such q.  Only the first and last columns of
    A^{-1} are read: c_i1 = a(w_{i+1}..w_n) / a and c_in = a(w_1..w_{i-1}) / a.
    """
    pre, suf = _continuants(weights)
    n = len(pre) - 1
    if n == 0:
        raise ValueError("chain must be nonempty")
    qs = [exact_fraction(x, f"q[{j}]") for j, x in enumerate(q)]
    if len(qs) != n:
        raise ValueError(f"dimension mismatch: chain length {n}, q has {len(qs)}")
    if any(x < 0 for x in qs):
        raise ValueError("q must be nonnegative")
    p_first = sum(map(mul, qs, suf[1:])) / pre[n]
    p_last = sum(map(mul, qs, pre)) / pre[n]
    return EndBound(holds=p_last <= pre[n - 1] * p_first, first=p_first, last=p_last)
