import itertools
import random
import re
from fractions import Fraction

import pytest

from conftest import cofactor_determinant, random_chain_weights
from singinv.continuant import (
    chain_delta_y,
    continuant,
    discrepancy_complement,
    inverse_entry,
    inverse_matrix,
    pullback_end_bound,
)
from singinv.cycles import canonical_cycle
from singinv.families import chain_graph
from singinv.graph import solve_exceptional
from singinv.invariants import delta_y
from singinv.linalg import solve


def _tridiagonal(weights):
    n = len(weights)
    rows = [[0] * n for _ in range(n)]
    for i, w in enumerate(weights):
        rows[i][i] = w
        if i + 1 < n:
            rows[i][i + 1] = rows[i + 1][i] = -1
    return rows


def test_continuant_base_cases():
    assert continuant(()) == 1
    assert continuant((2,)) == 2
    assert continuant((2, 3)) == 5
    assert continuant((2, 2, 2)) == 4


def test_continuant_rejects_small_weights():
    with pytest.raises(ValueError, match=">= 2"):
        continuant((1, 3))


def test_continuant_refuses_non_integer_weights():
    # a weight is an exact int, as a DualGraph's is: 2.7 is not read as 2,
    # nor True as 1, nor a Fraction or a string as the int it names
    for bad in (2.7, 3.0, True, Fraction(5, 2), Fraction(3), "3"):
        message = re.escape(f"chain weights must be integers, got {bad!r}")
        for call in (
            continuant,
            inverse_matrix,
            chain_delta_y,
            lambda ws: inverse_entry(ws, 1, 2),
            lambda ws: discrepancy_complement(ws, 1),
            lambda ws: pullback_end_bound(ws, [1, 0]),
        ):
            with pytest.raises(ValueError, match=message):
                call([bad, 3])


def test_continuant_matches_cofactor_determinant_exhaustive_small():
    for n in (1, 2, 3):
        for weights in itertools.product(range(2, 10), repeat=n):
            assert continuant(weights) == cofactor_determinant(_tridiagonal(weights))


def test_continuant_matches_cofactor_determinant_sampled():
    rng = random.Random(41)
    for _ in range(120):
        weights = tuple(rng.randint(2, 9) for _ in range(rng.randint(4, 8)))
        assert continuant(weights) == cofactor_determinant(_tridiagonal(weights))


def test_inverse_entry_examples():
    assert inverse_entry((2, 3), 1, 1) == Fraction(3, 5)
    assert inverse_entry((2, 3), 2, 2) == Fraction(2, 5)
    assert inverse_entry((2, 3), 1, 2) == Fraction(1, 5)
    assert inverse_entry((2, 3), 2, 1) == Fraction(1, 5)


def test_inverse_entry_corner_is_reciprocal_determinant():
    rng = random.Random(42)
    for _ in range(30):
        weights = random_chain_weights(rng, 8, 9)
        n = len(weights)
        assert inverse_entry(weights, 1, n) == Fraction(1, continuant(weights))


def test_inverse_entry_index_errors():
    with pytest.raises(IndexError):
        inverse_entry((2, 3), 0, 1)
    with pytest.raises(IndexError):
        inverse_entry((2, 3), 1, 3)


def test_inverse_matrix_matches_linear_solver():
    rng = random.Random(43)
    for _ in range(25):
        weights = random_chain_weights(rng, 7, 9)
        n = len(weights)
        graph = chain_graph(weights)
        inv = inverse_matrix(weights)
        for j in range(n):
            unit = [Fraction(i == j) for i in range(n)]
            column = solve_exceptional(graph, unit)
            for i in range(n):
                assert inv[i][j] == column[i]
                assert inv[i][j] == inverse_entry(weights, i + 1, j + 1)


def test_row_monotonicity_and_strict_growth():
    rng = random.Random(44)
    for _ in range(40):
        weights = random_chain_weights(rng, 8, 9)
        n = len(weights)
        # a(w_j..w_n) strictly shrinks as the prefix is trimmed
        for j in range(n - 1):
            assert continuant(weights[j:]) > continuant(weights[j + 1 :])
        first_row = [inverse_entry(weights, 1, j) for j in range(1, n + 1)]
        last_row = [inverse_entry(weights, n, j) for j in range(1, n + 1)]
        assert all(a > b for a, b in zip(first_row, first_row[1:]))
        assert all(a < b for a, b in zip(last_row, last_row[1:]))


def test_discrepancy_complement_examples():
    assert discrepancy_complement((2, 3), 1) == Fraction(4, 5)
    assert discrepancy_complement((2, 3), 2) == Fraction(3, 5)
    for i in range(1, 5):
        assert discrepancy_complement((2, 2, 2, 2), i) == 1


def test_discrepancy_complement_matches_canonical_cycle():
    rng = random.Random(45)
    for _ in range(30):
        weights = random_chain_weights(rng, 8, 9)
        a = canonical_cycle(chain_graph(weights))
        for i in range(len(weights)):
            assert discrepancy_complement(weights, i + 1) == 1 - a[i]


def test_chain_delta_y_examples():
    assert chain_delta_y((2,)) == 2
    assert chain_delta_y((3,)) == Fraction(4, 3)
    assert chain_delta_y((2, 3)) == Fraction(7, 5)


def test_chain_delta_y_matches_quadratic_form():
    rng = random.Random(46)
    for _ in range(40):
        weights = random_chain_weights(rng, 8, 9)
        assert chain_delta_y(weights) == delta_y(chain_graph(weights))


def test_pullback_end_bound_examples():
    zero = pullback_end_bound((2, 3), [0, 0])
    assert zero.holds and zero.first == 0 and zero.last == 0
    left = pullback_end_bound((2, 3), [1, 0])
    assert left.holds
    assert (left.first, left.last) == (Fraction(3, 5), Fraction(1, 5))
    right = pullback_end_bound((2, 3), [0, 1])
    assert right.holds
    assert (right.first, right.last) == (Fraction(1, 5), Fraction(2, 5))
    # equality case: q supported on the far end
    assert right.last == continuant((2,)) * right.first


def test_pullback_end_bound_random():
    rng = random.Random(47)
    for _ in range(60):
        weights = random_chain_weights(rng, 8, 9)
        q = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in weights]
        assert pullback_end_bound(weights, q).holds


def test_pullback_end_bound_errors():
    with pytest.raises(ValueError, match="nonnegative"):
        pullback_end_bound((2, 3), [-1, 0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        pullback_end_bound((2, 3), [1])


def test_chain_end_identities():
    rng = random.Random(48)
    for _ in range(40):
        weights = random_chain_weights(rng, 8, 9)
        n = len(weights)
        alpha = continuant(weights)
        alpha_prefix = continuant(weights[:-1])
        one_minus_last = discrepancy_complement(weights, n)
        assert one_minus_last * alpha == 1 + alpha_prefix
        a_first = 1 - discrepancy_complement(weights, 1)
        assert a_first + inverse_entry(weights, 1, 1) == 1 - Fraction(1, alpha)


def _times_form(weights, column):
    """A x for the chain's tridiagonal form A, through its three diagonals."""
    n = len(weights)
    return [
        w * column[i] - (column[i - 1] if i else 0) - (column[i + 1] if i + 1 < n else 0)
        for i, w in enumerate(weights)
    ]


def test_chain_closed_forms_match_the_inverse_and_a_dense_solve():
    # each closed form read off the prefix and suffix continuants equals
    # the n x n inverse, which A times it shows to be A^-1, and a dense
    # solve of the tridiagonal form: on random chains, n = 1, and 100
    # weights at the 10**6 cap, constant and random
    rng = random.Random(49)
    chains = [(2,), (9,), (10**6,), (10**6,) * 100]
    chains.append(tuple(rng.randint(2, 10**6) for _ in range(100)))
    chains += [random_chain_weights(rng, 9, 12) for _ in range(40)]
    for weights in chains:
        n = len(weights)
        rows = _tridiagonal(weights)
        inv = inverse_matrix(weights)
        for j in range(n):
            column = [inv[i][j] for i in range(n)]
            assert _times_form(weights, column) == [int(i == j) for i in range(n)]
        pairs = itertools.product(range(1, n + 1), repeat=2) if n < 10 else (
            (rng.randint(1, n), rng.randint(1, n)) for _ in range(60)
        )
        for i, j in itertools.chain(pairs, [(1, 1), (1, n), (n, 1), (n, n)]):
            assert inverse_entry(weights, i, j) == inv[i - 1][j - 1]
        canonical = solve(rows, [w - 2 for w in weights])  # N Delta = K.E_j
        assert [discrepancy_complement(weights, i) for i in range(1, n + 1)] == [
            1 - a for a in canonical
        ]
        assert chain_delta_y(weights) == 2 - canonical[0] - canonical[-1]
        for q in ([Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in weights],
                  [int(k == n - 1) for k in range(n)]):
            p = solve(rows, q)
            result = pullback_end_bound(weights, q)
            # the n x n route it replaced: columns 1 and n of the inverse
            first = sum((qi * inv[i][0] for i, qi in enumerate(q)), Fraction(0))
            last = sum((qi * inv[i][n - 1] for i, qi in enumerate(q)), Fraction(0))
            assert (result.first, result.last) == (p[0], p[-1]) == (first, last)
            assert result.holds is (p[-1] <= continuant(weights[:-1]) * p[0]) is True
            assert type(result.first) is type(result.last) is Fraction
    assert chain_delta_y((10**6,)) == Fraction(4, 10**6)
