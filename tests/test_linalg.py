import random
from fractions import Fraction

import pytest

from conftest import cofactor_determinant
from singinv.linalg import (
    clear_denominators,
    first_nonpositive_leading_minor,
    matvec,
    quadratic_form,
    solve,
)


def test_determinant_small_cases():
    # the cofactor oracle is the suite's only determinant
    assert cofactor_determinant([]) == 1
    assert cofactor_determinant([[5]]) == 5
    assert cofactor_determinant([[1, 2], [3, 4]]) == -2
    assert cofactor_determinant([[2, -1], [-1, 3]]) == 5
    assert cofactor_determinant([[1, 2], [2, 4]]) == 0


def test_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        first_nonpositive_leading_minor([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="square"):
        solve([[1, 2, 3], [4, 5, 6]], [1, 2])


def test_first_nonpositive_small_cases():
    assert first_nonpositive_leading_minor([]) is None
    assert first_nonpositive_leading_minor([[2, -1], [-1, 3]]) is None
    assert first_nonpositive_leading_minor([[1, 1], [1, 1]]) == 2
    assert first_nonpositive_leading_minor([[-1, 0], [0, 2]]) == 1


def test_first_nonpositive_agrees_with_minor_scan():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 5)
        sym = [[0] * n for _ in range(n)]
        for i in range(n):
            sym[i][i] = rng.randint(-3, 6)
            for j in range(i + 1, n):
                sym[i][j] = sym[j][i] = rng.randint(-2, 2)
        minors = [
            cofactor_determinant([row[:k] for row in sym[:k]]) for k in range(1, n + 1)
        ]
        expected = next((k for k, m in enumerate(minors, start=1) if m <= 0), None)
        assert first_nonpositive_leading_minor(sym) == expected


def test_solve_exact_roundtrip():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 6)
        # A^T A + I is positive definite, hence invertible
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        m = [
            [sum(a[k][i] * a[k][j] for k in range(n)) + (i == j) for j in range(n)]
            for i in range(n)
        ]
        rhs = [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(n)]
        x = solve(m, rhs)
        assert matvec(m, x) == rhs


def test_solve_matches_cramer():
    rng = random.Random(15)
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        det = cofactor_determinant(rows)
        if det == 0:
            continue
        rhs = [rng.randint(-9, 9) for _ in range(n)]
        x = solve(rows, rhs)
        for j in range(n):
            swapped = [row[:j] + [b] + row[j + 1 :] for row, b in zip(rows, rhs)]
            assert x[j] == Fraction(cofactor_determinant(swapped), det)


def test_solve_handles_zero_pivot():
    assert solve([[0, 1], [1, 0]], [Fraction(1), Fraction(2)]) == [
        Fraction(2),
        Fraction(1),
    ]


def test_solve_errors():
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve([[1, 0], [0, 1]], [Fraction(1)])
    with pytest.raises(ValueError, match="singular"):
        solve([[1, 2], [2, 4]], [Fraction(1), Fraction(1)])


def test_quadratic_form_values():
    form = [[2, -1], [-1, 3]]
    assert quadratic_form(form, [Fraction(0), Fraction(0)]) == 0
    assert quadratic_form(form, [Fraction(4, 5), Fraction(3, 5)]) == Fraction(7, 5)
    assert quadratic_form([[1]], [Fraction(2)]) == 4


def test_quadratic_form_positive_on_nonzero():
    rng = random.Random(14)
    form = [[2, -1, 0], [-1, 5, -1], [0, -1, 2]]
    for _ in range(50):
        v = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
        q = quadratic_form(form, v)
        if any(v):
            assert q > 0
        else:
            assert q == 0


def test_clear_denominators():
    ints, d = clear_denominators([Fraction(1, 2), Fraction(2, 3)])
    assert (ints, d) == ([3, 4], 6)
    assert clear_denominators([]) == ([], 1)
