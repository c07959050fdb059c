import random
from fractions import Fraction

import pytest

from conftest import cofactor_determinant, dense_eliminate, dense_scaled_solve
from singinv.linalg import (
    Factor,
    _eliminate,
    clear_denominators,
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
        Factor([[1, 2, 3], [4, 5, 6]]).first_nonpositive
    with pytest.raises(ValueError, match="square"):
        solve([[1, 2, 3], [4, 5, 6]], [1, 2])


def test_first_nonpositive_small_cases():
    assert Factor([]).first_nonpositive is None
    assert Factor([[2, -1], [-1, 3]]).first_nonpositive is None
    assert Factor([[1, 1], [1, 1]]).first_nonpositive == 2
    assert Factor([[-1, 0], [0, 2]]).first_nonpositive == 1


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
        assert Factor(sym).first_nonpositive == expected


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


def _random_stieltjes(rng, n):
    """Symmetric, off-diagonal entries <= 0, strictly diagonally dominant."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                rows[i][j] = rows[j][i] = -rng.randint(1, 3)
    for i in range(n):
        rows[i][i] = -sum(rows[i]) + rng.randint(1, 3)
    return rows


def test_factor_replay_matches_cramer():
    rng = random.Random(16)
    for trial in range(54):
        n = trial % 9
        rows = _random_stieltjes(rng, n)
        factor = Factor(rows)
        assert factor.first_nonpositive is None
        det = cofactor_determinant(rows)
        assert factor.det == det
        for rhs in (
            [0] * n,
            [rng.randint(-9, 9) for _ in range(n)],
            [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)],
        ):
            ints, d = clear_denominators(rhs)
            y = factor.scaled_solve(ints)
            assert all(isinstance(v, int) for v in y)
            for j in range(n):
                swapped = [row[:j] + [b] + row[j + 1 :] for row, b in zip(rows, rhs)]
                cramer = Fraction(cofactor_determinant(swapped), det)
                assert Fraction(y[j], det * d) == cramer


def test_factor_refuses_to_solve_indefinite_or_mismatched():
    with pytest.raises(ValueError, match="not positive definite"):
        Factor([[1, 1], [1, 1]]).scaled_solve([1, 0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        Factor([[2, -1], [-1, 3]]).scaled_solve([1])


def _random_symmetric(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-2, 6)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(-2, 2)
    return rows


def _bordered(rows, splits):
    """Factor the leading block of size splits[0], then border it by each
    later split in turn."""
    factor = Factor([row[: splits[0]] for row in rows[: splits[0]]])
    for m, n in zip(splits, splits[1:]):
        factor.border(
            [row[m:n] for row in rows[:m]], [row[:n] for row in rows[m:n]]
        )
    return factor


def _oracle(rows):
    """(first nonpositive leading minor, det, det * N^-1 b) by cofactors."""
    n = len(rows)
    minors = [cofactor_determinant([r[:k] for r in rows[:k]]) for k in range(1, n + 1)]
    bad = next((k for k, m in enumerate(minors, start=1) if m <= 0), None)
    if bad is not None:
        return bad, None, None
    b = [(3 * j + 1) % 7 - 3 for j in range(n)]
    cramer = [
        cofactor_determinant([row[:j] + [v] + row[j + 1 :] for row, v in zip(rows, b)])
        for j in range(n)
    ]
    return None, cofactor_determinant(rows), cramer


def _assert_same_factor(bordered, rows, oracle):
    assert bordered._a == Factor(rows)._a
    bad, det, cramer = oracle
    assert bordered.first_nonpositive == bad
    if bad is None:
        assert bordered.det == det
        assert bordered.scaled_solve([(3 * j + 1) % 7 - 3 for j in range(len(rows))]) == cramer


def test_border_matches_fresh_factor_at_every_split():
    rng = random.Random(17)
    for trial in range(60):
        n = 1 + trial % 7
        rows = (_random_stieltjes if trial % 2 else _random_symmetric)(rng, n)
        oracle = _oracle(rows)
        for m in range(n + 1):
            _assert_same_factor(_bordered(rows, [m, n]), rows, oracle)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        _assert_same_factor(_bordered(rows, [0, *cuts, n]), rows, oracle)


def test_border_finds_a_bad_minor_in_the_new_rows():
    # [[2, -1], [-1, 2]] is positive definite; the border makes the
    # leading 3x3 minor zero and the 4x4 one negative
    rows = [[2, -1, -1, 0], [-1, 2, -1, 0], [-1, -1, 2, 0], [0, 0, 0, -1]]
    factor = Factor([row[:2] for row in rows[:2]])
    assert factor.first_nonpositive is None and factor.det == 3
    factor.border([row[2:] for row in rows[:2]], rows[2:])
    assert factor.first_nonpositive == 3
    _assert_same_factor(factor, rows, _oracle(rows))
    with pytest.raises(ValueError, match="not positive definite"):
        factor.scaled_solve([0, 0, 0, 0])
    # an indefinite factor stays indefinite under further borders
    factor = Factor([[1, 2], [2, 1]])
    factor.border([[0], [0]], [[0, 0, 5]])
    assert factor.first_nonpositive == 2


def test_border_rejects_ragged_blocks():
    factor = Factor([[2]])
    with pytest.raises(ValueError, match="square"):
        factor.border([[1, 0]], [[1, 3]])
    with pytest.raises(ValueError, match="square"):
        factor.border([], [[1, 3]])


def _tree_form(rng, n, shape, *, definite=True):
    """Positive form of a weighted tree (chain, three-armed fork or random
    tree) in vertex order; weights at least the degree, one strictly
    above, so N is positive definite.  With `definite` False, random
    weights are lowered to at most the degree, which usually breaks it."""
    if shape == "chain":
        edges = [(k - 1, k) for k in range(1, n)]
    elif shape == "fork":
        edges = [(0 if k <= 3 else k - 3, k) for k in range(1, n)]  # three arms
    else:
        edges = [(rng.randrange(k), k) for k in range(1, n)]
    degree = [0] * n
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    big = rng.random() < 0.3
    weights = [
        d + (rng.randint(0, 10**6) if big else rng.choice((0, 0, 1, 2))) for d in degree
    ]
    weights[rng.randrange(n)] += 1
    if not definite:
        for j in rng.sample(range(n), rng.randint(1, max(1, n // 3))):
            weights[j] = rng.randint(0, degree[j])
    rows = [[0] * n for _ in range(n)]
    for j, w in enumerate(weights):
        rows[j][j] = w
    for i, j in edges:
        rows[i][j] = rows[j][i] = -1
    return rows


def _principal(rows, order):
    return [[rows[i][j] for j in order] for i in order]


def _sparse_kernel_cases(rng):
    """(label, symmetric matrix) for the sparse-kernel property test."""
    for trial in range(240):
        n = 1 + trial % 14
        kind = trial % 8
        if kind == 0:
            yield "chain", _tree_form(rng, n, "chain")
        elif kind == 1:
            order = rng.sample(range(n), n)
            yield "fork", _principal(_tree_form(rng, n, "fork"), order)
        elif kind == 2:
            order = rng.sample(range(n), n)
            yield "tree", _principal(_tree_form(rng, n, "tree"), order)
        elif kind == 3:
            big = _tree_form(rng, n + 4, rng.choice(("chain", "fork", "tree")))
            yield "forest", _principal(big, rng.sample(range(n + 4), n))
        elif kind == 4:
            yield "stieltjes", _random_stieltjes(rng, n)
        elif kind == 5:
            rows = [[-rng.randint(1, 3) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    rows[i][j] = rows[j][i]
                rows[i][i] = 0
                rows[i][i] = -sum(rows[i]) + rng.randint(1, 3)
            yield "dense", rows
        elif kind == 6:
            shape = rng.choice(("chain", "fork", "tree"))
            order = rng.sample(range(n), n) if shape != "chain" else range(n)
            yield "indefinite tree", _principal(_tree_form(rng, n, shape, definite=False), order)
        else:
            yield "indefinite", _random_symmetric(rng, n)


def _dense_reference(rows):
    ref = [list(row) for row in rows]
    bad = dense_eliminate(ref, len(ref), exchange=False)
    return ref, bad


def _assert_dense(factor, ref, bad, rhs):
    assert factor._a == ref
    assert factor.first_nonpositive == bad
    if bad is None:
        assert factor.det == (ref[-1][-1] if ref else 1)
        for b in rhs:
            assert factor.scaled_solve(b) == dense_scaled_solve(ref, b)


def test_sparse_kernel_matches_dense_reference():
    # chains, forks, random trees and forests in shuffled vertex order,
    # cyclic and dense Stieltjes matrices, and indefinite matrices that
    # stop early: the eliminated array, Sylvester's answer, det and the
    # replay are those of the dense loop, bit for bit, at every border
    rng = random.Random(18)
    seen = set()
    for label, rows in _sparse_kernel_cases(rng):
        n = len(rows)
        ref, bad = _dense_reference(rows)
        seen.add((label, bad is None))
        rhs = [
            [rng.randint(-9, 9) for _ in range(n)],
            [rng.choice((0, 0, 0, rng.randint(-10**6, 10**6))) for _ in range(n)],
        ]
        _assert_dense(Factor(rows), ref, bad, rhs)
        for m in range(n + 1):
            _assert_dense(_bordered(rows, [m, n]), ref, bad, rhs)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        _assert_dense(_bordered(rows, [0, *cuts, n]), ref, bad, rhs)
    assert {("indefinite tree", False), ("indefinite", False), ("tree", True)} <= seen


def test_sparse_kernel_row_exchanges_match_dense_and_cramer():
    # rows of sparse and dense matrices shuffled, so zero pivots force
    # exchanges between rows that skipped different numbers of steps
    rng = random.Random(19)
    exchanged = 0
    for trial in range(200):
        n = 1 + trial % 7
        shape = ("chain", "fork", "tree")[trial % 3]
        rows = _tree_form(rng, n, shape) if trial % 4 else _random_symmetric(rng, n)
        rows = [rows[i] for i in rng.sample(range(n), n)]
        rhs = [rng.randint(-9, 9) for _ in range(n)]
        aug = [row + [b] for row, b in zip(rows, rhs)]
        ref = [list(row) for row in aug]
        expected = dense_eliminate(ref, n, exchange=True)
        assert _eliminate(aug, n, exchange=True) == expected
        assert aug == ref
        det = cofactor_determinant(rows)
        exchanged += any(rows[k][k] == 0 for k in range(n)) and det != 0
        if det == 0:
            with pytest.raises(ValueError, match="singular"):
                solve(rows, rhs)
            continue
        x = solve(rows, rhs)
        for j in range(n):
            swapped = [row[:j] + [b] + row[j + 1 :] for row, b in zip(rows, rhs)]
            assert x[j] == Fraction(cofactor_determinant(swapped), det)
    assert exchanged > 50
