import copy
import random
from fractions import Fraction

import pytest

from conftest import (
    cofactor_determinant,
    dense_eliminate,
    dense_form,
    dense_scaled_solve,
    factor_state,
    matvec,
    quadratic_form,
)
from singinv.families import chain_graph, smooth_graph
from singinv.graph import ExcDivisor
from singinv.invariants import quadratic_norm
from singinv.linalg import Factor, clear_denominators, solve


def _pairs(rows, rng=None):
    """Each row of a dense matrix as its nonzero pairs (j, a_ij), the
    input of `Factor`; shuffled when an rng is given."""
    out = [[(j, v) for j, v in enumerate(row) if v] for row in rows]
    if rng is not None:
        for row in out:
            rng.shuffle(row)
    return out


def test_determinant_small_cases():
    # the cofactor oracle is the suite's only determinant
    assert cofactor_determinant([]) == 1
    assert cofactor_determinant([[5]]) == 5
    assert cofactor_determinant([[1, 2], [3, 4]]) == -2
    assert cofactor_determinant([[2, -1], [-1, 3]]) == 5
    assert cofactor_determinant([[1, 2], [2, 4]]) == 0


def test_rejects_non_square():
    # a row of pairs has no width to check; what it can get wrong is a
    # negative column, which a list would read from its end
    with pytest.raises(ValueError, match="row 1: negative column index -1"):
        Factor([[(0, 2)], [(-1, 1), (1, 2)]])
    with pytest.raises(ValueError, match="square"):
        solve([[1, 2, 3], [4, 5, 6]], [1, 2])


def test_first_nonpositive_small_cases():
    assert Factor([]).first_nonpositive is None
    assert Factor(_pairs([[2, -1], [-1, 3]])).first_nonpositive is None
    assert Factor(_pairs([[1, 1], [1, 1]])).first_nonpositive == 2
    assert Factor(_pairs([[-1, 0], [0, 2]])).first_nonpositive == 1


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
        assert Factor(_pairs(sym, rng)).first_nonpositive == expected


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
        # A^T A + D with D > 0 diagonal is positive definite
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        rows = [
            [
                sum(a[k][i] * a[k][j] for k in range(n))
                + (rng.randint(1, 4) if i == j else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        det = cofactor_determinant(rows)
        rhs = [rng.randint(-9, 9) for _ in range(n)]
        x = solve(rows, rhs)
        for j in range(n):
            swapped = [row[:j] + [b] + row[j + 1 :] for row, b in zip(rows, rhs)]
            assert x[j] == Fraction(cofactor_determinant(swapped), det)


def test_solve_errors():
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve([[1, 0], [0, 1]], [Fraction(1)])
    # the kernel reads only the lower triangle, so a nonsymmetric matrix
    # would be solved as another one
    with pytest.raises(ValueError, match="not symmetric"):
        solve([[2, 1], [0, 3]], [1, 1])
    with pytest.raises(ValueError, match="not positive definite"):
        solve([[1, 2], [2, 4]], [Fraction(1), Fraction(1)])
    with pytest.raises(ValueError, match="not positive definite"):
        solve([[0, 1], [1, 0]], [Fraction(1), Fraction(2)])


def _norms(graph, v):
    """v^T N v through the library's sparse columns, checked against the
    tests' dense reference."""
    q = quadratic_norm(graph, ExcDivisor.from_values(v))
    assert q == quadratic_form(dense_form(graph), v)
    return q


def test_quadratic_form_values():
    g = chain_graph((2, 3))  # N = [[2, -1], [-1, 3]]
    assert _norms(g, [Fraction(0), Fraction(0)]) == 0
    assert _norms(g, [Fraction(4, 5), Fraction(3, 5)]) == Fraction(7, 5)
    assert _norms(smooth_graph(), [Fraction(2)]) == 4  # N = [[1]]


def test_quadratic_form_positive_on_nonzero():
    rng = random.Random(14)
    g = chain_graph((2, 5, 2))  # N = [[2, -1, 0], [-1, 5, -1], [0, -1, 2]]
    for _ in range(50):
        v = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
        q = _norms(g, v)
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
        factor = Factor(_pairs(rows))
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
        Factor(_pairs([[1, 1], [1, 1]])).scaled_solve([1, 0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        Factor(_pairs([[2, -1], [-1, 3]])).scaled_solve([1])


def _random_symmetric(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-2, 6)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(-2, 2)
    return rows


def _bordered(rows, splits):
    """Factor the leading block of size splits[0], then border it by each
    later split in turn; no border changes an old row or its steps.  Each
    row is passed whole: its pairs past the diagonal are skipped."""
    factor = Factor(_pairs(rows[: splits[0]]))
    for m, n in zip(splits, splits[1:]):
        old = copy.deepcopy((factor._a, factor._lower))
        factor.border(_pairs(rows[m:n]))
        assert (factor._a[:m], factor._lower[:m]) == old
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
    assert bordered._a == Factor(_pairs(rows))._a
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


def test_prefix_then_border_is_a_fresh_factor_at_every_p():
    # a matrix that agrees with another on its leading p x p block: the
    # other's factor cut to p rows and bordered by the rest is the fresh
    # factor, bit for bit, with the first nonpositive minor of the source
    # before p, at p, past p or nowhere, and the source is left as it was
    rng = random.Random(29)
    seen = set()
    for trial in range(80):
        n = 1 + trial % 7
        rows = (_random_stieltjes if trial % 2 else _random_symmetric)(rng, n)
        source = Factor(_pairs(rows))
        before = copy.deepcopy(factor_state(source))
        bad = source.first_nonpositive
        for p in range(n + 1):
            other = _random_symmetric(rng, n)
            for i in range(p):
                other[i][:p] = rows[i][:p]
            factor = source.prefix(p)
            assert factor_state(factor) == factor_state(Factor(_pairs(rows[:p])))
            factor.border(_pairs(other[p:]))
            assert factor_state(factor) == factor_state(Factor(_pairs(other)))
            assert all(mine is theirs for mine, theirs in zip(factor._a[:p], source._a))
            seen.add("none" if bad is None else "before" if bad < p else
                     "at" if bad == p else "past")
        assert factor_state(source) == before
    assert seen == {"none", "before", "at", "past"}


def test_border_finds_a_bad_minor_in_the_new_rows():
    # [[2, -1], [-1, 2]] is positive definite; the border makes the
    # leading 3x3 minor zero and the 4x4 one negative
    rows = [[2, -1, -1, 0], [-1, 2, -1, 0], [-1, -1, 2, 0], [0, 0, 0, -1]]
    factor = Factor(_pairs(rows[:2]))
    assert factor.first_nonpositive is None and factor.det == 3
    factor.border(_pairs(rows[2:]))
    assert factor.first_nonpositive == 3
    _assert_same_factor(factor, rows, _oracle(rows))
    with pytest.raises(ValueError, match="not positive definite"):
        factor.scaled_solve([0, 0, 0, 0])
    # an indefinite factor stays indefinite under further borders
    factor = Factor(_pairs([[1, 2], [2, 1]]))
    factor.border([[(2, 5)]])
    assert factor.first_nonpositive == 2


def test_border_rejects_negative_indices():
    # border takes the new rows only, as pairs; a negative column index in
    # any of them refuses the whole border, and a pair past the diagonal
    # is skipped
    factor = Factor([[(0, 2)]])
    for bad in ([[(-1, 1)]], [[(1, 3), (0, -1)], [(2, 4), (-3, 1)]]):
        with pytest.raises(ValueError, match="negative column index"):
            factor.border(bad)
    assert factor._a == [[2]] and factor.det == 2  # a rejected border changes nothing
    factor.border([[(2, 7), (1, 3), (0, -1)]])
    assert factor._a == [[2], [-1, 5]] and factor.det == 5


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
    bad = dense_eliminate(ref)
    return ref, bad


def _assert_dense(factor, ref, bad, rhs):
    # the dense array is symmetric, and the factor keeps its lower triangle
    assert all(row[j] == ref[j][i] for i, row in enumerate(ref) for j in range(i))
    assert factor._a == [row[: i + 1] for i, row in enumerate(ref)]
    assert factor.first_nonpositive == bad
    if bad is None:
        assert factor.det == (ref[-1][-1] if ref else 1)
        for b in rhs:
            assert factor.scaled_solve(b) == dense_scaled_solve(ref, b)


def _carried(rows, splits, b):
    """Border the empty factor along `splits`, carrying the forward values
    of b across the borders: at every split the array, Sylvester's
    answer, det and the solution are the dense loop's on the leading
    block."""
    factor, forward = Factor([]), []
    for m, k in zip(splits, splits[1:]):
        factor.border(_pairs(rows[m:k]))
        ref, bad = _dense_reference([row[:k] for row in rows[:k]])
        _assert_dense(factor, ref, bad, [])
        if bad is None:
            factor.carry(forward, b[m:k])
            assert factor.back_substitute(forward) == dense_scaled_solve(ref, b[:k])
        else:
            with pytest.raises(ValueError, match="not positive definite"):
                factor.carry(forward, b[m:k])
    return factor


def test_sparse_kernel_matches_dense_reference():
    # chains, forks, random trees and forests in shuffled vertex order,
    # cyclic and dense Stieltjes matrices, and indefinite matrices that
    # stop early: the eliminated array, Sylvester's answer, det and the
    # solve are those of the dense loop, bit for bit, at every border and,
    # with a right-hand side carried across them, at every split
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
        _assert_dense(Factor(_pairs(rows, rng)), ref, bad, rhs)
        for m in range(n + 1):
            _assert_dense(_bordered(rows, [m, n]), ref, bad, rhs)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        _assert_dense(_carried(rows, [0, *cuts, n], rhs[1]), ref, bad, rhs)
    assert {("indefinite tree", False), ("indefinite", False), ("tree", True)} <= seen


def test_carried_solve_checks_the_carried_length():
    # the forward carry and the back substitution each check the length
    factor = Factor(_pairs([[2, -1], [-1, 3]]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        factor.carry([1], [1, 0])
    forward = []
    factor.carry(forward, [1, 0])
    assert factor.back_substitute(forward) == factor.scaled_solve([1, 0])
    factor.border([[(1, -1), (2, 2)]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        factor.back_substitute(forward)  # forward values from before the border
    factor.carry(forward, [0])
    assert factor.back_substitute(forward) == factor.scaled_solve([1, 0, 0])


def _upper_closure(ref, asked):
    """`asked` and every row the back substitution of the dense array
    `ref` reads from them: j for each nonzero ref[i][j], j > i."""
    n = len(ref)
    reach, todo = set(asked), list(asked)
    while todo:
        i = todo.pop()
        for j in range(i + 1, n):
            if ref[i][j] and j not in reach:
                reach.add(j)
                todo.append(j)
    return reach


def _assert_restricted(factor, forward, ref, b, rng):
    """A back substitution limited to random rows gives the dense solve's
    entries at exactly the rows those reach, and completing it gives the
    dense solve."""
    n = len(ref)
    want = dense_scaled_solve(ref, b)
    for size in sorted({0, 1, n // 2, n}):
        asked = rng.sample(range(n), size)
        y = factor.back_substitute(forward, asked)
        computed = {i for i, t in enumerate(y) if t is not None}
        assert computed == _upper_closure(ref, asked)
        assert all(y[i] == want[i] for i in computed)
        assert factor.back_substitute(forward, None, y) == want


def test_restricted_back_substitution_matches_dense_reference():
    # random symmetric and Stieltjes matrices, factored whole, bordered at
    # every split and bordered one row at a time with the right-hand side
    # carried along: wherever the leading block is positive definite, the
    # restricted solve is the dense one at the rows it reaches
    rng = random.Random(19)
    checked = 0
    for trial in range(60):
        n = 1 + trial % 8
        rows = (_random_stieltjes if trial % 2 else _random_symmetric)(rng, n)
        b = [rng.randint(-9, 9) for _ in range(n)]
        ref, bad = _dense_reference(rows)
        if bad is None:
            for m in range(n + 1):
                factor, forward = _bordered(rows, [m, n]), []
                factor.carry(forward, b)
                _assert_restricted(factor, forward, ref, b, rng)
                checked += 1
        factor, forward = Factor([]), []
        for k in range(1, n + 1):
            factor.border(_pairs(rows[k - 1 : k]))
            lead, bad = _dense_reference([row[:k] for row in rows[:k]])
            if bad is not None:
                break
            factor.carry(forward, b[k - 1 : k])
            _assert_restricted(factor, forward, lead, b[:k], rng)
            checked += 1
    assert checked > 150
