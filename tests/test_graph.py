import random
from fractions import Fraction

import pytest

from conftest import base_graphs, cofactor_determinant, random_chain_weights
from singinv.families import chain_graph, rdp_family, smooth_graph
from singinv.graph import (
    DisconnectedGraphError,
    ExcDivisor,
    GraphValidationError,
    IllegalWeightError,
    NotNegativeDefiniteError,
    build_graph,
    canonical_degree,
    intersection_matrix,
    solve_exceptional,
    validate,
)
from singinv.linalg import matvec


def test_intersection_matrix_single_vertex():
    g = build_graph([("E1", 2)])
    assert intersection_matrix(g).entries == ((-2,),)


def test_intersection_matrix_chain():
    g = chain_graph((2, 3))
    m = intersection_matrix(g)
    assert m.entries == ((-2, 1), (1, -3))
    assert m.positive_form == ((2, -1), (-1, 3))
    assert cofactor_determinant(m.positive_form) == 5
    assert g.positive_form == m.positive_form


def test_intersection_matrix_edge_multiplicity():
    g = build_graph([("a", 3), ("b", 3)], [("a", "b", 2)])
    assert intersection_matrix(g).entries == ((-3, 2), (2, -3))


def test_structural_errors():
    with pytest.raises(GraphValidationError, match="duplicate vertex id"):
        build_graph([("E1", 2), ("E1", 3)])
    with pytest.raises(GraphValidationError, match="unknown vertex id"):
        build_graph([("E1", 2)], [("E1", "E9")])
    with pytest.raises(GraphValidationError, match="self-loop"):
        build_graph([("E1", 2)], [("E1", "E1")])
    with pytest.raises(GraphValidationError, match="weight"):
        build_graph([("E1", 0)])
    with pytest.raises(GraphValidationError, match="no vertices"):
        build_graph([])


def test_validate_accepts_simple_graphs():
    validate(build_graph([("E1", 2)]))
    validate(smooth_graph())
    validate(chain_graph((2, 3)))


def test_validate_rejects_disconnected():
    g = build_graph([("E1", 2), ("E2", 2)])
    with pytest.raises(DisconnectedGraphError):
        validate(g)


def test_validate_rejects_degenerate_pair():
    # two (-1)-curves meeting once: det N = 1*1 - 1 = 0
    g = build_graph([("E1", 1), ("E2", 1)], [("E1", "E2")])
    with pytest.raises(NotNegativeDefiniteError) as excinfo:
        validate(g)
    assert excinfo.value.minor_index == 2


def test_validate_rejects_double_edge_pair():
    g = build_graph([("E1", 2), ("E2", 2)], [("E1", "E2", 2)])
    with pytest.raises(NotNegativeDefiniteError):
        validate(g)


def test_validate_rejects_weight2_cycle():
    g = build_graph(
        [("a", 2), ("b", 2), ("c", 2)],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    with pytest.raises(NotNegativeDefiniteError):
        validate(g)


def test_validate_rejects_stray_minus_one_curve():
    g = chain_graph((1, 2))
    with pytest.raises(IllegalWeightError):
        validate(g)


def test_validate_accepts_rdp_family():
    for _, g in rdp_family():
        validate(g)


def test_canonical_degree():
    assert canonical_degree(build_graph([("E1", 2)]), 0) == 0
    assert canonical_degree(smooth_graph(), 0) == -1
    assert canonical_degree(build_graph([("E1", 3)]), 0) == 1
    assert canonical_degree(build_graph([("E1", 2, 1)]), 0) == 2
    with pytest.raises(IndexError):
        canonical_degree(smooth_graph(), 1)


def test_solve_exceptional_examples():
    g1 = build_graph([("E1", 2)])
    assert solve_exceptional(g1, [0]).coeffs == (Fraction(0),)
    assert solve_exceptional(g1, [1]).coeffs == (Fraction(1, 2),)
    g2 = chain_graph((2, 3))
    assert solve_exceptional(g2, [1, 0]).coeffs == (Fraction(3, 5), Fraction(1, 5))
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_exceptional(g2, [1])


def test_solve_exceptional_roundtrip_and_positivity():
    rng = random.Random(21)
    graphs = [g for _, g in base_graphs()]
    graphs += [chain_graph(random_chain_weights(rng, 8, 7)) for _ in range(10)]
    for g in graphs:
        form = intersection_matrix(g).positive_form
        for _ in range(5):
            rhs = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(g.n)]
            x = solve_exceptional(g, rhs)
            assert matvec(form, x.coeffs) == rhs
            assert x.is_effective()


def test_exc_divisor_arithmetic():
    a = ExcDivisor.from_values([1, "1/2"])
    b = ExcDivisor.from_values(["1/3", 0])
    assert (a + b).coeffs == (Fraction(4, 3), Fraction(1, 2))
    assert (a - b).coeffs == (Fraction(2, 3), Fraction(1, 2))
    assert a.is_effective() and not (b - a).is_effective()
    assert ExcDivisor.zero(2).is_zero()
    assert a.is_integral() is False
    with pytest.raises(ValueError, match="dimension mismatch"):
        a + ExcDivisor.zero(3)
