import copy
import random
import re
from fractions import Fraction

import pytest

from conftest import (
    GRAPH_KINDS,
    base_graphs,
    cofactor_determinant,
    dense_form,
    dense_graph_shape,
    factor_state,
    matvec,
    random_chain_weights,
    random_graph,
)
from singinv.classify import ShapeKind, graph_shape
from singinv.families import chain_graph, rdp_family, smooth_graph
from singinv.graph import (
    DisconnectedGraphError,
    DualGraph,
    Edge,
    ExcDivisor,
    GraphValidationError,
    IllegalWeightError,
    NotNegativeDefiniteError,
    Vertex,
    build_graph,
    canonical_degree,
    intersection_matrix,
    solve_exceptional,
    validate,
)
from singinv.invariants import Analysis, analyze
from singinv.linalg import Factor


def test_intersection_matrix_single_vertex():
    g = build_graph([("E1", 2)])
    assert intersection_matrix(g).entries == ((-2,),)


def test_intersection_matrix_chain():
    g = chain_graph((2, 3))
    m = intersection_matrix(g)
    assert m.entries == ((-2, 1), (1, -3))
    assert m.positive_form == ((2, -1), (-1, 3))
    assert cofactor_determinant(m.positive_form) == 5
    assert m.positive_form == tuple(map(tuple, dense_form(g)))


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
    # exact ints only: a Fraction weight would reach the kernel's floor
    # divisions (delta_y 7/6 for the first pair), a float would raise
    # TypeError there, and nothing is truncated to an int
    not_ints = (Fraction(5, 2), Fraction(3), 4.0, 2.7, True, "3", None)
    for bad in not_ints:
        with pytest.raises(GraphValidationError, match=r"vertex 'E1': weight .* got"):
            build_graph([("E1", bad), ("E2", 3)], [("E1", "E2")])
        with pytest.raises(GraphValidationError, match=r"vertex 'E2': genus .* got"):
            build_graph([("E1", 2), ("E2", 3, bad)], [("E1", "E2")])
        with pytest.raises(GraphValidationError, match=r"vertex 'E1': weight .* got"):
            chain_graph([bad, 3])
    for bad in (*not_ints, 1.5, False):
        with pytest.raises(
            GraphValidationError, match=r"edge \('E1', 'E2'\): multiplicity .* got"
        ):
            build_graph([("E1", 3), ("E2", 3)], [("E1", "E2", bad)])
    with pytest.raises(GraphValidationError, match="genus"):
        build_graph([("E1", 2, -1)])
    with pytest.raises(GraphValidationError, match="multiplicity"):
        build_graph([("E1", 3), ("E2", 3)], [("E1", "E2", 0)])


def test_validate_accepts_simple_graphs():
    validate(build_graph([("E1", 2)]))
    validate(smooth_graph())
    validate(chain_graph((2, 3)))


def test_validate_rejects_disconnected():
    g = build_graph([("E1", 2), ("E2", 2)])
    with pytest.raises(DisconnectedGraphError):
        validate(g)


def _connected_by_union_find(graph):
    parent = list(range(graph.n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for e in graph.edges:
        parent[root(graph.index[e.a])] = root(graph.index[e.b])
    return len({root(i) for i in range(graph.n)}) == 1


def _rewritten(graph, rng, prefix=""):
    """The same curves under renamed ids, in shuffled vertex and edge
    order, with some edges split into unit entries (either way round)
    and some doubled by an extra parallel entry, which changes N."""
    name = {v.id: prefix + v.id for v in graph.vertices}
    vertices = [Vertex(name[v.id], v.weight, v.genus) for v in graph.vertices]
    edges = []
    for e in graph.edges:
        a, b = name[e.a], name[e.b]
        roll = rng.random()
        if roll < 0.3:
            edges += [Edge(*rng.sample((a, b), 2)) for _ in range(e.multiplicity)]
        else:
            edges.append(Edge(a, b, e.multiplicity))
            if roll > 0.9:
                edges.append(Edge(b, a))
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return vertices, edges


def _edge_structure_inputs():
    rng = random.Random(71)
    for kind in GRAPH_KINDS:
        for n in range(1, 13):
            g = random_graph(rng, kind, n)
            yield g
            yield DualGraph(*map(tuple, _rewritten(g, rng)))
    # disconnected: two or three components, built but never validated
    for _ in range(60):
        vertices, edges = [], []
        for k in range(rng.randint(2, 3)):
            part = random_graph(rng, rng.choice(GRAPH_KINDS), rng.randint(1, 6))
            vs, es = _rewritten(part, rng, prefix=f"c{k}.")
            vertices += vs
            edges += es
        rng.shuffle(vertices)
        yield build_graph(vertices, edges)


def test_edge_derived_structure_matches_dense_form():
    # the off-diagonal nonzeros summed in one walk of the edge list, the
    # columns and the intersection matrix spread from them, connectivity
    # by a walk over them, and graph_shape's multiple-edge test, each
    # against N summed from the edges by the tests or the edges read
    # independently
    disconnected = 0
    for g in _edge_structure_inputs():
        form = dense_form(g)
        for i in range(g.n):
            nonzeros = {(j, c) for j, c in enumerate(form[i]) if c and j != i}
            assert len(g.off_diagonal[i]) == len(nonzeros)
            assert set(g.off_diagonal[i]) == nonzeros
            assert g.columns[i] == ((i, form[i][i]), *g.off_diagonal[i])
        assert intersection_matrix(g).positive_form == tuple(map(tuple, form))
        connected = _connected_by_union_find(g)
        assert g.connected is connected
        if connected:
            assert graph_shape(g) == dense_graph_shape(g)
            continue
        # the reference assumes a connected graph: it can pass a path
        # plus a cycle as a chain, or fail to find a second chain end
        disconnected += 1
        with pytest.raises(DisconnectedGraphError):
            validate(g)
        unsupported = any(v.genus for v in g.vertices) or min(map(min, form)) < -1
        expected = ShapeKind.UNSUPPORTED if unsupported else ShapeKind.OTHER
        assert graph_shape(g).kind is expected
    assert disconnected == 60


WEIGHT_FREE = ("index", "off_diagonal", "off_sums", "connected", "branches")
WEIGHTED = {"canonical", "columns", "factor", "canonical_forward"}


def _outcome(graph):
    """What validate + analyze and graph_shape make of a graph: each
    result, or the class and message of the ValueError it raises."""

    def analysis(graph):
        validate(graph)
        return analyze(graph)

    out = []
    for step in (analysis, graph_shape):
        try:
            out.append(step(graph))
        except ValueError as exc:
            out.append((type(exc), str(exc)))
    return out


def test_reweighted_equals_a_fresh_build(monkeypatch):
    # the same graph under new weights, built either way, over trees,
    # cyclic, multi-edge, genus > 0 and ADE graphs, each reweighted from
    # the one before as a sweep does.  A graph equals a fresh build view
    # for view, and holds its vertex count n from the start.  It shares
    # the weight-free views its source has computed, and of the weighted
    # views only what precedes p, the first changed weight: the
    # vertices, the canonical degrees, the columns of N, the factor's
    # rows and the canonical forward values, and only if the source has
    # computed them; it computes the canonical degrees only from p on,
    # and forward-eliminates them only onto a definite factor.  No source
    # is written to
    import singinv.graph as graph_module

    carried, computed = [], []
    real_carry = Factor.carry
    real_degrees = graph_module.canonical_degrees

    def carry(factor, forward, b):
        b = list(b)
        carried.append(len(b))
        return real_carry(factor, forward, b)

    def degrees(graph, start=0):
        computed.append((start, graph.n - start))
        return real_degrees(graph, start)

    monkeypatch.setattr(Factor, "carry", carry)
    monkeypatch.setattr(graph_module, "canonical_degrees", degrees)
    rng = random.Random(83)
    sources = [g for _, g in rdp_family()]
    sources += [random_graph(rng, kind, n) for kind in GRAPH_KINDS for n in range(1, 9)]
    seen = set()
    for g in sources:
        source = DualGraph(g.vertices, g.edges)
        bare = source.reweighted(range(1, g.n + 1))
        assert bare.__dict__.keys() == {"vertices", "edges", "n"} and bare.n == g.n
        source.branches
        assert not source.reweighted(range(1, g.n + 1)).__dict__.keys() & WEIGHTED
        for view in (*WEIGHT_FREE, *WEIGHTED):
            getattr(source, view)
        index, before = dict(source.index), copy.deepcopy(factor_state(source.factor))
        graph = source
        for _ in range(8):
            p = rng.randint(0, g.n - 1)
            weights = [v.weight for v in graph.vertices[:p]]
            weights += [rng.randint(1, 2 + len(nbrs)) for nbrs in source.off_diagonal[p:]]
            p = next((j for j, v in enumerate(graph.vertices) if v.weight != weights[j]), g.n)
            carried.clear()
            computed.clear()
            prev, graph = graph, graph.reweighted(weights)
            assert computed == [(p, g.n - p)]
            fresh = build_graph(
                [(v.id, w, v.genus) for v, w in zip(g.vertices, weights)], g.edges
            )
            assert graph == fresh and graph.n == fresh.n == g.n
            for view in WEIGHT_FREE:
                assert graph.__dict__[view] is source.__dict__[view]
            definite = fresh.factor.first_nonpositive is None
            forward = "canonical_forward" in prev.__dict__ and definite
            held = WEIGHTED if forward else WEIGHTED - {"canonical_forward"}
            assert graph.__dict__.keys() & WEIGHTED == held
            assert carried == ([g.n - p] if forward else [])
            assert graph.off_sums == fresh.off_sums
            assert graph.canonical == tuple(real_degrees(fresh))
            assert graph.canonical[:p] == prev.canonical[:p]
            assert graph.columns == fresh.columns
            assert factor_state(graph.factor) == factor_state(fresh.factor)
            for mine, theirs in ((graph.vertices, prev.vertices), (graph.columns, prev.columns),
                                 (graph.factor._a, prev.factor._a)):
                assert all(x is y for x, y in zip(mine[:p], theirs[:p]))
                assert not any(x is y for x, y in zip(mine[p:], theirs[p:]))
            if forward:
                mine, theirs = graph.canonical_forward, prev.canonical_forward
                assert mine[:p] == theirs[:p]
                assert all(x is y for x, y in zip(mine[:p], theirs[:p]))
            if definite:
                seen.add("carried" if forward else "fresh forward")
                assert graph.canonical_forward == fresh.canonical_forward
            outcome = _outcome(graph)
            assert outcome == _outcome(fresh)
            seen.add("valid" if isinstance(outcome[0], Analysis) else outcome[0][0])
        assert source.index == index
        assert factor_state(source.factor) == before
    assert seen == {
        "valid",
        NotNegativeDefiniteError,
        IllegalWeightError,
        "carried",
        "fresh forward",
    }
    with pytest.raises(ValueError, match="2 weights for 3 vertices"):
        chain_graph((2, 2, 2)).reweighted((2, 2))


def test_reweighted_checks_the_weights_as_a_fresh_build():
    # a weight equal to the old one but not an int is a change, refused
    # as `__init__` refuses it, even before the first real change
    source = chain_graph((1, 2, 3))
    source.factor
    for weights in ((1, 2.0, 3), (True, 2, 3), (1, 2, Fraction(3)), (1, 0, 3)):
        with pytest.raises(GraphValidationError) as fresh:
            build_graph([(f"E{j + 1}", w) for j, w in enumerate(weights)])
        with pytest.raises(GraphValidationError, match=re.escape(str(fresh.value))):
            source.reweighted(weights)


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


def test_exc_divisor_refuses_inexact_values():
    # a float would become its binary expansion, silently; a bool is no
    # coefficient
    for bad in (0.1, 2.0, True):
        with pytest.raises(ValueError, match=f"divisor coefficient must be exact .*got {bad!r}"):
            ExcDivisor.from_values([1, bad])
    assert ExcDivisor.from_values([1, Fraction(1, 10), "1/10"]).coeffs == (
        1, Fraction(1, 10), Fraction(1, 10)
    )


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
