import copy
import random
import re
from fractions import Fraction

import pytest

from conftest import (
    GRAPH_KINDS,
    base_graphs,
    canonical_degrees,
    cofactor_determinant,
    dense_form,
    dense_graph_shape,
    dense_laufer,
    factor_state,
    matvec,
    random_chain_weights,
    random_graph,
)
from singinv.classify import ShapeKind, SingularityKind, graph_shape, singularity_kind
from singinv.cycles import (
    arithmetic_genus,
    canonical_cycle,
    exceptional_pullback,
    fundamental_cycle,
)
from singinv import families
from singinv.families import ade_graph, chain_graph, chain_sweep, rdp_family, smooth_graph
from singinv.graph import (
    DisconnectedGraphError,
    DualGraph,
    Edge,
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
    assert m.entries == ((-2, 1), (1, -3)) and m.n == 2
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
    # the columns of N summed in one walk of the edge list, each its
    # diagonal and then its off-diagonal nonzeros, the intersection
    # matrix spread from them, connectivity
    # by a walk over them, and graph_shape's multiple-edge test, each
    # against N summed from the edges by the tests or the edges read
    # independently
    disconnected = 0
    for g in _edge_structure_inputs():
        form = dense_form(g)
        for i in range(g.n):
            nonzeros = {(j, c) for j, c in enumerate(form[i]) if c and j != i}
            assert g.columns[i][0] == (i, form[i][i])
            assert len(g.columns[i]) - 1 == len(nonzeros)
            assert set(g.columns[i][1:]) == nonzeros
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


WEIGHT_FREE = ("index", "connected", "branches", "has_genus")
# what a graph holds from construction on: its fields, n and every view
# that costs O(n + m); only the factor and what reads it wait
BUILT = {"vertices", "edges", "n", *WEIGHT_FREE, "columns", "column_sums", "canonical"}


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


def _definite(graph):
    return graph.factor.first_nonpositive is None


def test_reweighted_equals_a_fresh_build(monkeypatch):
    # the same graph under new weights, built either way, over trees,
    # cyclic, multi-edge, genus > 0 and ADE graphs, each reweighted from
    # the one before as a sweep does.  A new graph checks every weight
    # and holds n and its seven O(n + m) views from construction, and
    # neither the factor nor the canonical forward values until one is
    # read.  A reweighted graph equals a fresh build view for view.  It
    # shares the source's weight-free views, and of the weighted views
    # what precedes p, the first changed weight: the vertices, the
    # canonical degrees, the columns of N and the factor's rows,
    # eliminating the source first if it has not been; it checks the
    # weights only from p on.  It always holds its factor, and its
    # canonical forward values exactly when that factor and the
    # source's are both definite: the source's first p with n - p
    # carried.  Otherwise they are carried whole on their first read.
    # No source is written to
    import singinv.graph as graph_module

    carried, checked = [], []
    real_carry = Factor.carry
    real_check = graph_module._check_weight

    def carry(factor, forward, b):
        b = list(b)
        carried.append(len(b))
        return real_carry(factor, forward, b)

    def check(vid, weight):
        checked.append(vid)
        return real_check(vid, weight)

    monkeypatch.setattr(Factor, "carry", carry)
    monkeypatch.setattr(graph_module, "_check_weight", check)
    rng = random.Random(83)
    sources = [g for _, g in rdp_family()]
    sources += [random_graph(rng, kind, n) for kind in GRAPH_KINDS for n in range(1, 9)]
    seen = set()
    for g in sources:
        checked.clear()
        source = DualGraph(g.vertices, g.edges)
        assert source.__dict__.keys() == BUILT and source.n == g.n
        assert checked == [v.id for v in g.vertices]
        index = dict(source.index)
        before = copy.deepcopy(factor_state(Factor(source.columns)))
        graph = source
        for _ in range(8):
            p = rng.randint(0, g.n - 1)
            weights = [v.weight for v in graph.vertices[:p]]
            weights += [rng.randint(1, 1 + len(column)) for column in source.columns[p:]]
            p = next((j for j, v in enumerate(graph.vertices) if v.weight != weights[j]), g.n)
            carried.clear()
            checked.clear()
            prev, graph = graph, graph.reweighted(weights)
            assert checked == [v.id for v in g.vertices[p:]]
            fresh = build_graph(
                [(v.id, w, v.genus) for v, w in zip(g.vertices, weights)], g.edges
            )
            assert fresh.__dict__.keys() == BUILT
            assert graph == fresh and graph.n == fresh.n == g.n
            for view in WEIGHT_FREE:
                assert graph.__dict__[view] is source.__dict__[view]
            definite, forward = _definite(fresh), _definite(prev)
            lazy = {"factor", "canonical_forward"} if definite and forward else {"factor"}
            assert graph.__dict__.keys() == BUILT | lazy
            expected = [g.n - p] if definite and forward else []
            if prev is source and forward and definite:
                expected = [g.n, *expected]  # the source's own, read on the way
            assert carried == expected
            assert graph.column_sums == fresh.column_sums
            assert graph.column_sums[:p] == prev.column_sums[:p]
            assert graph.has_genus is fresh.has_genus
            assert graph.canonical == tuple(canonical_degrees(fresh))
            assert graph.canonical[:p] == prev.canonical[:p]
            assert graph.columns == fresh.columns
            assert factor_state(graph.factor) == factor_state(fresh.factor)
            for mine, theirs in ((graph.vertices, prev.vertices), (graph.columns, prev.columns),
                                 (graph.factor._a, prev.factor._a)):
                assert all(x is y for x, y in zip(mine[:p], theirs[:p]))
                assert not any(x is y for x, y in zip(mine[p:], theirs[p:]))
            if definite and forward:
                mine, theirs = graph.canonical_forward, prev.canonical_forward
                assert mine[:p] == theirs[:p]
                assert all(x is y for x, y in zip(mine[:p], theirs[:p]))
            if definite:
                seen.add("carried" if forward else "fresh forward")
                carried.clear()
                mine = graph.canonical_forward
                assert carried == ([] if forward else [g.n])  # carried whole on first read
                assert mine == fresh.canonical_forward
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


def test_has_genus_and_column_sums_are_the_scan_and_the_dense_row_sums():
    # on the corpus and on random graphs of every kind, each then
    # reweighted from the one before with weights down to 1: has_genus is
    # the scan of every genus and column_sums the row sums of the dense
    # positive form; a reweighted graph holds its source's has_genus and
    # its first p column sums
    def check(graph):
        assert graph.has_genus is any(v.genus for v in graph.vertices)
        assert graph.column_sums == tuple(map(sum, intersection_matrix(graph).positive_form))

    rng = random.Random(47)
    graphs = [g for _, g in base_graphs()]
    graphs += [random_graph(rng, kind, n) for kind in GRAPH_KINDS for n in range(1, 9)]
    for graph in graphs:
        check(graph)
        for _ in range(3):
            p = rng.randint(0, graph.n - 1)
            weights = [v.weight for v in graph.vertices[:p]]
            weights += [rng.randint(1, 6) for _ in range(graph.n - p)]
            prev, graph = graph, graph.reweighted(weights)
            assert graph.has_genus is prev.has_genus
            assert graph.column_sums[:p] == prev.column_sums[:p]
            check(graph)
    assert {g.has_genus for g in graphs} == {False, True}


def test_a_sweep_drawn_whole_shares_as_much_as_a_streamed_one(monkeypatch):
    # validate + analyze over every chain of length 1 to 4 with weights
    # 2 to 4 append as many rows to factors when the sweep is drawn whole
    # first as when each chain is analyzed as it is drawn: each chain is
    # eliminated from its first changed weight on either way, where a
    # fresh build per chain eliminates every row.  Every chain drawn
    # holds its factor and equals a fresh build
    appended = []
    real_border = Factor.border

    def border(factor, rows):
        rows = list(rows)
        appended[-1] += len(rows)
        return real_border(factor, rows)

    monkeypatch.setattr(Factor, "border", border)

    def analyzed(sweep):
        for _, graph in sweep:
            validate(graph)
            analyze(graph)
            yield graph

    graphs = {}
    for way in ("streamed", "drawn whole", "fresh"):
        appended.append(0)
        if way == "fresh":
            sweep = [(w, build_graph([(f"E{j + 1}", x) for j, x in enumerate(w)],
                                     [(f"E{j}", f"E{j + 1}") for j in range(1, len(w))]))
                     for w in families.iter_chain_weights(4, 4)]
        else:
            sweep = chain_sweep(4, 4)
        if way == "drawn whole":
            sweep = list(sweep)
            assert all("factor" in vars(graph) for _, graph in sweep)
        graphs[way] = list(analyzed(sweep))
    assert graphs["streamed"] == graphs["drawn whole"] == graphs["fresh"]
    rows = sum(graph.n for graph in graphs["fresh"])
    assert appended == [appended[0], appended[0], rows] and appended[0] < rows / 2


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
    # and ade_graph builds no other configuration
    for letter, n, message in (("A", 0, "A_n needs n >= 1"), ("D", 3, "D_n needs n >= 4"),
                               ("E", 9, "E_n exists for n in"), ("F", 4, "unknown family")):
        with pytest.raises(ValueError, match=message):
            ade_graph(letter, n)


def test_canonical_degree():
    assert canonical_degree(build_graph([("E1", 2)]), 0) == 0
    assert canonical_degree(smooth_graph(), 0) == -1
    assert canonical_degree(build_graph([("E1", 3)]), 0) == 1
    assert canonical_degree(build_graph([("E1", 2, 1)]), 0) == 2
    with pytest.raises(IndexError):
        canonical_degree(smooth_graph(), 1)


def test_canonical_degree_refuses_an_index_that_is_no_int():
    # True would read vertex 1 and 1.0 would fail on a tuple index
    g = chain_graph((2, 3))
    for bad in (True, False, 1.0, Fraction(1)):
        with pytest.raises(TypeError, match=re.escape(f"must be an int, got {bad!r}")):
            canonical_degree(g, bad)
    assert canonical_degree(g, 1) == 1


def test_the_canonical_helpers_read_the_graphs_degrees():
    # singularity_kind, canonical_cycle, arithmetic_genus and
    # canonical_degree read the degrees the graph built with itself
    # (`DualGraph.canonical`), and none computes them again: degrees
    # planted in a fresh graph before anything has read them are what
    # each of them follows, whichever kind they read as
    rng = random.Random(29)
    sources = [random_graph(rng, kind, n) for kind in GRAPH_KINDS for n in (1, 4, 9)]
    kinds = set()
    for g in sources:
        for planted in ((0,) * g.n, (-1,) * g.n, tuple(rng.randint(-1, 4) for _ in g.vertices)):
            graph = DualGraph(g.vertices, g.edges)
            assert graph.canonical == tuple(canonical_degrees(graph))
            graph.__dict__["canonical"] = planted
            k = list(planted)
            assert [canonical_degree(graph, j) for j in range(graph.n)] == k
            kind = (SingularityKind.SMOOTH if planted == (-1,) else
                    SingularityKind.SINGULAR if any(planted) else SingularityKind.RDP)
            assert singularity_kind(graph) is kind
            kinds.add(kind)
            assert matvec(dense_form(graph), canonical_cycle(graph)) == k
            z, s = dense_laufer(graph)
            zk = sum(map(lambda a, b: a * b, z, k))
            zz = -sum(map(lambda a, b: a * b, z, s))
            assert arithmetic_genus(graph, fundamental_cycle(graph)) == Fraction(zk + zz, 2) + 1
    assert kinds == set(SingularityKind)


def test_solve_exceptional_examples():
    g1 = build_graph([("E1", 2)])
    assert solve_exceptional(g1, [0]) == (Fraction(0),)
    assert solve_exceptional(g1, [1]) == (Fraction(1, 2),)
    g2 = chain_graph((2, 3))
    assert solve_exceptional(g2, [1, 0]) == (Fraction(3, 5), Fraction(1, 5))
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_exceptional(g2, [1])


def test_solve_exceptional_reads_its_right_hand_side_exactly():
    # as exceptional_pullback reads its meets: a float or a bool is
    # refused, naming the entry, and a 'p/q' string is the rational
    g = chain_graph((2, 3))
    for bad in (0.5, 1.0, True, False):
        with pytest.raises(ValueError, match=rf"rhs\[0\] must be exact .*got {bad!r}"):
            solve_exceptional(g, [bad, 0])
    assert solve_exceptional(g, ["1/2", 0]) == (Fraction(3, 10), Fraction(1, 10))
    assert solve_exceptional(g, ["1/2", 0]) == exceptional_pullback(g, ["1/2", 0])


def test_solve_exceptional_roundtrip_and_positivity():
    rng = random.Random(21)
    graphs = [g for _, g in base_graphs()]
    graphs += [chain_graph(random_chain_weights(rng, 8, 7)) for _ in range(10)]
    for g in graphs:
        form = intersection_matrix(g).positive_form
        for _ in range(5):
            rhs = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(g.n)]
            x = solve_exceptional(g, rhs)
            assert matvec(form, x) == rhs
            assert all(xj >= 0 for xj in x)
