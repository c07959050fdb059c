import random
from fractions import Fraction

from conftest import GRAPH_KINDS, base_graphs, random_graph, scanned_kind
from singinv.classify import (
    ShapeKind,
    SingularityKind,
    classify,
    graph_shape,
    is_log_canonical,
    is_log_terminal,
    singularity_kind,
)
from singinv.cycles import BoundaryData, boundary_component, boundary_cycle
from singinv.families import ade_graph, chain_graph, fork_graph, smooth_graph
from singinv.graph import ExcDivisor, build_graph, validate


def _cusp_triangle():
    """Cycle of three (-3)-curves: valid graph, log-canonical, not log-terminal."""
    return build_graph(
        [("a", 3), ("b", 3), ("c", 3)],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )


def test_log_terminal_and_canonical_predicates():
    empty = BoundaryData()
    assert is_log_terminal(empty, ExcDivisor.zero(2))
    e_at_one = ExcDivisor.from_values([1, "1/2"])
    assert not is_log_terminal(empty, e_at_one)
    assert is_log_canonical(empty, e_at_one)
    above_one = ExcDivisor.from_values(["9/8"])
    assert not is_log_canonical(empty, above_one)
    full_coeff = BoundaryData((boundary_component("C", 1, [0]),))
    assert not is_log_terminal(full_coeff, ExcDivisor.zero(1))
    assert is_log_canonical(full_coeff, ExcDivisor.zero(1))


def test_singularity_kind():
    assert singularity_kind(smooth_graph()) is SingularityKind.SMOOTH
    assert singularity_kind(ade_graph("E", 8)) is SingularityKind.RDP
    assert singularity_kind(chain_graph((2, 3))) is SingularityKind.SINGULAR
    # single (-2)-curve is the A_1 rational double point
    assert singularity_kind(build_graph([("E1", 2)])) is SingularityKind.RDP
    # positive genus is never an RDP here
    assert singularity_kind(build_graph([("E1", 2, 1)])) is SingularityKind.SINGULAR


def test_the_kind_read_off_the_canonical_degrees_is_the_vertex_scan():
    # classify reads the kind off k = w + 2g - 2, the cycle set's
    # canonical degrees, and singularity_kind off a fresh list of them:
    # both equal the scan of the weights and genera, on the log-terminal
    # corpus, random graphs of every kind (genus > 0 among them), the
    # weight-1 smooth graph, and single curves and a chain that look
    # like it or like an RDP but are neither
    rng = random.Random(22)
    graphs = [g for _, g in base_graphs()]
    graphs += [random_graph(rng, kind, n) for kind in GRAPH_KINDS for n in range(1, 9)]
    graphs += [smooth_graph(), build_graph([("E1", 1, 1)]), build_graph([("E1", 2, 1)])]
    graphs += [build_graph([("E1", 1), ("E2", 2)], [("E1", "E2")])]
    seen = set()
    for g in graphs:
        kind = scanned_kind(g)
        assert singularity_kind(g) is kind
        assert classify(g).kind is kind
        assert boundary_cycle(g).k == g.canonical
        seen.add(kind)
    assert seen == set(SingularityKind)


def test_graph_shape_chains():
    shape = graph_shape(chain_graph((2, 3)))
    assert shape.kind is ShapeKind.CHAIN
    assert shape.length == 2
    assert shape.ends == (0, 1)
    single = graph_shape(build_graph([("E1", 2)]))
    assert single.kind is ShapeKind.CHAIN
    assert single.length == 1
    assert single.ends == (0, 0)


def test_graph_shape_chain_ends_are_valence_one_vertices():
    # same path, scrambled listing: middle vertex first
    g = build_graph(
        [("mid", 5), ("left", 2), ("right", 2)],
        [("left", "mid"), ("mid", "right")],
    )
    shape = graph_shape(g)
    assert shape.kind is ShapeKind.CHAIN
    assert shape.ends is not None
    end_ids = {g.vertices[i].id for i in shape.ends}
    assert end_ids == {"left", "right"}


def test_graph_shape_forks():
    assert graph_shape(ade_graph("D", 4)).kind is ShapeKind.FORK_D
    assert graph_shape(ade_graph("D", 7)).kind is ShapeKind.FORK_D
    assert graph_shape(ade_graph("E", 6)).kind is ShapeKind.FORK_E
    assert graph_shape(ade_graph("E", 7)).kind is ShapeKind.FORK_E
    assert graph_shape(ade_graph("E", 8)).kind is ShapeKind.FORK_E
    # dihedral recognition needs the two short weight-2 arms
    assert graph_shape(fork_graph(3, [(2,), (2,), (3, 2)])).kind is ShapeKind.FORK_D
    # arm determinants (2,3,5) with non-uniform weights
    assert graph_shape(fork_graph(2, [(2,), (3,), (3, 2)])).kind is ShapeKind.FORK_E


def test_graph_shape_other_and_unsupported():
    assert graph_shape(_cusp_triangle()).kind is ShapeKind.OTHER
    four_arms = fork_graph(5, [(2,), (2,), (2,), (2,)])
    assert graph_shape(four_arms).kind is ShapeKind.OTHER
    two_centers = fork_graph(2, [(2,), (2,), (3, 2, 2)])
    # attach two extra leaves to the end of the long arm -> second fork
    g = build_graph(
        [(v.id, v.weight) for v in two_centers.vertices] + [("x", 2), ("y", 2)],
        [(e.a, e.b) for e in two_centers.edges] + [("E5", "x"), ("E5", "y")],
    )
    assert graph_shape(g).kind is ShapeKind.OTHER
    # arm determinants (3,3,3): not in the exceptional list
    assert graph_shape(fork_graph(2, [(3,), (3,), (3,)])).kind is ShapeKind.OTHER
    genus = build_graph([("E1", 2, 1)])
    assert graph_shape(genus).kind is ShapeKind.UNSUPPORTED
    double_edge = build_graph([("a", 3), ("b", 3)], [("a", "b", 2)])
    assert graph_shape(double_edge).kind is ShapeKind.UNSUPPORTED


def test_graph_shape_of_a_weight_one_arm():
    # validate refuses these graphs, but graph_shape reads only the edges
    # and the arm weights: a weight-1 arm has no continuant, so the fork
    # is Other unless two single weight-2 arms make it dihedral first
    for arms in ([(1,), (3,), (2,)], [(1,), (2, 2), (2,)], [(2,), (3,), (2, 1)]):
        assert graph_shape(fork_graph(2, arms)).kind is ShapeKind.OTHER
    assert graph_shape(fork_graph(2, [(1,), (2,), (2,)])).kind is ShapeKind.FORK_D
    assert graph_shape(fork_graph(1, [(2,), (3,), (5,)])).kind is ShapeKind.FORK_E


def test_cusp_triangle_is_log_canonical_not_log_terminal():
    g = _cusp_triangle()
    validate(g)
    cs = boundary_cycle(g)
    assert cs.canonical.coeffs == (Fraction(1), Fraction(1), Fraction(1))
    assert not is_log_terminal(BoundaryData(), cs.boundary_canonical)
    assert is_log_canonical(BoundaryData(), cs.boundary_canonical)


def test_rdp_family_kind_joint():
    from singinv.families import rdp_family
    from singinv.invariants import delta_y

    for name, g in rdp_family():
        assert singularity_kind(g) is SingularityKind.RDP, name
        assert delta_y(g) == 2, name


def test_classify_composition():
    cls = classify(ade_graph("D", 4))
    assert cls.kind is SingularityKind.RDP
    assert cls.rdp and not cls.smooth
    assert cls.shape.kind is ShapeKind.FORK_D
    assert cls.log_terminal and cls.log_canonical
    smooth = classify(smooth_graph())
    assert smooth.smooth
    assert smooth.shape.kind is ShapeKind.CHAIN and smooth.shape.length == 1
