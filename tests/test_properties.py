"""Property tests on generated graphs: the delta_min LCP against the
exhaustive oracle, and its KKT certificate beyond the oracle's range.

The registered profile is derandomized with a fixed number of examples,
so every run checks the same graphs and takes the same time."""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_kkt
from singinv.cycles import BoundaryData, boundary_component
from singinv.graph import build_graph, validate
from singinv.invariants import analyze, delta_min_exhaustive

settings.register_profile(
    "singinv",
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
PROFILE = settings.get_profile("singinv")


@st.composite
def graphs(draw, min_n, max_n, kinds=("tree", "multi")):
    """A validated graph: a random tree in vertex order, with one edge of
    multiplicity 2 or 3 for "multi".  Weights are at least the degree,
    often equal to it, and one exceeds it, so N is positive definite by
    diagonal dominance; validate() confirms."""
    n = draw(st.integers(min_n, max_n))
    kind = draw(st.sampled_from(kinds))
    mult = {(draw(st.integers(0, k - 1)), k): 1 for k in range(1, n)}
    if kind == "multi" and mult:
        mult[draw(st.sampled_from(sorted(mult)))] = draw(st.integers(2, 3))
    degree = [0] * n
    for (i, j), m in mult.items():
        degree[i] += m
        degree[j] += m
    extra = draw(st.lists(st.sampled_from((0, 0, 0, 1, 2, 5)), min_size=n, max_size=n))
    weights = [max(2, d) + e for d, e in zip(degree, extra)]
    if all(w == d for w, d in zip(weights, degree)):
        weights[draw(st.integers(0, n - 1))] += 1
    graph = build_graph(
        [(f"E{j + 1}", w) for j, w in enumerate(weights)],
        [(f"E{i + 1}", f"E{j + 1}", m) for (i, j), m in sorted(mult.items())],
    )
    validate(graph)
    return graph


@st.composite
def boundaries(draw, graph):
    """Up to two components with coefficients in [0, 1], log-canonical or not."""
    comps = []
    for k in range(draw(st.integers(0, 2))):
        coeff = draw(st.fractions(0, 1, max_denominator=6))
        counts = st.sampled_from((0, 0, 1, 1, 2))
        meets = draw(st.lists(counts, min_size=graph.n, max_size=graph.n))
        comps.append(boundary_component(f"C{k + 1}", coeff, meets))
    return BoundaryData(tuple(comps))


@st.composite
def inputs(draw, min_n, max_n):
    graph = draw(graphs(min_n, max_n))
    return graph, draw(boundaries(graph))


@PROFILE
@given(inputs(1, 10))
def test_lcp_equals_exhaustive_search(case):
    graph, boundary = case
    fast = analyze(graph, boundary).delta_min
    slow = delta_min_exhaustive(graph, boundary)
    assert fast == slow  # x0 in lowest terms, so equal results compare equal
    assert fast.minimizer == slow.minimizer
    assert isinstance(fast.value, Fraction)


@settings(PROFILE, max_examples=40)
@given(inputs(17, 40))
def test_lcp_kkt_beyond_the_exhaustive_range(case):
    graph, boundary = case
    assert_kkt(graph, boundary, analyze(graph, boundary).delta_min)
