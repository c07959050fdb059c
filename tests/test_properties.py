"""Property tests on generated graphs: the factor of N's sparse columns
against the dense elimination, a factor bordered from another's prefix
and the canonical degrees and their forward values carried along a
weight sweep against fresh ones, the kind read off those degrees against
a scan of the vertices, the `continuant` closed forms against the
general pass on chains, the delta_min LCP against the exhaustive oracle,
its KKT certificate beyond the oracle's range, the rounds for Z against
the step-by-step Laufer loop and the continuant formula on stars where
Z grows, the report's
equivariance under a reordering of the vertices, the lossless
serialisation of every rational the report emits, and generated input
documents, valid and bent, and every field of the base documents bent by
each edit kind, through `parse_input`, `build_report` and the CLI, which
end in a report or a documented error, and generated argument lists
through the CLI, which end in a documented exit code.

The registered profile is derandomized with a fixed number of examples,
so every run checks the same graphs and takes the same time."""

import contextlib
import copy
import io
import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from conftest import (
    GRAPH_KINDS,
    assert_kkt,
    base_graphs,
    dense_eliminate,
    dense_form,
    dense_laufer,
    factor_state,
    scanned_kind,
    star_fundamental_cycle,
    star_with_tail,
)
from singinv.classify import classify, singularity_kind
from singinv.cli import MAX_INTEGER, InputError, main, parse_input
from singinv.continuant import chain_delta_y, continuant, inverse_entry
from singinv.cycles import BoundaryData, boundary_component, boundary_cycle
from singinv.families import chain_graph, chain_sweep
from singinv.graph import GraphValidationError, build_graph, canonical_degrees, validate
from singinv.invariants import analyze, delta_min_exhaustive
from singinv.linalg import Factor
from singinv.report import NefData, build_report, report_to_dict

# no explain phase: it runs only after a failure, and it imports libcst,
# whose DeprecationWarnings under `python -W error` would replace the
# falsifying example with an INTERNALERROR
settings.register_profile(
    "singinv",
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
PROFILE = settings.get_profile("singinv")


@st.composite
def graphs(draw, min_n, max_n, kinds=("tree", "multi")):
    """A validated graph: a random tree in vertex order, with one edge of
    multiplicity 2 or 3 for "multi", one or two more edges for "cycle"
    and one vertex of genus 1 or 2 for "genus".  Weights are at least the
    degree, often equal to it, and one exceeds it, so N is positive
    definite by diagonal dominance; validate() confirms."""
    n = draw(st.integers(min_n, max_n))
    kind = draw(st.sampled_from(kinds))
    mult = {(draw(st.integers(0, k - 1)), k): 1 for k in range(1, n)}
    if kind == "multi" and mult:
        mult[draw(st.sampled_from(sorted(mult)))] = draw(st.integers(2, 3))
    missing = [(i, j) for j in range(n) for i in range(j) if (i, j) not in mult]
    if kind == "cycle" and missing:
        extra_pairs = st.lists(st.sampled_from(missing), min_size=1, max_size=2, unique=True)
        mult.update(dict.fromkeys(draw(extra_pairs), 1))
    degree = [0] * n
    for (i, j), m in mult.items():
        degree[i] += m
        degree[j] += m
    extra = draw(st.lists(st.sampled_from((0, 0, 0, 1, 2, 5)), min_size=n, max_size=n))
    weights = [max(2, d) + e for d, e in zip(degree, extra)]
    if all(w == d for w, d in zip(weights, degree)):
        weights[draw(st.integers(0, n - 1))] += 1
    genus = [0] * n
    if kind == "genus":
        genus[draw(st.integers(0, n - 1))] = draw(st.integers(1, 2))
    graph = build_graph(
        [(f"E{j + 1}", w, g) for j, (w, g) in enumerate(zip(weights, genus))],
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
def inputs(draw, min_n, max_n, kinds=("tree", "multi")):
    graph = draw(graphs(min_n, max_n, kinds))
    return graph, draw(boundaries(graph))


@PROFILE
@given(graphs(1, 16, GRAPH_KINDS), st.data())
def test_factor_of_the_columns_is_the_dense_elimination(graph, data):
    # in a random vertex order, so that rows fill in: the factor of N's
    # sparse columns stores the lower triangle of the dense loop on N
    # summed from the edge list, bit for bit, with the same Sylvester
    # answer and det, whether built whole or bordered at random splits
    order = data.draw(st.permutations(range(graph.n)))
    graph = build_graph([graph.vertices[j] for j in order], graph.edges)
    ref = dense_form(graph)
    bad = dense_eliminate(ref)
    lower = [row[: i + 1] for i, row in enumerate(ref)]
    factor = graph.factor
    assert (factor._a, factor.first_nonpositive, factor.det) == (lower, bad, ref[-1][-1])
    cuts = data.draw(st.sets(st.integers(1, graph.n - 1))) if graph.n > 1 else set()
    splits = [0, *sorted(cuts), graph.n]
    bordered = Factor(graph.columns[: splits[1]])
    for m, k in zip(splits[1:], splits[2:]):
        bordered.border(graph.columns[m:k])
    assert (bordered._a, bordered.first_nonpositive, bordered.det) == (lower, bad, factor.det)


@st.composite
def weight_sweeps(draw):
    """(first, [(p, sibling), ...]), every graph built fresh: a graph of
    any kind in a random vertex order under weights drawn down to 1, so
    that N is often indefinite with its first nonpositive minor anywhere,
    then one to four siblings, each keeping its predecessor's weights
    before a drawn p."""
    graph = draw(graphs(1, 10, GRAPH_KINDS))
    order = draw(st.permutations(range(graph.n)))
    vertices = [graph.vertices[j] for j in order]

    def drawn(keep):
        weights = [v.weight for v in keep]
        for v in vertices[len(keep):]:
            degree = len(graph.off_diagonal[graph.index[v.id]])
            weights.append(draw(st.integers(1, degree + 2)))
        return build_graph([v._replace(weight=w) for v, w in zip(vertices, weights)],
                           graph.edges)

    first = prev = drawn([])
    siblings = []
    for _ in range(draw(st.integers(1, 4))):
        p = draw(st.integers(0, graph.n))
        prev = drawn(prev.vertices[:p])
        siblings.append((p, prev))
    return first, siblings


@PROFILE
@given(weight_sweeps())
def test_a_factor_bordered_from_a_prefix_is_a_fresh_factor(sweep):
    # along a weight sweep, the predecessor's factor cut to p rows and
    # bordered by the sibling's columns from p on is the sibling's fresh
    # factor, bit for bit, and so is the factor that `reweighted` hands
    # on; no source changes
    prev, siblings = sweep
    states = [(prev.factor, copy.deepcopy(factor_state(prev.factor)))]
    for p, fresh in siblings:
        bordered = prev.factor.prefix(p)
        bordered.border(fresh.columns[p:])
        assert factor_state(bordered) == factor_state(fresh.factor)
        prev = prev.reweighted([v.weight for v in fresh.vertices])
        assert factor_state(prev.factor) == factor_state(fresh.factor)
        states.append((prev.factor, copy.deepcopy(factor_state(prev.factor))))
    for factor, before in states:
        assert factor_state(factor) == before


@PROFILE
@given(weight_sweeps(), st.data())
def test_the_canonical_forward_values_reweighted_are_a_fresh_carry(sweep, data):
    # along a weight sweep whose graphs have genus > 0 vertices among
    # their kinds, and whose predecessor's factor is definite or has its
    # first nonpositive minor before, at or past p: a graph with a
    # definite factor, reweighted from one that has read its canonical
    # forward values, holds its predecessor's first p of them with the
    # rest carried, and reads the same as a fresh carry of its canonical
    # degrees by its fresh factor.  One with an indefinite factor holds
    # none, and reading them raises, as on a fresh build.  Its canonical
    # degrees, definite or not, are its predecessor's first p, if read,
    # with the rest computed, and equal a fresh graph's
    prev, siblings = sweep
    for p, fresh in siblings:
        if data.draw(st.booleans()):
            prev.canonical
        if prev.factor.first_nonpositive is None and data.draw(st.booleans()):
            prev.canonical_forward
        graph = prev.reweighted([v.weight for v in fresh.vertices])
        degrees = "canonical" in prev.__dict__
        assert ("canonical" in graph.__dict__) == degrees
        if degrees:
            assert graph.canonical[:p] == prev.canonical[:p]
        assert graph.canonical == tuple(canonical_degrees(fresh))
        definite = fresh.factor.first_nonpositive is None
        held = "canonical_forward" in prev.__dict__ and definite
        assert ("canonical_forward" in graph.__dict__) == held
        if held:
            assert graph.canonical_forward[:p] == prev.canonical_forward[:p]
        if definite:
            forward = []
            fresh.factor.carry(forward, canonical_degrees(fresh))
            assert graph.canonical_forward == tuple(forward)
        else:
            with pytest.raises(ValueError, match="not positive definite"):
                graph.canonical_forward
        prev = graph


@PROFILE
@given(weight_sweeps())
def test_the_kind_along_a_weight_sweep_is_the_vertex_scan(sweep):
    # along a weight sweep, weights down to 1 and genus > 0 among the
    # kinds, ended by all weights 2: the kind of each graph, reweighted
    # from one that has read its canonical degrees, equals the scan of
    # its weights and genera, read off the carried degrees by classify
    # where N > 0 and off a fresh list of them by singularity_kind
    # everywhere
    prev, siblings = sweep
    graphs = [prev]
    steps = [[v.weight for v in fresh.vertices] for _, fresh in siblings]
    for weights in steps + [[2] * prev.n]:
        prev.canonical
        prev = prev.reweighted(weights)
        graphs.append(prev)
    for graph in graphs:
        kind = scanned_kind(graph)
        assert singularity_kind(graph) is kind
        if graph.factor.first_nonpositive is None:
            assert classify(graph).kind is kind


def _assert_closed_forms(weights, graph):
    """The `continuant` closed forms of a chain against the one
    elimination of `graph`, its chain graph, and the analysis pass."""
    validate(graph)
    factor, n = graph.factor, len(weights)
    assert continuant(weights) == factor.det
    assert chain_delta_y(weights) == analyze(graph).delta_y
    for j in range(n):
        column = factor.solve([int(i == j) for i in range(n)])
        assert [inverse_entry(weights, i + 1, j + 1) for i in range(n)] == column


@PROFILE
@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(st.integers(2, 7), min_size=n, max_size=n),
                       min_size=2, max_size=2)))
def test_continuant_closed_forms_equal_the_general_pass(pair):
    # on a drawn chain built fresh, and reweighted from a drawn chain of
    # its length whose factor is computed, as the enumerate sweep builds
    # each chain from the one before
    before, weights = pair
    _assert_closed_forms(weights, chain_graph(weights))
    predecessor = chain_graph(before)
    validate(predecessor)
    _assert_closed_forms(weights, predecessor.reweighted(weights))


def test_continuant_closed_forms_along_the_enumerate_sweep():
    # every chain of length 1 to 4 with weights 2 to 5, in the sweep's
    # order, each factored before the next is drawn, as enumerate does
    for weights, graph in chain_sweep(4, 5):
        _assert_closed_forms(weights, graph)


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


@st.composite
def heavy_stars(draw):
    """A star near the definiteness bound, where Z grows: a center of
    weight 3 or 4, 1 to 4 leaves joined to it by edges of multiplicity
    2 to 12, and a tail of up to 10 weight-2 vertices.  N > 0 iff the
    center's weight exceeds the sum over its arms of the corner entry of
    the arm's inverse: m^2 / w for a leaf and t / (t + 1) for the tail.
    Each leaf weight is the least that keeps m^2 / w under an equal share
    of that margin, plus a slack of 0 to 2; so the reference loop takes
    at most about 8,000 steps."""
    center = draw(st.integers(3, 4))
    mult = draw(st.lists(st.integers(2, 12), min_size=1, max_size=4))
    tail = draw(st.integers(0, 10))
    share = (center - Fraction(tail, tail + 1)) / len(mult)
    slack = st.sampled_from((0, 0, 1, 2))
    leaves = [(math.floor(m * m / share) + 1 + draw(slack), m) for m in mult]
    graph = build_graph(*star_with_tail(center, leaves, tail))
    validate(graph)
    return graph


@PROFILE
@given(heavy_stars(), st.randoms(use_true_random=False))
def test_rounds_for_z_equal_the_laufer_loop(graph, rnd):
    # Z and N Z from the rounds of the least-element solver equal the
    # step-by-step reference loop's, in a drawn step order
    cs = boundary_cycle(graph)
    assert (list(cs.z), list(cs.s)) == dense_laufer(graph, rnd.choice)


@PROFILE
@given(heavy_stars())
def test_rounds_for_z_equal_the_star_formula(graph):
    # Z from the rounds equals the star's Z from continuants, rounded up
    # leg by leg from the least center coefficient that carries its legs
    assert list(boundary_cycle(graph).z) == star_fundamental_cycle(graph)


def _by_vertex(doc):
    """A report dictionary with every per-vertex list keyed by vertex id
    and every list of ids as a set: equal for the same graph under any
    vertex order."""
    ids = doc.pop("vertex_ids")
    dmin = doc["delta_min"]
    for owner, key in [(doc, "fundamental_cycle"), (doc, "canonical_cycle"),
                       (doc, "boundary_pullback"), (doc, "boundary_canonical_cycle"),
                       (dmin, "minimizer")]:
        owner[key] = dict(zip(ids, owner[key]))
    dmin["active_vertices"] = set(dmin["active_vertices"])
    shape = doc["classification"]["shape"]
    shape["ends"] = shape["ends"] and set(shape["ends"])
    doc["input"]["vertices"] = {v.pop("id"): v for v in doc["input"]["vertices"]}
    return doc


@st.composite
def corpus_inputs(draw):
    """A graph of the log-terminal corpus (chains, ADE graphs and quotient
    forks) with a boundary."""
    _, graph = draw(st.sampled_from(base_graphs()))
    return graph, draw(boundaries(graph))


@PROFILE
@given(st.one_of(inputs(1, 12, kinds=GRAPH_KINDS), corpus_inputs()), st.data())
def test_reordering_the_vertices_permutes_every_vector(case, data):
    # Z, Delta, Delta_B, b', the delta_min minimizer and its active set
    # follow the vertices; det N, delta_y, delta_b_y, delta_min, mu, delta,
    # delta', the classification and the theorem check do not move
    graph, boundary = case
    order = data.draw(st.permutations(range(graph.n)))
    moved = build_graph([graph.vertices[j] for j in order], graph.edges)
    moved_boundary = BoundaryData(
        tuple(c._replace(meets=tuple(c.meets[j] for j in order)) for c in boundary.components)
    )
    nef = NefData(
        m2=data.draw(st.fractions(Fraction(1, 4), 4, max_denominator=4)),
        min_mc=data.draw(st.fractions(0, 2, max_denominator=4)),
    )
    before = build_report(graph, boundary, nef)
    after = build_report(moved, moved_boundary, nef)
    for field in ("z", "s", "k", "q", "yk", "yq", "ye"):
        old = getattr(before.cycles, field)
        assert getattr(after.cycles, field) == tuple(old[j] for j in order)
    active = before.delta_min.active_set
    assert after.delta_min.active_set == {p for p, j in enumerate(order) if j in active}
    assert _by_vertex(report_to_dict(after)) == _by_vertex(report_to_dict(before))


def _emitted(report, doc):
    """(string, value) for every rational `report_to_dict` writes into
    `doc`, paired with the value of `report` it was written from."""
    cs, dmin = report.cycles, report.delta_min
    pairs = [
        (doc["arithmetic_genus"], cs.fundamental_genus),
        (doc["delta_y"], report.delta_y),
        (doc["delta_b_y"], report.delta_by),
        (doc["delta"], report.delta),
        (doc["delta_min"]["value"], dmin.value),
    ]
    for key, divisor in (
        ("fundamental_cycle", cs.fundamental),
        ("canonical_cycle", cs.canonical),
        ("boundary_pullback", cs.boundary_part),
        ("boundary_canonical_cycle", cs.boundary_canonical),
    ):
        pairs += zip(doc[key], divisor, strict=True)
    pairs += zip(doc["delta_min"]["minimizer"], dmin.minimizer, strict=True)
    if report.delta_min_oracle is not None:
        pairs.append((doc["delta_min"]["oracle"]["value"], report.delta_min_oracle.value))
    if report.mu is not None:
        pairs.append((doc["mu"], report.mu))
    for c, echoed in zip(report.boundary.components, doc["input"]["boundary"], strict=True):
        pairs.append((echoed["coeff"], c.coeff))
    if report.nef is not None:
        nef = doc["input"]["nef"]
        pairs += [(nef["M2"], report.nef.m2), (nef["minMC"], report.nef.min_mc)]
    dps = [(doc["delta_prime"], report.delta_prime)]
    theorem = report.theorem
    if theorem is not None:
        t = doc["theorem"]
        pairs += [(t["M2"], theorem.m2), (t["min_MC"], theorem.min_mc),
                  (t["delta"], theorem.delta)]
        dps.append((t["delta_prime"], theorem.delta_prime))
        if theorem.scaled is not None:
            pairs.append((t["scaled"]["mu"], theorem.scaled.mu))
            for key, variant in (("delta_y_basis", theorem.scaled.delta_y_variant),
                                 ("delta_basis", theorem.scaled.delta_variant)):
                for field in ("basis", "m2_threshold", "mc_threshold"):
                    pairs.append((t["scaled"][key][field], getattr(variant, field)))
    for emitted, dp in dps:
        for field in ("value", "epsilon"):
            if getattr(dp, field) is not None:
                pairs.append((emitted[field], getattr(dp, field)))
    return pairs


def _strings(node):
    """Every string in a JSON-like tree, keys excluded."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from _strings(value)


RATIONAL = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")


@PROFILE
@given(st.one_of(inputs(1, 8, kinds=GRAPH_KINDS), corpus_inputs()), st.data())
def test_every_emitted_rational_reparses_to_its_value(case, data):
    # README: reports serialise every rational losslessly.  Each rational
    # string reads back as the exact value it was written from, and is
    # "p" for an integer and "p/q" in lowest terms with q > 1 otherwise;
    # no other string of the report looks like a rational
    graph, boundary = case
    nef = data.draw(st.none() | st.builds(
        NefData,
        m2=st.fractions(Fraction(1, 30), 40, max_denominator=30),
        min_mc=st.fractions(0, 3, max_denominator=30),
    ))
    epsilon = data.draw(st.fractions(Fraction(1, 10**6), 1, max_denominator=10**6))
    report = build_report(graph, boundary, nef, epsilon=epsilon,
                          verify_delta_min=data.draw(st.booleans()))
    doc = report_to_dict(report)
    pairs = _emitted(report, doc)
    for text, value in pairs:
        assert isinstance(value, Fraction)
        assert RATIONAL.fullmatch(text), text
        num, slash, den = text.partition("/")
        assert Fraction(text) == value
        if value.denominator == 1:
            assert not slash
        else:
            assert int(den) > 1 and math.gcd(int(num), int(den)) == 1
    rationals = [s for s in _strings(doc) if RATIONAL.fullmatch(s)]
    assert sorted(rationals) == sorted(s for s, _ in pairs)


# Fuzzing the input path (README "Input format"): a valid document bent
# by up to three edits.  HUGE stands for an integer literal of 5,000
# digits, past Python's own conversion limit, which json.dumps cannot
# write and is spliced into the text.
HUGE = "<huge integer>"
EDITS = ("swap",) * 6 + ("add",) * 4 + ("drop",) * 2 + ("root", "cut")
ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(MAX_INTEGER + 2), MAX_INTEGER + 2),
    st.sampled_from((0, 1, 2, -1, MAX_INTEGER + 1, -MAX_INTEGER - 1, 10**12, HUGE)),
    st.sampled_from(("", "x", "E1", "1/0", "0/0", "-1/0", "1/2", "3/2", "-1/3", "2/4",
                     "01/2", "1/-2", "1/1000001", "NaN", "1e3", " 1")),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.sampled_from(("E1", "E2", "x")), st.integers(-1, 2), max_size=2),
)


def _slots(node, field=()):
    """(field, container, key) for every value below `node`, where the
    field is its path with list indices and `meets` ids written "*"."""
    keys = list(node) if isinstance(node, dict) else range(len(node))
    for key in keys:
        here = (*field, "*" if isinstance(node, list) or field[-1:] == ("meets",) else key)
        yield here, node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key], here)


def _base_documents():
    """The log-terminal corpus and three graphs of other kinds (genus 1, a
    cycle, a double edge), each with one or two boundary components and
    nef data: valid input documents, as JSON text (README "Input format")."""
    others = [
        build_graph([("E1", 2, 1)], []),
        build_graph([(f"E{j}", 3, 0) for j in (1, 2, 3)],
                    [("E1", "E2", 1), ("E2", "E3", 1), ("E3", "E1", 1)]),
        build_graph([("E1", 3, 0), ("E2", 3, 0)], [("E1", "E2", 2)]),
    ]
    docs = []
    for k, graph in enumerate([g for _, g in base_graphs()] + others):
        ids = [v.id for v in graph.vertices]
        boundary = [{"name": "C1", "coeff": "1/2", "meets": {ids[0]: 1}}]
        if k % 2:
            boundary.append({"name": "C2", "coeff": 1, "meets": {ids[-1]: 2}})
        docs.append(json.dumps({
            "vertices": [{"id": v.id, "weight": v.weight, "genus": v.genus}
                         for v in graph.vertices],
            "edges": [[e.a, e.b, e.multiplicity] for e in graph.edges],
            "boundary": boundary,
            "nef": {"M2": "2", "minMC": "1/3"},
        }))
    return docs


@st.composite
def documents(draw):
    """(text, edits): a JSON text and how many edits bent it.  An edit
    swaps a value, adds a key or an entry, drops one, replaces the whole
    document or cuts the text short.  It first picks a field of the
    format, then a place where it occurs, so the one `nef.M2` is bent as
    often as all the vertex weights."""
    doc = json.loads(draw(st.sampled_from(BASE_DOCUMENTS)))
    edits = draw(st.sampled_from((1, 1, 1, 2, 3, 0)))
    cut = False
    for _ in range(edits):
        action = draw(st.sampled_from(EDITS))
        if action == "root":
            doc = draw(ODD_VALUES)
            break
        if action == "cut":
            cut = True
            break
        fields: dict = {}
        for field, node, key in _slots(doc):
            fields.setdefault(field, []).append((node, key))
        node, key = doc, None
        if fields:
            node, key = draw(st.sampled_from(fields[draw(st.sampled_from(list(fields)))]))
        if action == "swap" and key is not None:
            node[key] = draw(ODD_VALUES)
        elif action == "drop" and key is not None:
            del node[key]
        elif isinstance(node, dict):
            name = draw(st.sampled_from(("E1", "E99", "x", "id", "weight", "meets", "nef")))
            node[name] = draw(ODD_VALUES)
        else:
            node.insert(key, draw(ODD_VALUES))
    text = json.dumps(doc).replace(json.dumps(HUGE), "-" * draw(st.booleans()) + "9" * 5000)
    if cut:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text, edits


BASE_DOCUMENTS = _base_documents()


@settings(PROFILE, max_examples=300)
@given(documents())
def test_any_document_is_a_report_or_an_input_error(case):
    # parse_input and build_report either return, or refuse the document
    # with the errors main() turns into exit code 1; never another error.
    # A document no edit has bent is a valid input and gives a report
    text, edits = case
    try:
        parsed = parse_input(text)
        build_report(parsed.graph, parsed.boundary, parsed.nef)
    except (InputError, GraphValidationError, ValueError):
        assert edits


@settings(PROFILE, max_examples=20)
@given(documents(), st.sampled_from((["analyze"], ["analyze", "--json"], ["check", "--json"])))
def test_the_cli_exits_with_a_documented_code_on_any_document(tmp_path_factory, case, command):
    # the module docstring of singinv.cli: exit 0, 1, 2 or 3, an error
    # message on stderr whenever it is not 0, and never a traceback
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(case[0], encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command[:1], str(path), *command[1:]])
    assert code in (0, 1, 2, 3)
    assert (code == 0) == (err.getvalue() == "")
    if code:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""


SWAPS = (None, True, 0.5, math.nan, -1, 0, 2, MAX_INTEGER + 1, HUGE, "1/0", "2/3", "x", [], {})


def test_every_edit_at_every_field_is_a_report_or_an_input_error():
    # the fuzz above reaches only the fields its derandomized draws pick;
    # this sweep bends every field of every base document, at the first
    # place it occurs, by each edit kind: a swap for each value in SWAPS,
    # an unknown key added next to it or an entry inserted before it
    # (None, or a copy of it), and a drop.  Every result is a report or
    # one of the errors main() turns into exit code 1
    edits = [("swap", value) for value in SWAPS] + [("add", None), ("add", "copy"), ("drop", None)]
    reached = 0
    for text in BASE_DOCUMENTS:
        first: dict = {}
        for k, (field, _, _) in enumerate(_slots(json.loads(text))):
            first.setdefault(field, k)
        for k in first.values():
            for action, value in edits:
                doc = json.loads(text)
                _, node, key = next(itertools.islice(_slots(doc), k, None))
                if action == "swap":
                    node[key] = value
                elif action == "drop":
                    del node[key]
                elif isinstance(node, dict):
                    node["x" if value is None else "E99"] = 1
                else:
                    node.insert(key, None if value is None else copy.deepcopy(node[key]))
                bent = json.dumps(doc).replace(json.dumps(HUGE), "9" * 5000)
                try:
                    parsed = parse_input(bent)
                    build_report(parsed.graph, parsed.boundary, parsed.nef)
                except (InputError, GraphValidationError, ValueError):
                    pass
                reached += 1
    assert reached == 17 * 553  # 553 fields over the 33 base documents


SAMPLES = sorted(str(p) for p in (Path(__file__).resolve().parent.parent / "samples").glob("*.json"))
# (values a flag takes, its edge cases); an enumerate family stays small:
# a length above 2 is refused by the vertex cap, and a weight above 6 by
# the row limit
HARD_NUMBERS = ("0", "-1", "1/0", "2/4", "", "x", "1e3", " 2", str(MAX_INTEGER + 1), "9" * 5000)
FLAG_VALUES = {
    "--epsilon": (("1/1000", "1", "1/2", "3", str(MAX_INTEGER)), HARD_NUMBERS),
    "--inverse": (("1", "2", "3"), HARD_NUMBERS),
    "--max-length": (("0", "1", "2"), ("-1", "101", *HARD_NUMBERS)),
    "--max-weight": (("2", "3", "6", str(MAX_INTEGER)), ("1", *HARD_NUMBERS)),
    "--limit": (("5", "100000"), ("-1", *HARD_NUMBERS)),
    "--meets": (("1", "0", "1,0", "2,1/3", "1,0,1", "0,1/2,2"),
                ("1,0,0,0", "-1,0,0", "1/0,1,1", "2,,3", *HARD_NUMBERS)),
    "weights": (("2,3,5", "2", "7,1000000", ",".join([str(MAX_INTEGER)] * 100)),
                ("1,1", "-1,2", "2,x", "2/3", "2,,3", ",".join(["2"] * 101), *HARD_NUMBERS)),
}
COMMANDS = {  # positional argument, flags
    "analyze": ("file", ("--json", "--oracle", "--epsilon")),
    "check": ("file", ("--json", "--epsilon")),
    "enumerate": (None, ("--json", "--forks", "--max-length", "--max-weight", "--limit")),
    "continuant": ("weights", ("--json", "--inverse")),
    "pullback": ("file", ("--json", "--meets")),
}


@st.composite
def argvs(draw, files):
    """An argument list for `main`: a subcommand, or none or an unknown
    one, then its flags in a random order, each present or not, with
    values taken mostly from what the flag accepts and otherwise from its
    edge cases; a value or the required argument left out at times, and
    an extra argument added at times."""

    def value(name):
        good, bad = FLAG_VALUES[name]
        return draw(st.sampled_from(bad if not draw(st.integers(0, 2)) else good))

    command = draw(st.sampled_from([*COMMANDS, "bogus", "--help", "-h", "--json"]))
    argv = [command]
    if command in COMMANDS:
        positional, flags = COMMANDS[command]
        groups = []
        if positional is not None and draw(st.integers(0, 7)):  # else left out
            groups.append([draw(st.sampled_from(files)) if positional == "file"
                           else value(positional)])
        for flag in flags:
            # enumerate's default family is large: its length is always
            # given; --meets, which pullback needs, is left out at times
            required = flag == "--max-length" or flag == "--meets" and draw(st.integers(0, 7))
            if required or draw(st.booleans()):
                arity = 2 if flag == "--inverse" else flag in FLAG_VALUES
                if arity and not draw(st.integers(0, 7)):
                    arity -= 1  # a value left out
                groups.append([flag, *(value(flag) for _ in range(arity))])
        for group in draw(st.permutations(groups)):
            argv += group
    if not draw(st.integers(0, 7)):
        extra = ("extra", "--bogus", "-x", "--json", "--", "-1", *files)
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(extra)))
    return argv


@settings(PROFILE, max_examples=200)
@given(st.data())
def test_the_cli_exits_with_a_documented_code_on_any_argv(tmp_path_factory, data):
    # the module docstring of singinv.cli on generated argument lists:
    # exit 0, 1, 2 or 3, an error line on stderr exactly when it is not
    # 0, and never a traceback (main would raise)
    tmp = tmp_path_factory.getbasetemp()
    garbage, nef = tmp / "garbage.json", tmp / "nef.json"
    garbage.write_text('{"vertices": [', encoding="utf-8")
    nef.write_text(BASE_DOCUMENTS[2], encoding="utf-8")  # with a boundary and nef data
    files = [*SAMPLES, str(nef), str(tmp / "missing.json"), str(tmp), str(garbage)]
    argv = data.draw(argvs(files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    errors = [line for line in err.getvalue().splitlines()
              if re.match(r"(singinv( \w+)?: )?error: ", line)]
    assert bool(errors) == (code != 0), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
