import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    base_graphs,
    dense_form,
    dense_laufer,
    matvec,
    random_boundary,
    random_chain_weights,
    star_fundamental_cycle,
    star_with_tail,
)
from singinv.cli import parse_input
from singinv.cycles import (
    BoundaryData,
    arithmetic_genus,
    boundary_component,
    boundary_cycle,
    canonical_cycle,
    exceptional_pullback,
    fundamental_cycle,
)
from singinv.families import ade_graph, chain_graph, fork_graph, smooth_graph
from singinv.graph import (
    ExcDivisor,
    NotNegativeDefiniteError,
    build_graph,
    solve_exceptional,
    validate,
)
from singinv.invariants import analyze


def _anti_nef(graph, z):
    return all(s >= 0 for s in matvec(dense_form(graph), list(z)))


def test_fundamental_cycle_single_vertex():
    for w in (1, 2, 7):
        g = build_graph([("E1", w)])
        assert fundamental_cycle(g).coeffs == (Fraction(1),)


def test_fundamental_cycle_chain():
    assert fundamental_cycle(chain_graph((2, 3))).coeffs == (Fraction(1), Fraction(1))


def test_fundamental_cycle_d4():
    g = ade_graph("D", 4)  # center listed first
    assert fundamental_cycle(g).coeffs == (
        Fraction(2),
        Fraction(1),
        Fraction(1),
        Fraction(1),
    )


@pytest.mark.parametrize(
    "graph", [chain_graph((2, 3)), ade_graph("D", 4), fork_graph(3, [(2,), (2,), (2,)])]
)
def test_fundamental_cycle_is_componentwise_minimal(graph):
    """Every anti-nef candidate in a box above Z dominates Z; nothing below works."""
    z = tuple(int(c) for c in fundamental_cycle(graph))
    assert _anti_nef(graph, z)
    for cand in itertools.product(*(range(1, zi + 3) for zi in z)):
        if _anti_nef(graph, cand):
            assert all(c >= zi for c, zi in zip(cand, z))


def test_fundamental_cycle_decrement_breaks_anti_nefness():
    for _, g in base_graphs():
        z = [int(c) for c in fundamental_cycle(g)]
        for j in range(g.n):
            if z[j] == 1:
                continue  # decrementing would leave the all->=1 region
            z[j] -= 1
            assert not _anti_nef(g, z)
            z[j] += 1


def test_fundamental_cycle_order_independent():
    # the reference Laufer loop reaches the rounds' Z under any step order
    rng = random.Random(31)
    graphs = [g for _, g in base_graphs()]
    graphs += [chain_graph(random_chain_weights(rng, 8, 5)) for _ in range(5)]
    for g in graphs:
        expected = [int(c) for c in fundamental_cycle(g)]
        for _ in range(4):
            assert dense_laufer(g, rng.choice)[0] == expected


def _multi_edge_star(rng):
    """2-4 leaves joined to the center by multiple edges, and a tail of
    weight-2 vertices, with the center just heavy enough for N > 0."""
    mult = [rng.randint(2, 4) for _ in range(rng.randint(2, 4))]
    leaves = [rng.randint(2, m * m) for m in mult]
    tail = rng.randint(0, 3)
    # N > 0 iff the center's weight exceeds the sum over its arms of the
    # corner entry of the arm's inverse: m^2 / w for a leaf, and
    # t / (t + 1) for a chain of t weight-2 vertices
    load = sum(Fraction(m * m, w) for m, w in zip(mult, leaves))
    load += Fraction(tail, tail + 1)
    center = math.floor(load) + 1 + rng.choice((0, 0, 1))
    graph = build_graph(*star_with_tail(center, list(zip(leaves, mult)), tail))
    validate(graph)
    return graph


def test_laufer_sequence_with_steps():
    # multi-edge stars and a heavy-leaf graph, where Z is far above
    # (1, ..., 1): the reference Laufer loop reaches the rounds' Z in any
    # step order, and Z is anti-nef, stops being so when any coefficient
    # above 1 drops, and is the only anti-nef cycle in the box [1, Z]
    # where that is small
    rng = random.Random(41)
    heavy = build_graph(*star_with_tail(2, [(600, 12)] * 4, 12))
    validate(heavy)
    searched = 0
    for g in [_multi_edge_star(rng) for _ in range(40)] + [heavy]:
        z = [int(c) for c in fundamental_cycle(g)]
        for tie_break in (lambda v: v[0], lambda v: v[-1], rng.choice):
            assert dense_laufer(g, tie_break)[0] == z
        assert min(z) >= 1 and _anti_nef(g, z)
        for j in range(g.n):
            if z[j] > 1:
                assert not _anti_nef(g, z[:j] + [z[j] - 1] + z[j + 1 :])
        if math.prod(z) <= 10_000:
            box = itertools.product(*(range(1, zj + 1) for zj in z))
            assert [list(x) for x in box if _anti_nef(g, x)] == [z]
            searched += sum(z) > g.n
    assert sum(z) - g.n == 323  # the heavy-leaf graph's steps
    assert searched >= 20


def test_laufer_worklist_matches_dense_reference():
    # the graphs of test_laufer_sequence_with_steps, and the 4-leaf
    # heavy-leaf graph at the input caps (97,274 steps): Z and N Z of the
    # boundary pass equal the reference loop's, in its default order and
    # in a seeded random one
    rng = random.Random(41)
    graphs = [_multi_edge_star(rng) for _ in range(40)]
    graphs.append(build_graph(*star_with_tail(2, [(600, 12)] * 4, 12)))
    for k, g in enumerate(graphs):
        validate(g)
        cs = boundary_cycle(g)
        expected = (list(cs.z), list(cs.s))
        assert dense_laufer(g) == expected
        assert dense_laufer(g, random.Random(k).choice) == expected
    heavy = build_graph(*star_with_tail(2, [(10**6, 502)] * 4, 95))
    validate(heavy)
    cs = boundary_cycle(heavy)
    assert sum(cs.z) - heavy.n == 97_274
    assert (list(cs.z), list(cs.s)) == dense_laufer(heavy)


@pytest.mark.parametrize("name", ["star16_tail83", "star1_tail92", "star64_tail35"])
def test_star_goldens_z_is_the_star_formula(name):
    # the heavy-leaf stars at the caps, whose Z the step-by-step loop
    # needs up to 464,536 steps for: the rounds, the golden report and
    # the continuant formula agree on every coefficient
    golden = Path(__file__).resolve().parent / "golden"
    graph = parse_input((golden / f"{name}_input.json").read_text()).graph
    z = [int(c) for c in fundamental_cycle(graph)]
    assert z == star_fundamental_cycle(graph)
    report = json.loads((golden / f"{name}_analyze.json").read_text())
    assert report["fundamental_cycle"] == [str(c) for c in z]
    assert sum(z) > 2 * graph.n  # far above (1, ..., 1)


def test_laufer_rejects_a_non_violating_choice():
    # the reference loop refuses a step where N Z already meets E_j
    # nonnegatively, and a valid order reaches the rounds' Z
    g = ade_graph("D", 4)  # only the center violates at the start
    with pytest.raises(ValueError, match="tie_break returned a non-violating index"):
        dense_laufer(g, tie_break=lambda violations: 1)
    cs = boundary_cycle(g)
    assert dense_laufer(g, tie_break=lambda violations: violations[-1]) == (
        list(cs.z),
        list(cs.s),
    )


def test_laufer_reads_the_columns_of_n():
    # the row sums for Z and its rounds read the sparse columns of N,
    # which graph.factor reads too
    g = chain_graph((7, 2, 2, 2, 5))
    analyze(g)
    assert [sum(c for _, c in column) for column in g.columns] == [6, 0, 0, 0, 4]
    # a CycleSet view is computed on first read and then cached
    cs = boundary_cycle(g)
    assert "canonical" not in vars(cs)
    assert cs.canonical is cs.canonical is vars(cs)["canonical"]
    g = ade_graph("D", 4)
    fundamental_cycle(g)
    diagonal, *neighbours = g.columns[0]
    assert diagonal == (0, 2) and sorted(neighbours) == [(1, -1), (2, -1), (3, -1)]


def test_laufer_step_cap(monkeypatch):
    import singinv.cycles as cycles_module

    g = ade_graph("D", 4)  # Z = (2, 1, 1, 1): one round
    monkeypatch.setattr(cycles_module, "_ROUND_CAP", 1)
    assert fundamental_cycle(g).coeffs == (2, 1, 1, 1)
    monkeypatch.setattr(cycles_module, "_ROUND_CAP", 0)
    with pytest.raises(ValueError, match=r"cap of 0 rounds of its least-element solver"):
        fundamental_cycle(g)


def test_arithmetic_genus_examples():
    g = smooth_graph()
    assert arithmetic_genus(g, fundamental_cycle(g)) == 0
    d4 = ade_graph("D", 4)
    assert arithmetic_genus(d4, fundamental_cycle(d4)) == 0


def test_arithmetic_genus_nonnegative_on_fundamental_cycles():
    for _, g in base_graphs():
        assert arithmetic_genus(g, fundamental_cycle(g)) >= 0


def test_arithmetic_genus_errors():
    g = chain_graph((2, 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        arithmetic_genus(g, ExcDivisor.zero(3))
    with pytest.raises(ValueError, match="effective and integral"):
        arithmetic_genus(g, ExcDivisor.from_values(["1/2", 1]))


def test_canonical_cycle_examples():
    assert canonical_cycle(smooth_graph()).coeffs == (Fraction(-1),)
    assert canonical_cycle(chain_graph((2, 3))).coeffs == (
        Fraction(1, 5),
        Fraction(2, 5),
    )
    for letter, n in (("A", 5), ("D", 6), ("E", 8)):
        assert canonical_cycle(ade_graph(letter, n)).is_zero()


def test_canonical_cycle_effective_on_minimal_resolutions():
    for name, g in base_graphs():
        if name == "smooth":
            continue
        assert canonical_cycle(g).is_effective()


def test_exceptional_pullback_examples():
    g = chain_graph((2, 3))
    assert exceptional_pullback(g, [0, 0]).is_zero()
    assert exceptional_pullback(g, [1, 0]).coeffs == (Fraction(3, 5), Fraction(1, 5))
    assert exceptional_pullback(build_graph([("E1", 2)]), [1]).coeffs == (
        Fraction(1, 2),
    )
    with pytest.raises(ValueError, match="negative"):
        exceptional_pullback(g, [-1, 0])


def test_boundary_cycle_empty():
    g = chain_graph((2, 3))
    cs = boundary_cycle(g)
    assert cs.boundary_part.is_zero()
    assert cs.boundary_canonical == cs.canonical
    assert cs.fundamental_genus == 0


def test_boundary_cycle_single_vertex():
    g = build_graph([("E1", 3)])
    b = BoundaryData((boundary_component("C", "1/2", [1]),))
    cs = boundary_cycle(g, b)
    assert cs.boundary_part.coeffs == (Fraction(1, 6),)
    assert cs.boundary_canonical.coeffs == (Fraction(1, 2),)


def test_boundary_cycle_chain_2_5_2():
    g = chain_graph((2, 5, 2))
    b = BoundaryData((boundary_component("C", "1/2", [0, 1, 0]),))
    cs = boundary_cycle(g, b)
    assert cs.canonical.coeffs == (Fraction(3, 8), Fraction(3, 4), Fraction(3, 8))
    assert cs.boundary_part.coeffs == (
        Fraction(1, 16),
        Fraction(1, 8),
        Fraction(1, 16),
    )
    assert cs.boundary_canonical.coeffs == (
        Fraction(7, 16),
        Fraction(7, 8),
        Fraction(7, 16),
    )


def test_boundary_cycle_coefficient_identity_random():
    rng = random.Random(32)
    for name, g in base_graphs():
        for _ in range(3):
            b = random_boundary(g, rng, strict=False)
            cs = boundary_cycle(g, b)
            assert cs.boundary_canonical == cs.canonical + cs.boundary_part
            assert cs.fundamental.is_integral()
            assert all(z >= 1 for z in cs.fundamental)


def test_boundary_validation_errors():
    g = chain_graph((2, 3))
    with pytest.raises(ValueError, match="negative coefficient"):
        boundary_cycle(g, BoundaryData((boundary_component("C", "-1/2", [0, 0]),)))
    with pytest.raises(ValueError, match="> 1"):
        boundary_cycle(g, BoundaryData((boundary_component("C", "5/4", [0, 0]),)))
    with pytest.raises(ValueError, match="length"):
        boundary_cycle(g, BoundaryData((boundary_component("C", "1/2", [1]),)))
    with pytest.raises(ValueError, match="negative intersection"):
        boundary_cycle(g, BoundaryData((boundary_component("C", "1/2", [-1, 0]),)))


def test_boundary_component_refuses_non_integer_counts():
    # an intersection count is an exact int, as an edge multiplicity is:
    # 1.9 is not read as 1, nor True as 1, nor a Fraction or a string
    for bad in (1.9, 1.0, True, Fraction(1), Fraction(3, 2), "1"):
        message = re.escape(f"'C': intersection count must be an integer, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            boundary_component("C", "1/2", [0, bad])
    assert boundary_component("C", "1/2", (m for m in [0, 2])).meets == (0, 2)


def test_boundary_component_refuses_inexact_coefficients():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10: a
    # float coefficient is refused, as is a bool; an int, a Fraction and
    # a "p/q" string are exact
    for bad in (0.1, 1.0, True):
        message = re.escape(f"'C': coefficient must be exact (an int, a Fraction or a 'p/q' "
                            f"string), got {bad!r}")
        with pytest.raises(ValueError, match=message):
            boundary_component("C", bad, [0, 1, 0])
    for good in (1, Fraction(1, 10), "1/10"):
        assert boundary_component("C", good, [0, 1, 0]).coeff == Fraction(good)


def test_exceptional_pullback_refuses_inexact_meets():
    g = chain_graph((2, 3))
    for bad in (0.5, 1.0, False):
        with pytest.raises(ValueError, match=rf"meets\[1\] must be exact .*got {bad!r}"):
            exceptional_pullback(g, [1, bad])
    half = exceptional_pullback(g, ["1/2", Fraction(0)])
    assert half.coeffs == (Fraction(3, 10), Fraction(1, 10))


def test_boundary_part_monotone_in_coefficients():
    rng = random.Random(33)
    for name, g in base_graphs():
        b = random_boundary(g, rng, strict=False)
        if not b.components:
            continue
        cs = boundary_cycle(g, b)
        k = rng.randrange(len(b.components))
        bumped = list(b.components)
        comp = bumped[k]
        bumped[k] = boundary_component(
            comp.name, min(Fraction(1), comp.coeff + Fraction(1, 8)), comp.meets
        )
        cs2 = boundary_cycle(g, BoundaryData(tuple(bumped)))
        assert all(
            new >= old for new, old in zip(cs2.boundary_part, cs.boundary_part)
        )


def test_solves_refuse_indefinite_forms():
    # the leading 2x2 minor of (1,1,1) and the full 3x3 minor of the
    # weight-2 triangle vanish; no round for Z or solve may run on them
    triangle = build_graph(
        [("a", 2), ("b", 2), ("c", 2)], [("a", "b"), ("b", "c"), ("c", "a")]
    )
    for g in (chain_graph((1, 1, 1)), triangle):
        with pytest.raises(NotNegativeDefiniteError) as expected:
            validate(g)
        for call in (
            lambda: solve_exceptional(g, [1, 0, 0]),
            lambda: exceptional_pullback(g, [1, 0, 0]),
            lambda: boundary_cycle(g),
            lambda: fundamental_cycle(g),
            lambda: canonical_cycle(g),
            lambda: analyze(g),
        ):
            with pytest.raises(NotNegativeDefiniteError) as raised:
                call()
            assert raised.value.minor_index == expected.value.minor_index
