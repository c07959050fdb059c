import copy
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    GRAPH_KINDS,
    any_boundary,
    assert_kkt,
    base_graphs,
    dense_form,
    fraction_delta_min_exhaustive,
    matvec,
    random_boundary,
    random_graph,
)
from singinv.classify import (
    SingularityKind,
    is_log_canonical,
    is_log_terminal,
    singularity_kind,
)
from singinv.cli import parse_input
from singinv.cycles import (
    EMPTY_BOUNDARY,
    BoundaryData,
    boundary_component,
    boundary_cycle,
    canonical_cycle,
    fundamental_cycle,
)
from singinv.families import ade_graph, chain_graph, fork_graph, smooth_graph
from singinv.graph import (
    ExcDivisor,
    build_graph,
    canonical_degrees,
    intersection_matrix,
    validate,
)
from singinv.invariants import (
    DEFAULT_EPSILON,
    analyze,
    DeltaPrimeKind,
    InvalidNefError,
    NegativeIntersectionError,
    NotLogTerminalError,
    check_hypotheses,
    delta,
    delta_by,
    delta_min,
    delta_min_exhaustive,
    delta_prime,
    delta_y,
    mu,
    quadratic_norm,
)
from singinv.linalg import Factor, solve
from singinv.report import NefData, build_report


def _mid_boundary_252():
    return BoundaryData((boundary_component("C", "1/2", [0, 1, 0]),))


def _cusp_triangle():
    return build_graph(
        [("a", 3), ("b", 3), ("c", 3)],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )


def test_quadratic_norm_examples():
    g = chain_graph((2, 3))
    assert quadratic_norm(g, ExcDivisor.zero(2)) == 0
    assert quadratic_norm(g, ExcDivisor.from_values(["4/5", "3/5"])) == Fraction(7, 5)
    assert quadratic_norm(smooth_graph(), ExcDivisor.from_values([2])) == 4
    with pytest.raises(ValueError, match="dimension mismatch"):
        quadratic_norm(g, ExcDivisor.zero(3))


def test_delta_y_examples():
    assert delta_y(smooth_graph()) == 4
    assert delta_y(build_graph([("E1", 2)])) == 2
    assert delta_y(chain_graph((2, 3))) == Fraction(7, 5)
    assert delta_y(chain_graph((2, 5, 2))) == Fraction(5, 4)


def test_delta_by_examples():
    g = chain_graph((2, 3))
    assert delta_by(g) == delta_y(g)
    g3 = build_graph([("E1", 3)])
    b = BoundaryData((boundary_component("C", "1/2", [1]),))
    assert delta_by(g3, b) == Fraction(3, 4)
    assert delta_by(chain_graph((2, 5, 2)), _mid_boundary_252()) == Fraction(17, 16)


def test_delta_min_gradient_positive_cases():
    res = delta_min(chain_graph((2, 3)))
    assert res.value == Fraction(7, 5)
    assert res.minimizer.is_zero()
    assert res.active_set == frozenset()
    smooth = delta_min(smooth_graph())
    assert smooth.value == 4
    assert smooth.minimizer.is_zero()


def test_delta_min_anchor_2_5_2():
    g = chain_graph((2, 5, 2))
    res = delta_min(g, _mid_boundary_252())
    assert res.value == Fraction(81, 80)
    assert res.minimizer.coeffs == (Fraction(0), Fraction(1, 10), Fraction(0))
    assert res.active_set == frozenset({1})
    assert res.value < delta_by(g, _mid_boundary_252())


def test_the_integer_oracle_is_the_fraction_route():
    # the exhaustive oracle, in integers through `Factor`, equals the
    # reference scan in fractions through dense blocks, `linalg.solve` and
    # `quadratic_norm` field by field: value, active set and x in lowest
    # terms, on the log-terminal corpus with random boundaries (the smooth
    # graph among them), some with dq > 1, and at the 16-vertex cap
    rng = random.Random(61)
    dqs = set()
    for name, g in base_graphs():
        for trial in range(3):
            b = random_boundary(g, rng, strict=trial == 1) if trial else None
            dqs.add(boundary_cycle(g, b).dq)
            assert delta_min_exhaustive(g, b) == fraction_delta_min_exhaustive(g, b), (name, b)
    assert len(dqs) > 2  # dq = 1 and at least two larger boundary denominators
    at_cap = chain_graph((3, 2, 5, 2, 2, 7, 2, 3, 2, 2, 4, 2, 2, 6, 2, 3))
    half = BoundaryData((boundary_component("C", "1/2", [1, 0] * 8),))
    result = delta_min_exhaustive(at_cap, half)
    assert result.active_set and result == fraction_delta_min_exhaustive(at_cap, half)
    with pytest.raises(ValueError, match="capped at 16 vertices"):
        delta_min_exhaustive(chain_graph((2,) * 17))


def test_delta_min_matches_exhaustive_and_kkt():
    rng = random.Random(51)
    form_cache = {}
    for name, g in base_graphs():
        for trial in range(3):
            b = random_boundary(g, rng, strict=False) if trial else None
            fast = delta_min(g, b)
            slow = delta_min_exhaustive(g, b)
            assert fast.value == slow.value
            assert fast.minimizer == slow.minimizer
            # exact KKT certificate
            cs = boundary_cycle(g, b)
            v = cs.fundamental - cs.boundary_canonical
            form = form_cache.setdefault(name, intersection_matrix(g).positive_form)
            gradient = matvec(form, (v + fast.minimizer).coeffs)
            assert all(gj >= 0 for gj in gradient)
            assert all(x * gj == 0 for x, gj in zip(fast.minimizer, gradient))
            assert fast.minimizer.is_effective()
            assert fast.value == quadratic_norm(g, v + fast.minimizer)
            assert fast.value <= quadratic_norm(g, v)


def test_delta_min_below_random_feasible_points():
    rng = random.Random(52)
    g = chain_graph((2, 5, 2))
    b = _mid_boundary_252()
    res = delta_min(g, b)
    cs = boundary_cycle(g, b)
    v = cs.fundamental - cs.boundary_canonical
    for _ in range(200):
        x = ExcDivisor.from_values(
            [Fraction(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(g.n)]
        )
        assert res.value <= quadratic_norm(g, v + x)


def test_mu_examples():
    assert mu(chain_graph((2, 3))) == 0
    g3 = build_graph([("E1", 3)])
    b = BoundaryData((boundary_component("C", "1/2", [1]),))
    assert mu(g3, b) == Fraction(1, 4)
    assert mu(chain_graph((2, 5, 2)), _mid_boundary_252()) == Fraction(1, 10)


def test_mu_smooth_point_is_half_multiplicity():
    g = smooth_graph()
    b = BoundaryData((boundary_component("C", "1/2", [1]),))
    # total multiplicity of the boundary at the point is 1/2
    assert 2 * mu(g, b) == Fraction(1, 2)


def test_mu_requires_log_terminal():
    with pytest.raises(NotLogTerminalError):
        mu(_cusp_triangle())
    g = chain_graph((2, 3))
    b = BoundaryData((boundary_component("C", 1, [0, 0]),))
    with pytest.raises(NotLogTerminalError):
        mu(g, b)


def test_delta_examples():
    assert delta(chain_graph((2, 3))) == Fraction(7, 5)
    assert delta(_cusp_triangle()) == 0  # some e_j = 1
    g = chain_graph((2, 3))
    full = BoundaryData((boundary_component("C", 1, [0, 0]),))
    assert delta(g, full) == 0


def test_delta_prime_examples():
    dp = delta_prime(chain_graph((2, 3)))
    assert dp.kind is DeltaPrimeKind.CHAIN_END_VALUE
    assert dp.value == Fraction(3, 5)
    one_vertex = delta_prime(build_graph([("E1", 2)]))
    assert one_vertex.value == 1
    assert delta_prime(ade_graph("E", 8)).kind is DeltaPrimeKind.ZERO
    d4 = delta_prime(ade_graph("D", 4))
    assert d4.kind is DeltaPrimeKind.ANY_POSITIVE
    assert d4.epsilon == DEFAULT_EPSILON
    custom = delta_prime(ade_graph("D", 4), epsilon=Fraction(1, 7))
    assert custom.epsilon == Fraction(1, 7)
    with pytest.raises(ValueError, match="positive"):
        delta_prime(ade_graph("D", 4), epsilon=Fraction(0))


def test_delta_prime_orientation_invariant():
    forward = delta_prime(chain_graph((2, 5, 2)), _mid_boundary_252())
    assert forward.value == Fraction(9, 16)
    asymmetric = BoundaryData((boundary_component("C", "1/2", [1, 0, 0]),))
    left = delta_prime(chain_graph((2, 5, 2)), asymmetric)
    flipped = BoundaryData((boundary_component("C", "1/2", [0, 0, 1]),))
    right = delta_prime(chain_graph((2, 5, 2)), flipped)
    assert left.value == right.value


def test_check_hypotheses_examples():
    g = chain_graph((2, 3))
    ok = check_hypotheses(g, None, 2, 1)
    assert ok.satisfied
    assert ok.m2_exceeds_delta and ok.mc_meets_delta_prime
    # strict inequality on M^2
    borderline = check_hypotheses(g, None, Fraction(7, 5), 1)
    assert not borderline.satisfied
    assert not borderline.m2_exceeds_delta
    # non-log-terminal: delta = delta' = 0, everything passes
    trivial = check_hypotheses(_cusp_triangle(), None, Fraction(1, 100), 0)
    assert trivial.satisfied
    assert trivial.delta == 0
    assert trivial.delta_prime.kind is DeltaPrimeKind.ZERO
    assert trivial.scaled is None


def test_check_hypotheses_dihedral_requires_positive_mc():
    d4 = ade_graph("D", 4)
    assert not check_hypotheses(d4, None, 3, 0).mc_meets_delta_prime
    assert check_hypotheses(d4, None, 3, Fraction(1, 10**6)).satisfied


def test_check_hypotheses_scaled_variants():
    g = chain_graph((2, 3))
    res = check_hypotheses(g, None, 2, 1)
    assert res.scaled is not None
    assert res.scaled.mu == 0
    dy = res.scaled.delta_y_variant
    assert dy.m2_threshold == Fraction(7, 5)
    assert dy.mc_threshold == Fraction(7, 10)
    assert dy.satisfied
    # with mu = 0 and delta = delta_min = delta_y on this input, both agree
    assert res.scaled.delta_variant.m2_threshold == Fraction(7, 5)


def test_check_hypotheses_input_errors():
    g = chain_graph((2, 3))
    with pytest.raises(InvalidNefError):
        check_hypotheses(g, None, 0, 1)
    with pytest.raises(NegativeIntersectionError):
        check_hypotheses(g, None, 1, -1)


def test_check_hypotheses_refuses_inexact_nef_data():
    # M^2 and min M.C are exact rationals: a float or a bool is refused,
    # directly and through the report's NefData, before any comparison
    g = chain_graph((2, 3))
    for m2, min_mc, what, bad in ((0.5, 1, "M^2", 0.5), (1, 0.1, "min M.C", 0.1),
                                  (True, 1, "M^2", True)):
        match = re.escape(f"{what} must be exact (an int, a Fraction or a 'p/q' string), "
                          f"got {bad!r}")
        with pytest.raises(ValueError, match=match):
            check_hypotheses(g, None, m2, min_mc)
        with pytest.raises(ValueError, match=match):
            build_report(g, nef=NefData(m2, min_mc))
    exact = check_hypotheses(g, None, "1/2", Fraction(1, 10))
    assert (exact.m2, exact.min_mc) == (Fraction(1, 2), Fraction(1, 10))


def test_delta_by_upper_bounds_by_kind():
    # smooth: <= 4; RDP: <= 2; other log-terminal: < 2
    rng = random.Random(55)
    for name, g in base_graphs():
        kind = singularity_kind(g)
        for _ in range(4):
            b = random_boundary(g, rng, strict=True)
            cs = boundary_cycle(g, b)
            assert is_log_terminal(b, cs.boundary_canonical)
            dby = delta_by(g, b)
            if kind is SingularityKind.SMOOTH:
                assert dby <= 4
            elif kind is SingularityKind.RDP:
                assert dby <= 2
            else:
                assert dby < 2


def test_delta_prime_reversed_vertex_listing():
    g = build_graph([("E2", 3), ("E1", 2)], [("E1", "E2")])
    assert delta_prime(g).value == Fraction(3, 5)


def test_delta_chain_ordering_random():
    rng = random.Random(53)
    for _, g in base_graphs():
        for _ in range(3):
            b = random_boundary(g, rng, strict=False)
            dmin = delta_min(g, b).value
            dby = delta_by(g, b)
            dy = delta_y(g)
            assert dmin <= dby <= dy <= 4


def test_section_2_2_equalities_on_anchor():
    g = chain_graph((2, 5, 2))
    b = _mid_boundary_252()
    mu_value = mu(g, b)
    assert delta_min(g, b).value == (1 - mu_value) ** 2 * delta_y(g)
    dp = delta_prime(g, b)
    assert dp.value == (1 - mu_value) * delta_y(g) / 2


def _assert_matches_fraction_route(graph, boundary, a):
    """Each integer result of the pass against the same quantity in fractions."""
    cs = a.cycles
    form = dense_form(graph)
    q = [sum(c.coeff * c.meets[j] for c in boundary.components) for j in range(graph.n)]
    assert matvec(form, cs.canonical.coeffs) == canonical_degrees(graph)
    assert matvec(form, cs.boundary_part.coeffs) == q
    assert [Fraction(v, cs.dq) for v in cs.q] == q
    assert cs.boundary_canonical == cs.canonical + cs.boundary_part
    e = cs.boundary_canonical
    assert a.delta_y == quadratic_norm(graph, cs.fundamental - cs.canonical)
    assert a.delta_by == quadratic_norm(graph, cs.fundamental - e)
    assert a.classification.log_terminal == is_log_terminal(boundary, e)
    assert a.classification.log_canonical == is_log_canonical(boundary, e)
    if a.classification.log_terminal:
        u = cs.fundamental - cs.canonical
        assert a.mu == min(bj / uj for bj, uj in zip(cs.boundary_part, u))
    else:
        assert a.mu is None


def _count_borders(monkeypatch):
    """Record the number of rows of every `Factor.border` call."""
    sizes = []
    real = Factor.border

    def border(factor, rows):
        sizes.append(len(rows))
        return real(factor, rows)

    monkeypatch.setattr(Factor, "border", border)
    return sizes


def _small_long_arm_forks():
    """Every fork with center weight 2, 3 or 4 and arms of one to three
    2s, 3s and 2s (n <= 10): most of them still border the LCP's factor
    when it starts inside its final support, where random graphs rarely do."""
    for c in (2, 3, 4):
        for a, b, d in itertools.product(range(1, 4), repeat=3):
            yield fork_graph(c, [(2,) * a, (3,) * b, (2,) * d])


def test_delta_min_lcp_matches_exhaustive_on_random_graphs(monkeypatch):
    rng = random.Random(57)
    cases = []
    for trial in range(120):
        kind = GRAPH_KINDS[trial % len(GRAPH_KINDS)]
        g = random_graph(rng, kind, rng.randint(1, 9))
        cases.append((kind, g, any_boundary(g, rng)))
    cases += [("long-arm fork", g, EMPTY_BOUNDARY) for g in _small_long_arm_forks()]
    iterated = bordered = 0
    borders = _count_borders(monkeypatch)
    for kind, g, b in cases:
        borders.clear()
        a = analyze(g, b)
        bordered += bool(borders)  # LCP iterations after the first block
        _assert_matches_fraction_route(g, b, a)
        fast = a.delta_min
        slow = delta_min_exhaustive(g, b)
        # equal results compare equal: x0 is kept in lowest terms
        assert fast == slow, (kind, g, b)
        assert fast.minimizer == slow.minimizer
        assert_kkt(g, b, fast)
        iterated += bool(fast.active_set)
    assert iterated > 20  # the LCP loop itself, not only x = 0, was exercised
    assert bordered >= 60  # and so was extending its factor by later rows


def test_delta_min_beyond_exhaustive_range():
    # 40 vertices: the adversarial weight-5 chain whose boundary meets
    # every vertex, and a three-armed fork without boundary
    chain = chain_graph((5,) * 40)
    meets_all = BoundaryData((boundary_component("C", "1/2", [1] * 40),))
    fork = fork_graph(3, [(2,) * 13, (3,) * 13, (2,) * 13])
    for g, b in ((chain, meets_all), (fork, None)):
        report = build_report(g, b)
        assert len(report.delta_min.active_set) > 30
        assert_kkt(g, b, report.delta_min)
        assert report.delta_min.value <= report.delta_by


def test_lcp_kkt_on_graphs_beyond_exhaustive_range():
    # w is updated through the nonzeros of N: the certificate, recomputed
    # here with a dense product in fractions, checks every neighbour
    rng = random.Random(58)
    iterated = 0
    for trial in range(24):
        kind = GRAPH_KINDS[trial % len(GRAPH_KINDS)]
        g = random_graph(rng, kind, rng.randint(17, 40))
        b = any_boundary(g, rng, max_components=3)
        result = analyze(g, b).delta_min
        assert_kkt(g, b, result)
        iterated += len(result.active_set) > 1
    assert iterated > 12


def test_lcp_borders_one_factor_on_the_long_arm_fork(monkeypatch):
    # the 64-vertex long-arm fork of the benchmark's hard ladder: center
    # weight 3, arms of 21 twos, 21 threes and 21 twos, no boundary
    g = fork_graph(3, [(2,) * 21, (3,) * 21, (2,) * 21])
    validate(g)  # N's own factor is built here, before counting
    built = []
    real_init = Factor.__init__

    def init(factor, rows):
        built.append((factor, len(rows)))
        real_init(factor, rows)

    monkeypatch.setattr(Factor, "__init__", init)
    borders = _count_borders(monkeypatch)
    solved = []  # (factor, size) of each forward carry
    real_carry = Factor.carry

    def carry(factor, forward, b):
        solved.append((factor, len(forward) + len(b)))
        return real_carry(factor, forward, b)

    monkeypatch.setattr(Factor, "carry", carry)
    substituted = _count_back_substitutions(monkeypatch)
    result = analyze(g).delta_min
    assert len(built) == 1
    block, first = built[0]
    lcp_solves = [size for f, size in solved if f is block]
    assert len(borders) + 1 == len(lcp_solves) >= 3
    assert first + sum(borders) == lcp_solves[-1] == len(result.active_set) > 30
    # one full back substitution, the last, on the final block
    full = [rows for f, rows, _ in substituted if f is block and rows is None]
    assert len(full) == 1 and substituted[-1][:2] == (block, None)
    assert_kkt(g, None, result)


def _count_back_substitutions(monkeypatch):
    """Record (factor, rows, entries newly computed) of every
    `Factor.back_substitute` call; rows is None for a full one."""
    calls = []
    real = Factor.back_substitute

    def back_substitute(factor, forward, rows=None, y=None):
        before = 0 if y is None else sum(t is not None for t in y)
        rows = None if rows is None else list(rows)
        out = real(factor, forward, rows, y)
        calls.append((factor, rows, sum(t is not None for t in out) - before))
        return out

    monkeypatch.setattr(Factor, "back_substitute", back_substitute)
    return calls


def test_lcp_back_substitutes_only_what_the_entering_test_reads(monkeypatch):
    # on the long-arm fork each iteration reads x only at the three arm
    # tips next to the outside, and after the first one their back
    # substitution reads at most one row more: under 3n entries before
    # the final solve, where a whole-support solve per iteration from the
    # empty support back-substitutes 651
    n = 64
    g = fork_graph(3, [(2,) * 21, (3,) * 21, (2,) * 21])
    validate(g)
    calls = _count_back_substitutions(monkeypatch)
    result = analyze(g).delta_min
    lcp = [call for call in calls if call[0] is not g.factor]  # not the cycle solves
    *partial, (_, last_rows, last_new) = lcp
    assert last_rows is None and partial  # the final solve comes last
    assert all(rows is not None for _, rows, _ in partial)
    assert sum(new for *_, new in partial) < 3 * n
    assert last_new + sum(new for *_, new in partial[-1:]) == len(result.active_set)
    assert_kkt(g, None, result)


def _limits_chain32():
    """The README "Limits" 32-component chain, from its pinned input."""
    text = (Path(__file__).parent / "golden" / "limits_chain32_input.json").read_text()
    return parse_input(text)


def test_lcp_borders_leave_old_rows_unchanged(monkeypatch):
    # on the 32-component chain, a border appends the new rows and their
    # multiplier steps and leaves every old row of the factor as it was
    g, b, _ = _limits_chain32()
    validate(g)
    borders = []  # (old rows, their steps) before, and the same rows after
    real_border = Factor.border

    def border(factor, rows):
        m = len(factor._a)
        before = copy.deepcopy((factor._a, factor._lower))
        real_border(factor, rows)
        borders.append((before, (factor._a[:m], factor._lower[:m])))

    monkeypatch.setattr(Factor, "border", border)
    analyze(g, b)
    assert len(borders) >= 20
    assert all(before == after for before, after in borders)


def test_lcp_starts_inside_its_final_support(monkeypatch):
    # the LCP's first block holds every j with v_j < 0 or (N v)_j < 0,
    # all of them in the final support, so the worst known inputs border
    # about half as often as from the j with (N v)_j < 0 alone (20 times
    # on the 64-vertex fork, 67 on the 32-component chain)
    built = []  # the first block's size, one per LCP
    real_init = Factor.__init__

    def init(factor, rows):
        built.append(len(rows))
        real_init(factor, rows)

    borders = _count_borders(monkeypatch)
    fork64 = fork_graph(3, [(2,) * 21, (3,) * 21, (2,) * 21])
    fork13 = fork_graph(3, [(2,) * 4, (3,) * 4, (2,) * 4])
    chain32 = _limits_chain32()
    for g in (fork64, fork13, chain32.graph):
        validate(g)  # N's own factor is built here, before counting
    monkeypatch.setattr(Factor, "__init__", init)
    for (g, b), most, first in (
        ((fork64, None), 9, 36),
        ((fork13, None), 2, 5),
        ((chain32.graph, chain32.boundary), 34, 64),
    ):
        built.clear()
        borders.clear()
        result = analyze(g, b).delta_min
        assert len(borders) <= most
        assert built == [first]
        assert_kkt(g, b, result)


def test_build_report_runs_each_stage_once(monkeypatch):
    import singinv.cycles as cycles_module
    import singinv.graph as graph_module
    import singinv.invariants as invariants_module

    calls = {}

    def count(label, owner, name, when=lambda *args: True):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if when(*args):
                calls[label] = calls.get(label, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    # chain(2, 5, 2), built afresh: no view shared with a cached skeleton
    g = build_graph([("E1", 2), ("E2", 5), ("E3", 2)], [("E1", "E2"), ("E2", "E3")])
    n_pairs = [[(0, 2), (1, -1)], [(0, -1), (1, 5), (2, -1)], [(1, -1), (2, 2)]]
    # the edge list is walked once, by the cached DualGraph.off_diagonal
    count("edge walk", graph_module.DualGraph.__dict__["off_diagonal"], "func")
    count("matrix", graph_module, "intersection_matrix")
    count(
        "N eliminated",
        Factor,
        "__init__",
        lambda factor, rows: [sorted(r) for r in rows] == n_pairs,
    )
    # the rounds for Z start from the column sums w + off_sums, summed once
    count("column sums", graph_module.DualGraph.__dict__["off_sums"], "func")
    count("fundamental cycle", cycles_module, "_fundamental")
    # the canonical solve: k is forward-eliminated once, into the cached
    # DualGraph.canonical_forward, and back-substituted once from there;
    # it is never solved afresh
    count("canonical carry", graph_module.DualGraph.__dict__["canonical_forward"], "func")
    count(
        "canonical solve",
        Factor,
        "back_substitute",
        lambda factor, forward, *rest: forward is g.__dict__.get("canonical_forward"),
    )
    count(
        "canonical solve afresh",
        Factor,
        "scaled_solve",
        lambda factor, b: list(b) == canonical_degrees(g),
    )
    count("boundary pass", invariants_module, "boundary_cycle")
    count("delta_min", invariants_module, "_monotone_lcp")
    nef = NefData(m2=Fraction(2), min_mc=Fraction(1))
    validate(g)
    report = build_report(g, _mid_boundary_252(), nef)
    assert report.theorem is not None and report.delta_min.value == Fraction(81, 80)
    assert calls == dict.fromkeys(
        (
            "edge walk",
            "N eliminated",
            "column sums",
            "fundamental cycle",
            "canonical carry",
            "canonical solve",
            "boundary pass",
            "delta_min",
        ),
        1,
    )


# every view a DualGraph caches: N is held in one form, its sparse columns
GRAPH_VIEWS = {
    "index",
    "off_diagonal",
    "off_sums",
    "columns",
    "connected",
    "branches",
    "factor",
    "canonical",
    "canonical_forward",
}
# what a DualGraph holds from construction on
GRAPH_FIELDS = {"vertices", "edges", "n"}


def test_dense_n_stays_off_the_hot_path(monkeypatch, capsys):
    # validate and build_report, with boundaries and nef data, over trees,
    # cyclic, multi-edge and genus > 0 graphs, cache exactly the views
    # above (but `branches` on genus > 0, whose shape is unsupported
    # before it is read), and so does every graph `enumerate` analyzes
    import singinv.cli as cli_module

    rng = random.Random(61)
    graphs = [g for _, g in base_graphs()]
    graphs += [random_graph(rng, kind, n) for kind in GRAPH_KINDS for n in range(1, 9)]
    nef = NefData(m2=Fraction(2), min_mc=Fraction(1))
    for g in graphs:
        g = build_graph(g.vertices, g.edges)  # fresh, with no view computed
        validate(g)
        build_report(g, random_boundary(g, rng, strict=False), nef)
        genus = any(v.genus for v in g.vertices)
        views = GRAPH_VIEWS - {"branches"} if genus else GRAPH_VIEWS
        assert vars(g).keys() - GRAPH_FIELDS == views
    seen = []
    real = cli_module.analyze

    def analyze_and_look(graph):
        result = real(graph)
        seen.append(vars(graph).keys() - GRAPH_FIELDS)
        return result

    monkeypatch.setattr(cli_module, "analyze", analyze_and_look)
    assert cli_module.main(["enumerate", "--max-length", "3", "--forks", "--json"]) == 0
    capsys.readouterr()
    assert len(seen) > 100 and all(views == GRAPH_VIEWS for views in seen)


def test_a_boundary_off_the_fiber_reuses_the_boundary_free_pass():
    # with no boundary, an empty one, or components that miss the fiber
    # (coefficient 0, or meeting no curve), dq = 1 and Delta_B = Delta:
    # delta_by and delta_min, which the pass takes from delta_y's vectors,
    # equal the norm of Z - Delta summed afresh through N, with Delta from
    # its own solve, and the exhaustive search over every active set.
    # mu, which the pass sets to 0 there without a scan, is
    # min_j b'_j / (z_j - a_j) in fractions, b' solving N b' = q with q
    # summed here from the components, on log-terminal inputs, and None
    # on the others
    rng = random.Random(97)
    graphs = [g for _, g in base_graphs()]
    graphs += [random_graph(rng, kind, n) for kind in GRAPH_KINDS for n in range(1, 10)]
    log_terminal = set()
    for g in graphs:
        meets = [rng.choice((0, 1, 2)) for _ in range(g.n)]
        meets[rng.randrange(g.n)] = 1
        zero = boundary_component("C1", 0, meets)
        apart = boundary_component("C2", Fraction(rng.randint(1, 4), 4), [0] * g.n)
        canonical = canonical_cycle(g)
        u = fundamental_cycle(g) - canonical
        norm = quadratic_norm(g, u)
        for b in (None, EMPTY_BOUNDARY, BoundaryData((zero,)), BoundaryData((apart,)),
                  BoundaryData((zero, apart))):
            a = analyze(g, b)
            assert a.cycles.dq == 1 and a.cycles.boundary_canonical == canonical
            assert a.delta_by == a.delta_y == norm
            components = () if b is None else b.components
            q = [sum(c.coeff * c.meets[j] for c in components) for j in range(g.n)]
            b_prime = solve(dense_form(g), q)
            lt = is_log_terminal(EMPTY_BOUNDARY if b is None else b, canonical)
            assert a.classification.log_terminal is lt
            log_terminal.add(lt)
            if lt:
                assert a.mu == min(bj / uj for bj, uj in zip(b_prime, u)) == 0
            else:
                assert a.mu is None
            exhaustive = delta_min_exhaustive(g, b)
            assert a.delta_min == exhaustive
            assert a.delta_min.minimizer == exhaustive.minimizer
    assert log_terminal == {True, False}


def test_public_helpers_read_the_analysis():
    rng = random.Random(58)
    for name, g in base_graphs():
        b = random_boundary(g, rng, strict=True)
        a = analyze(g, b)
        assert delta_min(g, b) == a.delta_min
        assert delta_by(g, b) == a.delta_by
        assert delta_y(g) == a.delta_y == analyze(g).delta_y
        assert mu(g, b) == a.mu
        assert delta(g, b) == a.delta
        assert a.delta_y == quadratic_norm(g, a.cycles.fundamental - a.cycles.canonical)
        assert a.delta_by == quadratic_norm(
            g, a.cycles.fundamental - a.cycles.boundary_canonical
        )
