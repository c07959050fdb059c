import random
from fractions import Fraction

import pytest

from conftest import GRAPH_KINDS, any_boundary, base_graphs, random_boundary, random_graph
from singinv.classify import (
    SingularityKind,
    is_log_canonical,
    is_log_terminal,
    singularity_kind,
)
from singinv.cycles import (
    BoundaryData,
    boundary_component,
    boundary_cycle,
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
from singinv.linalg import Factor, matvec
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


def _assert_kkt(graph, boundary, result):
    """x >= 0, w = N(v + x) >= 0, x.w = 0, and the value is the objective."""
    cs = boundary_cycle(graph, boundary)
    v = cs.fundamental - cs.boundary_canonical
    w = matvec(intersection_matrix(graph).positive_form, (v + result.minimizer).coeffs)
    assert result.minimizer.is_effective()
    assert all(wj >= 0 for wj in w)
    assert all(xj * wj == 0 for xj, wj in zip(result.minimizer, w))
    assert result.value == quadratic_norm(graph, v + result.minimizer)
    assert result.active_set == {j for j, xj in enumerate(result.minimizer) if xj > 0}


def _assert_matches_fraction_route(graph, boundary, a):
    """Each integer result of the pass against the same quantity in fractions."""
    cs = a.cycles
    form = graph.positive_form
    q = [sum(c.coeff * c.meets[j] for c in boundary.components) for j in range(graph.n)]
    assert matvec(form, cs.canonical.coeffs) == canonical_degrees(graph)
    assert matvec(form, cs.boundary_part.coeffs) == q
    assert list(cs.boundary_image) == q
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

    def border(factor, cols, rows):
        sizes.append(len(rows))
        return real(factor, cols, rows)

    monkeypatch.setattr(Factor, "border", border)
    return sizes


def test_delta_min_lcp_matches_exhaustive_on_random_graphs(monkeypatch):
    rng = random.Random(57)
    iterated = bordered = 0
    borders = _count_borders(monkeypatch)
    for trial in range(120):
        kind = GRAPH_KINDS[trial % len(GRAPH_KINDS)]
        g = random_graph(rng, kind, rng.randint(1, 9))
        b = any_boundary(g, rng)
        borders.clear()
        a = analyze(g, b)
        bordered += bool(borders)  # LCP iterations after the first block
        _assert_matches_fraction_route(g, b, a)
        fast = a.delta_min
        slow = delta_min_exhaustive(g, b)
        # equal results compare equal: x0 is kept in lowest terms
        assert fast == slow, (kind, g, b)
        assert fast.minimizer == slow.minimizer
        _assert_kkt(g, b, fast)
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
        _assert_kkt(g, b, report.delta_min)
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
        _assert_kkt(g, b, result)
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
    solved = []
    real_solve = Factor.scaled_solve
    monkeypatch.setattr(
        Factor, "scaled_solve", lambda f, b: solved.append((f, len(b))) or real_solve(f, b)
    )
    result = analyze(g).delta_min
    assert len(built) == 1
    block, first = built[0]
    lcp_solves = [size for f, size in solved if f is block]
    assert len(borders) + 1 == len(lcp_solves) >= 3
    assert first + sum(borders) == lcp_solves[-1] == len(result.active_set) > 30
    _assert_kkt(g, None, result)


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

    g = chain_graph((2, 5, 2))
    n_rows = [[2, -1, 0], [-1, 5, -1], [0, -1, 2]]
    count("matrix", graph_module, "intersection_matrix")
    count(
        "N eliminated",
        Factor,
        "__init__",
        lambda factor, rows: [list(r) for r in rows] == n_rows,
    )
    count("laufer", cycles_module, "_laufer")
    count(
        "canonical solve",
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
            "matrix",
            "N eliminated",
            "laufer",
            "canonical solve",
            "boundary pass",
            "delta_min",
        ),
        1,
    )


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
