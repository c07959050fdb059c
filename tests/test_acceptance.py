"""Acceptance suite.

Every comparison is exact (tolerance zero): the whole core is rational
arithmetic, so equalities and strict inequalities are asserted as such.
Each criterion prints one PASS/FAIL line; run `pytest -s` to see them.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from conftest import (
    base_graphs,
    boundary_canonical_of,
    cofactor_determinant,
    log_terminal_forks,
    matvec,
    minimizer_of,
    minus,
    plus,
    random_boundary,
    random_chain_weights,
)
from singinv.classify import ShapeKind, graph_shape, is_log_terminal
from singinv.cli import main
from singinv.continuant import (
    chain_delta_y,
    continuant,
    discrepancy_complement,
    inverse_entry,
    inverse_matrix,
    pullback_end_bound,
)
from singinv.cycles import (
    BoundaryData,
    EMPTY_BOUNDARY,
    boundary_component,
    boundary_cycle,
    canonical_cycle,
)
from singinv.families import (
    chain_graph,
    iter_chain_weights,
    rdp_family,
    smooth_graph,
)
from singinv.graph import (
    build_graph,
    intersection_matrix,
    solve_exceptional,
)
from singinv.invariants import (
    DeltaPrimeKind,
    check_hypotheses,
    delta_by,
    delta_min,
    delta_min_exhaustive,
    delta_prime,
    delta_y,
    mu,
    quadratic_norm,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLES = REPO_ROOT / "samples"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[A{num:02d}] {status}: {description}{suffix}")
    assert ok, f"acceptance criterion {num} failed: {description}{suffix}"


def _chain_population(count: int = 1000, seed: int = 1009):
    rng = random.Random(seed)
    return [random_chain_weights(rng, max_length=10, max_weight=9) for _ in range(count)]


_POPULATION = _chain_population()


def test_criterion_01_smooth_and_rdp_values():
    ok = delta_y(smooth_graph()) == 4
    checked = 1
    for name, graph in rdp_family():
        ok = ok and delta_y(graph) == 2
        checked += 1
    _verdict(1, "delta_y is 4 on the smooth graph and 2 on every all-2 ADE graph",
             ok, f"{checked} graphs")


def test_criterion_02_log_terminal_range():
    ok = True
    checked = 0
    for weights in iter_chain_weights(5, 6):
        if all(w == 2 for w in weights):
            continue
        graph = chain_graph(weights)
        e = canonical_cycle(graph)
        dy = delta_y(graph)
        ok = ok and is_log_terminal(EMPTY_BOUNDARY, e) and 0 < dy < 2
        checked += 1
    for name, graph in log_terminal_forks():
        e = canonical_cycle(graph)
        dy = delta_y(graph)
        ok = ok and is_log_terminal(EMPTY_BOUNDARY, e) and 0 < dy < 2
        checked += 1
    _verdict(2, "0 < delta_y < 2 on every log-terminal non-RDP graph",
             ok, f"{checked} graphs")


def test_criterion_03_chain_closed_form():
    ok = chain_delta_y((2, 3)) == Fraction(7, 5) == delta_y(chain_graph((2, 3)))
    for weights in _POPULATION:
        if chain_delta_y(weights) != delta_y(chain_graph(weights)):
            ok = False
            break
    _verdict(3, "closed-form chain delta_y equals the quadratic form",
             ok, f"{len(_POPULATION)} random chains, anchor (2,3) = 7/5")


def test_criterion_04_inverse_entries_and_discrepancies():
    ok = True
    for weights in _POPULATION:
        n = len(weights)
        graph = chain_graph(weights)
        inv = inverse_matrix(weights)
        for j in range(n):
            unit = [Fraction(i == j) for i in range(n)]
            column = solve_exceptional(graph, unit)
            if any(inv[i][j] != column[i] for i in range(n)):
                ok = False
        if any(inv[i][j] != inv[j][i] for i in range(n) for j in range(n)):
            ok = False
        if inv[0][n - 1] != Fraction(1, continuant(weights)):
            ok = False
        a = canonical_cycle(graph)
        if any(
            discrepancy_complement(weights, i + 1) != 1 - a[i] for i in range(n)
        ):
            ok = False
        if not ok:
            break
    _verdict(4, "continuant inverse entries and discrepancies match the exact solves",
             ok, f"{len(_POPULATION)} random chains")


def _tridiagonal(weights):
    n = len(weights)
    rows = [[0] * n for _ in range(n)]
    for i, w in enumerate(weights):
        rows[i][i] = w
        if i + 1 < n:
            rows[i][i + 1] = rows[i + 1][i] = -1
    return rows


def test_criterion_05_continuant_recursion_vs_cofactor():
    # Exhaustive over all chains with n <= 3; dense seeded sampling for
    # n = 4..8 (a literal exhaustive sweep to n = 8 is ~17M chains).
    ok = continuant(()) == 1
    checked = 0
    for n in (1, 2, 3):
        for weights in itertools.product(range(2, 10), repeat=n):
            if continuant(weights) != cofactor_determinant(_tridiagonal(weights)):
                ok = False
            checked += 1
    rng = random.Random(1013)
    for n in range(4, 9):
        samples = [tuple(rng.randint(2, 9) for _ in range(n)) for _ in range(300)]
        samples += [(2,) * n, (9,) * n]
        for weights in samples:
            if continuant(weights) != cofactor_determinant(_tridiagonal(weights)):
                ok = False
            checked += 1
    _verdict(5, "continuant recursion equals cofactor-expansion determinants",
             ok, f"{checked} chains, a() = 1 honored")


def test_criterion_06_end_coefficient_bound():
    witness = pullback_end_bound((2, 3), [0, 1])
    ok = witness.holds and witness.last == continuant((2,)) * witness.first
    rng = random.Random(1019)
    trials = 0
    while trials < 1000:
        weights = random_chain_weights(rng, max_length=10, max_weight=9)
        q = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in weights]
        result = pullback_end_bound(weights, q)
        ok = ok and result.holds
        trials += 1
    _verdict(6, "pullback end-coefficient bound holds for random nonnegative q",
             ok, f"{trials} trials, equality witnessed on chain (2,3)")


def _delta_min_corpus():
    rng = random.Random(1021)
    corpus = []
    for name, graph in base_graphs():
        corpus.append((name, graph, None))
        for k in range(2):
            corpus.append(
                (f"{name}+b{k}", graph, random_boundary(graph, rng, strict=False))
            )
    twelve = chain_graph(tuple(rng.randint(2, 5) for _ in range(12)))
    corpus.append(("chain-n12", twelve, random_boundary(twelve, rng, strict=False)))
    anchor = BoundaryData((boundary_component("C", "1/2", [0, 1, 0]),))
    corpus.append(("anchor-252", chain_graph((2, 5, 2)), anchor))
    return corpus


def test_criterion_07_delta_min_oracle_equivalence():
    anchor_graph = chain_graph((2, 5, 2))
    anchor_boundary = BoundaryData((boundary_component("C", "1/2", [0, 1, 0]),))
    anchor = delta_min(anchor_graph, anchor_boundary)
    ok = (
        anchor.value == Fraction(81, 80)
        and minimizer_of(anchor) == (Fraction(0), Fraction(1, 10), Fraction(0))
        and anchor.value < delta_by(anchor_graph, anchor_boundary) == Fraction(17, 16)
    )
    rng = random.Random(1031)
    corpus = _delta_min_corpus()
    random_points = 0
    for name, graph, boundary in corpus:
        fast = delta_min(graph, boundary)
        slow = delta_min_exhaustive(graph, boundary)
        x0 = minimizer_of(fast)
        if fast.value != slow.value or x0 != minimizer_of(slow):
            ok = False
        cs = boundary_cycle(graph, boundary)
        v = minus(cs.z, boundary_canonical_of(cs))
        form = intersection_matrix(graph).positive_form
        gradient = matvec(form, plus(v, x0))
        if not all(g >= 0 for g in gradient):
            ok = False
        if not all(x * g == 0 for x, g in zip(x0, gradient, strict=True)):
            ok = False
        if not all(x >= 0 for x in x0):
            ok = False
        while random_points < 1000:
            x = [Fraction(rng.randint(0, 10), rng.randint(1, 5)) for _ in range(graph.n)]
            if fast.value > quadratic_norm(graph, plus(v, x)):
                ok = False
            random_points += 1
            if random_points % len(corpus) == 0:
                break
    _verdict(7, "delta_min equals the exhaustive oracle with an exact KKT certificate",
             ok, f"{len(corpus)} inputs, {random_points} random feasible points, "
                 "anchor 81/80 on chain (2,5,2)")


def test_criterion_08_boundary_never_increases_delta():
    rng = random.Random(1033)
    ok = True
    equalities = strict = 0
    for name, graph in base_graphs():
        dy = delta_y(graph)
        for _ in range(6):
            boundary = random_boundary(graph, rng, strict=False)
            dby = delta_by(graph, boundary)
            if dby > dy:
                ok = False
            misses = all(
                not any(c.meets) for c in boundary.components if c.coeff > 0
            )
            if misses:
                equalities += 1
                if dby != dy:
                    ok = False
            else:
                strict += 1
                if dby >= dy:
                    ok = False
    ok = ok and equalities > 20 and strict > 20  # both classes must be exercised
    _verdict(8, "delta_{B,y} <= delta_y with equality exactly off the boundary",
             ok, f"{equalities} equality cases, {strict} strict cases")


def test_criterion_09_mu_scaled_inequalities():
    rng = random.Random(1039)
    ok = True
    checked = 0
    for name, graph in base_graphs():
        dy = delta_y(graph)
        shape = graph_shape(graph)
        for _ in range(6):
            boundary = random_boundary(graph, rng, strict=True)
            cs = boundary_cycle(graph, boundary)
            if not is_log_terminal(boundary, boundary_canonical_of(cs)):
                ok = False
                continue
            mu_value = mu(graph, boundary)
            if not 0 <= mu_value < 1:
                ok = False
            if delta_min(graph, boundary).value > (1 - mu_value) ** 2 * dy:
                ok = False
            if shape.kind is ShapeKind.CHAIN:
                dp = delta_prime(graph, boundary)
                if dp.kind is DeltaPrimeKind.CHAIN_END_VALUE:
                    if dp.value > (1 - mu_value) * dy / 2:
                        ok = False
            checked += 1
    anchor_graph = chain_graph((2, 5, 2))
    anchor_boundary = BoundaryData((boundary_component("C", "1/2", [0, 1, 0]),))
    mu_anchor = mu(anchor_graph, anchor_boundary)
    tight = delta_min(anchor_graph, anchor_boundary).value
    ok = ok and tight == (1 - mu_anchor) ** 2 * delta_y(anchor_graph) == Fraction(81, 80)
    _verdict(9, "0 <= mu < 1 and the (1-mu)-scaled bounds hold, tight on (2,5,2)",
             ok, f"{checked} log-terminal inputs")


def test_criterion_10_chain_end_identities():
    ok = True
    chains = [w for w in _POPULATION] + [
        weights for weights in itertools.product(range(2, 7), repeat=3)
    ]
    for weights in chains:
        n = len(weights)
        alpha = continuant(weights)
        alpha_prefix = continuant(weights[:-1])
        if discrepancy_complement(weights, n) * alpha != 1 + alpha_prefix:
            ok = False
            break
        a_first = 1 - discrepancy_complement(weights, 1)
        if a_first + inverse_entry(weights, 1, 1) != 1 - Fraction(1, alpha):
            ok = False
            break
    _verdict(10, "chain-end identities hold exactly on every test chain",
             ok, f"{len(chains)} chains")


def test_criterion_11_hypothesis_checker_and_ordering():
    g23 = chain_graph((2, 3))
    satisfied = check_hypotheses(g23, None, 2, 1)
    borderline = check_hypotheses(g23, None, Fraction(7, 5), 1)
    cusp = build_graph(  # cycle of (-3)-curves: log-canonical, not log-terminal
        [("a", 3), ("b", 3), ("c", 3)],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    trivial = check_hypotheses(cusp, None, Fraction(1, 100), 0)
    ok = satisfied.satisfied and not borderline.satisfied and trivial.satisfied
    rng = random.Random(1049)
    checked = 0
    for name, graph in base_graphs():
        for boundary in (None, random_boundary(graph, rng, strict=False)):
            dmin = delta_min(graph, boundary).value
            dby = delta_by(graph, boundary)
            dy = delta_y(graph)
            if not dmin <= dby <= dy <= 4:
                ok = False
            checked += 1
    _verdict(11, "hypothesis checker verdicts and delta_min <= delta_By <= delta_y <= 4",
             ok, f"3 verdicts, ordering on {checked} inputs")


def test_criterion_12_cli_golden_outputs(capsys):
    ok = True
    names = ("smooth", "a1", "chain_2_3", "chain_2_5_2_boundary")
    for name in names:
        code = main(["analyze", str(SAMPLES / f"{name}.json"), "--json"])
        out = capsys.readouterr().out
        expected = (GOLDEN / f"{name}.json").read_text()
        if code != 0 or out != expected:
            ok = False
    # spot-check the frozen anchors inside the goldens themselves
    doc = json.loads((GOLDEN / "chain_2_5_2_boundary.json").read_text())
    ok = ok and doc["delta_min"]["value"] == "81/80" and doc["mu"] == "1/10"
    doc = json.loads((GOLDEN / "smooth.json").read_text())
    ok = ok and doc["delta_y"] == "4"
    _verdict(12, "CLI --json output is byte-identical to the golden files",
             ok, f"{len(names)} sample files")
