"""Shared helpers for the test suite: seeded random chains, graphs and
boundaries, and a small corpus of known-good graphs."""

from __future__ import annotations

import random
from fractions import Fraction

from singinv.classify import is_log_canonical, is_log_terminal
from singinv.cycles import BoundaryData, boundary_component, boundary_cycle
from singinv.families import (
    chain_graph,
    log_terminal_forks,
    rdp_family,
    smooth_graph,
)
from singinv.graph import build_graph, validate

GRAPH_KINDS = ("tree", "cycle", "multi", "genus")


def cofactor_determinant(rows):
    """Laplace expansion along the first row, skipping zero entries.

    Independent of the elimination-based determinant; fine for the small
    (mostly sparse) matrices the tests feed it.
    """
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    first = rows[0]
    rest = rows[1:]
    for j, entry in enumerate(first):
        if entry == 0:
            continue
        minor = [list(row[:j]) + list(row[j + 1 :]) for row in rest]
        total += (-1) ** j * entry * cofactor_determinant(minor)
    return total


def dense_eliminate(a, n, *, exchange, done=0):
    """Reference Bareiss loop: every row below the pivot is rescaled at
    every step, whether or not its multiplier is zero.  Same contract as
    `singinv.linalg._eliminate`, whose result must equal this one."""
    width = len(a[0]) if n else 0
    prev = 1
    for k in range(n):
        if exchange and a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    break
        row_k = a[k]
        pivot = row_k[k]
        if pivot == 0 or (pivot < 0 and not exchange):
            return k + 1
        for i in range(k + 1, n):
            row_i = a[i]
            factor = row_i[k]
            for j in range(done if i < done else k + 1, width):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return None


def dense_scaled_solve(a, b):
    """det * a^-1 b from a dense-eliminated positive-definite array `a`:
    the right-hand side replayed through every step, then substituted
    back over every entry."""
    n = len(a)
    y = list(b)
    prev = 1
    for k in range(n):
        pivot, yk = a[k][k], y[k]
        for i in range(k + 1, n):
            y[i] = (y[i] * pivot - a[i][k] * yk) // prev
        prev = pivot
    det = a[n - 1][n - 1] if n else 1
    for i in range(n - 1, -1, -1):
        acc = det * y[i] - sum(a[i][j] * y[j] for j in range(i + 1, n))
        y[i] = acc // a[i][i]
    return y


def random_chain_weights(rng: random.Random, max_length=10, max_weight=9):
    length = rng.randint(1, max_length)
    return tuple(rng.randint(2, max_weight) for _ in range(length))


def base_graphs():
    """Log-terminal corpus: smooth point, all-2 RDPs, curated forks, chains."""
    graphs = [("smooth", smooth_graph())]
    graphs += rdp_family()
    graphs += log_terminal_forks()
    graphs += [
        ("chain(3)", chain_graph((3,))),
        ("chain(2,3)", chain_graph((2, 3))),
        ("chain(2,5,2)", chain_graph((2, 5, 2))),
        ("chain(4,2,3,6)", chain_graph((4, 2, 3, 6))),
        ("chain(7,2,2,2,5)", chain_graph((7, 2, 2, 2, 5))),
    ]
    return graphs


def random_boundary(graph, rng: random.Random, *, strict: bool, max_components=2):
    """Random boundary that is log-terminal (strict=True) or log-canonical.

    Coefficients are halved until the condition holds; if that never
    succeeds the component is moved off the fiber instead.
    """
    n = graph.n
    comps = []
    for k in range(rng.randint(0, max_components)):
        meets = [rng.choice((0, 0, 0, 1, 1, 2)) for _ in range(n)]
        coeff = Fraction(rng.randint(0, 4), 4)
        if strict and coeff == 1:
            coeff = Fraction(3, 4)
        comps.append([f"C{k + 1}", coeff, meets])
    predicate = is_log_terminal if strict else is_log_canonical
    for _ in range(40):
        boundary = BoundaryData(tuple(boundary_component(*c) for c in comps))
        cs = boundary_cycle(graph, boundary)
        if predicate(boundary, cs.boundary_canonical):
            return boundary
        for c in comps:
            c[1] = c[1] / 2
    for c in comps:
        c[2] = [0] * n
    return BoundaryData(tuple(boundary_component(*c) for c in comps))


def random_graph(rng: random.Random, kind: str, n: int):
    """A validated random graph: a random tree, plus extra edges ("cycle"),
    one multiple edge ("multi") or one vertex of positive genus ("genus").

    Weights make the positive form weakly diagonally dominant with one
    strictly dominant row, hence positive definite; validate() confirms.
    """
    mult = {(rng.randrange(k), k): 1 for k in range(1, n)}
    if kind == "cycle" and n >= 3:
        missing = [(i, j) for j in range(n) for i in range(j) if (i, j) not in mult]
        for pair in rng.sample(missing, min(len(missing), rng.randint(1, 2))):
            mult[pair] = 1
    if kind == "multi" and mult:
        mult[rng.choice(sorted(mult))] = rng.randint(2, 3)
    degree = [0] * n
    for (i, j), m in mult.items():
        degree[i] += m
        degree[j] += m
    weights = [max(2, d) + rng.choice((0, 0, 1, 2)) for d in degree]
    if all(w == d for w, d in zip(weights, degree)):
        weights[rng.randrange(n)] += 1
    genus = [0] * n
    if kind == "genus":
        genus[rng.randrange(n)] = rng.randint(1, 2)
    graph = build_graph(
        [(f"E{j + 1}", w, g) for j, (w, g) in enumerate(zip(weights, genus))],
        [(f"E{i + 1}", f"E{j + 1}", m) for (i, j), m in sorted(mult.items())],
    )
    validate(graph)
    return graph


def any_boundary(graph, rng: random.Random, max_components=2):
    """Random boundary with coefficients in [0, 1], log-canonical or not."""
    return BoundaryData(
        tuple(
            boundary_component(
                f"C{k + 1}",
                Fraction(rng.randint(0, 4), 4),
                [rng.choice((0, 0, 1, 1, 2)) for _ in range(graph.n)],
            )
            for k in range(rng.randint(0, max_components))
        )
    )
