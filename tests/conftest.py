"""Shared helpers for the test suite: seeded random chains, graphs and
boundaries, and a small corpus of known-good graphs."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from singinv.classify import (
    GraphShape,
    ShapeKind,
    SingularityKind,
    is_log_canonical,
    is_log_terminal,
)
from singinv.continuant import continuant
from singinv.cycles import BoundaryData, boundary_component, boundary_cycle
from singinv.families import chain_graph, fork_graph, rdp_family, smooth_graph
from singinv.graph import ExcDivisor, build_graph, validate
from singinv.invariants import DeltaMinResult, quadratic_norm
from singinv.linalg import clear_denominators, solve

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


def dense_form(graph):
    """N as a dense n x n list, summed from the edge list here: diagonal
    w_j, off-diagonal minus the total multiplicity of the edges joining
    the pair.  Independent of `DualGraph.columns`, the one form in which
    the library holds N."""
    index = {v.id: j for j, v in enumerate(graph.vertices)}
    form = [[0] * graph.n for _ in graph.vertices]
    for j, v in enumerate(graph.vertices):
        form[j][j] = v.weight
    for a, b, multiplicity in graph.edges:
        i, j = index[a], index[b]
        form[i][j] -= multiplicity
        form[j][i] -= multiplicity
    return form


def matvec(rows, v):
    """rows * v for a dense matrix, exactly: integers for an integer v,
    fractions for a fractional one.  The reference for products that the
    library takes through the nonzeros of N (`graph.form_image`)."""
    if any(len(row) != len(v) for row in rows):
        raise ValueError(f"dimension mismatch: vector has length {len(v)}")
    return [sum(a * b for a, b in zip(row, v)) for row in rows]


def quadratic_form(rows, v):
    """v^T * rows * v, exactly, as a Fraction."""
    return Fraction(sum(a * b for a, b in zip(v, matvec(rows, v))))


def dense_eliminate(a):
    """Reference Bareiss loop: every row below the pivot is rescaled at
    every step, whether or not its multiplier is zero.  The array of
    `singinv.linalg.Factor`, however it was bordered, must equal this one."""
    n = len(a)
    prev = 1
    for k in range(n):
        row_k = a[k]
        pivot = row_k[k]
        if pivot <= 0:
            return k + 1
        for i in range(k + 1, n):
            row_i = a[i]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return None


def factor_state(factor):
    """Every field of a `Factor`: two factors with equal states are the
    same elimination, bit for bit."""
    return (factor._a, factor._lower, factor._upper, factor._piv, factor.det,
            factor.first_nonpositive)


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


def dense_laufer(graph, tie_break=None):
    """Reference Laufer loop: start at Z = (1, ..., 1) and add 1 to a z_j
    with (N Z)_j < 0 until there is none.  Every step rescans all n
    entries of s for the violating indices and adds the whole dense
    column of N.  Returns Z and s = N Z, as `singinv.cycles` computes
    them in rounds of its least-element solver, with no cap; `tie_break`
    gets every violating index in increasing order and picks the step."""
    n = graph.n
    form = dense_form(graph)
    z = [1] * n
    s = [sum(row) for row in form]
    while True:
        violations = [j for j in range(n) if s[j] < 0]
        if not violations:
            return z, s
        j = violations[0] if tie_break is None else tie_break(violations)
        if j not in violations:
            raise ValueError("tie_break returned a non-violating index")
        z[j] += 1
        for i in range(n):
            s[i] += form[i][j]


def dense_adjacency(graph):
    """The neighbours of each vertex, read off the dense form N."""
    return tuple(
        frozenset(j for j, c in enumerate(row) if c and j != i)
        for i, row in enumerate(dense_form(graph))
    )


def dense_graph_shape(graph):
    """Reference `singinv.classify.graph_shape`: adjacency and the
    multiple-edge test read off all n^2 entries of N."""
    if any(v.genus != 0 for v in graph.vertices):
        return GraphShape(ShapeKind.UNSUPPORTED)
    if any(c < -1 for row in dense_form(graph) for c in row):
        return GraphShape(ShapeKind.UNSUPPORTED)  # N_ij = -(total multiplicity)
    n = graph.n
    adjacency = dense_adjacency(graph)
    degrees = [len(adjacency[i]) for i in range(n)]
    if sum(degrees) != 2 * (n - 1):
        return GraphShape(ShapeKind.OTHER)  # connected with a cycle
    if max(degrees) > 3:
        return GraphShape(ShapeKind.OTHER)
    centers = [i for i, d in enumerate(degrees) if d == 3]
    if not centers:
        ends = [i for i, d in enumerate(degrees) if d <= 1]
        if n == 1:
            return GraphShape(ShapeKind.CHAIN, length=1, ends=(0, 0))
        return GraphShape(ShapeKind.CHAIN, length=n, ends=(ends[0], ends[1]))
    if len(centers) > 1:
        return GraphShape(ShapeKind.OTHER)
    center = centers[0]
    arms = []
    for start in sorted(adjacency[center]):
        arm = []
        prev, cur = center, start
        while True:
            arm.append(graph.vertices[cur].weight)
            nxt = [k for k in adjacency[cur] if k != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        arms.append(tuple(arm))
    short_rdp_arms = sum(1 for arm in arms if arm == (2,))
    if short_rdp_arms >= 2:
        return GraphShape(ShapeKind.FORK_D)
    dets = sorted(continuant(arm) for arm in arms)
    if dets in ([2, 3, 3], [2, 3, 4], [2, 3, 5]):
        return GraphShape(ShapeKind.FORK_E)
    return GraphShape(ShapeKind.OTHER)


def scanned_kind(graph):
    """Reference `singinv.classify.singularity_kind`, by a scan of the
    vertices: the single weight-1 genus-0 curve is smooth, an all-(-2)
    genus-0 graph is an RDP.  Independent of the canonical degrees that
    the library reads the kind from."""
    first = graph.vertices[0]
    if graph.n == 1 and first.weight == 1 and first.genus == 0:
        return SingularityKind.SMOOTH
    if all(weight == 2 and genus == 0 for _, weight, genus in graph.vertices):
        return SingularityKind.RDP
    return SingularityKind.SINGULAR


def assert_kkt(graph, boundary, result):
    """The delta_min certificate, in fractions with a dense product:
    x >= 0, w = N(v + x) >= 0, x.w = 0, and the value is the objective.
    Also the lemma behind the LCP's start (N^-1 >= 0): v + x >= 0, so
    every j with v_j < 0 is active."""
    cs = boundary_cycle(graph, boundary)
    v = cs.fundamental - cs.boundary_canonical
    w = matvec(dense_form(graph), (v + result.minimizer).coeffs)
    assert result.minimizer.is_effective()
    assert (v + result.minimizer).is_effective()
    assert {j for j, vj in enumerate(v) if vj < 0} <= result.active_set
    assert all(wj >= 0 for wj in w)
    assert all(xj * wj == 0 for xj, wj in zip(result.minimizer, w))
    assert result.value == quadratic_norm(graph, v + result.minimizer)
    assert result.active_set == {j for j, xj in enumerate(result.minimizer) if xj > 0}


def fraction_delta_min_exhaustive(graph, boundary=None):
    """Reference `singinv.invariants.delta_min_exhaustive`, in fractions:
    on each support S, the dense principal block of N solved by the
    checked `linalg.solve`, skipped when some x_j < 0, and v + x scored by
    `quadratic_norm`; the first least objective wins, in the library's
    order of supports, and x is brought to lowest terms by
    `clear_denominators`."""
    n = graph.n
    cs = boundary_cycle(graph, boundary)
    v = cs.fundamental - cs.boundary_canonical
    form = dense_form(graph)
    nv = matvec(form, v.coeffs)
    best = None
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            x = [Fraction(0)] * n
            if subset:
                block = [[form[i][j] for j in subset] for i in subset]
                sol = solve(block, [-nv[i] for i in subset])
                if any(t < 0 for t in sol):
                    continue
                for i, t in zip(subset, sol):
                    x[i] = t
            value = quadratic_norm(graph, v + ExcDivisor(tuple(x)))
            if best is None or value < best[0]:
                best = (value, x)
    value, x = best
    nums, den = clear_denominators(x)
    active = frozenset(j for j, t in enumerate(nums) if t > 0)
    return DeltaMinResult(value, active, tuple(nums), den)


def star_fundamental_cycle(graph, center=0):
    """Reference Z of a star: legs that are chains hang off `center`, the
    first edge of leg i of multiplicity mu_i and the others simple, every
    genus 0.  Given the center's coefficient m, leg i's least completion
    is rounded up vertex by vertex from x_0 = mu_i m:
    x_{j+1} = max(1, ceil(x_j a(w_{j+2}..) / a(w_{j+1}..))), as N^-1 >= 0
    bounds every later entry below by the real solution from the entry
    before, and the rounded entries still satisfy N x >= 0 on the leg.
    Z_center is the least m >= 1 with b m >= sum_i mu_i x_{i,1}(m).
    Independent of the solver: only the edge list and continuants."""
    index = {v.id: j for j, v in enumerate(graph.vertices)}
    links = {j: [] for j in range(graph.n)}
    for a, b, mult in graph.edges:
        links[index[a]].append((index[b], mult))
        links[index[b]].append((index[a], mult))
    legs = []  # (mu_i, vertices from the center out, their suffix continuants)
    for start, mu in links[center]:
        path, prev = [start], center
        while len(links[path[-1]]) == 2:
            (u, mu_u), (w, mu_w) = links[path[-1]]
            nxt, mult = (w, mu_w) if u == prev else (u, mu_u)
            assert mult == 1, "only the first edge of a leg may be multiple"
            assert nxt != center, "a leg must not return to the center"
            prev = path[-1]
            path.append(nxt)
        assert len(links[path[-1]]) == 1, "a leg must be a chain"
        weights = [graph.vertices[j].weight for j in path]
        legs.append((mu, path, [continuant(weights[k:]) for k in range(len(path) + 1)]))
    assert all(v.genus == 0 for v in graph.vertices)
    assert sum(len(path) for _, path, _ in legs) == graph.n - 1, "not a star"

    def first(mu, suf, m):  # x_1 from x_0 = mu m
        return max(1, -(-mu * m * suf[1] // suf[0]))

    b = graph.vertices[center].weight
    m = 1
    while b * m < sum(mu * first(mu, suf, m) for mu, _, suf in legs):
        m += 1
    z = [0] * graph.n
    z[center] = m
    for mu, path, suf in legs:
        x = mu * m
        for k, j in enumerate(path):
            x = z[j] = max(1, -(-x * suf[k + 1] // suf[k]))
    return z


def random_chain_weights(rng: random.Random, max_length=10, max_weight=9):
    length = rng.randint(1, max_length)
    return tuple(rng.randint(2, max_weight) for _ in range(length))


def log_terminal_forks():
    """Quotient-singularity forks that are log-terminal but not RDPs.

    Dihedral shapes (two single weight-2 arms) with assorted weights on
    the center and tail, plus forks with arm determinants (2,3,3),
    (2,3,4) and (2,3,5) realized by non-uniform weights.
    """
    return [
        ("D-fork center 3", fork_graph(3, [(2,), (2,), (2,)])),
        ("D-fork center 5", fork_graph(5, [(2,), (2,), (2,)])),
        ("D-fork tail (3,2)", fork_graph(2, [(2,), (2,), (3, 2)])),
        ("D-fork tail (2,4)", fork_graph(3, [(2,), (2,), (2, 4)])),
        ("E-fork dets (2,3,3)", fork_graph(2, [(2,), (3,), (3,)])),
        ("E-fork dets (2,3,4)", fork_graph(2, [(2,), (3,), (4,)])),
        ("E-fork dets (2,3,5)", fork_graph(2, [(2,), (3,), (5,)])),
        ("E-fork dets (2,3,5) long arm", fork_graph(2, [(2,), (3,), (3, 2)])),
    ]


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


def star_with_tail(center, leaves, tail):
    """(vertices, edges) of a vertex of weight `center` joined to one leaf
    per (weight, multiplicity) in `leaves`, with a chain of `tail`
    weight-2 vertices hanging off the center.  Near the definiteness
    bound its fundamental cycle is large, so the Laufer loop takes many
    steps."""
    chain = ["c"] + [f"t{k}" for k in range(tail)]
    vertices = [("c", center)] + [(f"l{k}", w) for k, (w, _) in enumerate(leaves)]
    vertices += [(v, 2) for v in chain[1:]]
    edges = [("c", f"l{k}", m) for k, (_, m) in enumerate(leaves)]
    edges += [(a, b, 1) for a, b in zip(chain, chain[1:])]
    return vertices, edges


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
