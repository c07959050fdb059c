"""Weighted dual graphs of exceptional curve configurations.

A graph has one vertex per exceptional curve, carrying the weight
w = -E^2 (and an optional genus), and one edge per intersecting pair of
curves, carrying the intersection multiplicity.  Validation enforces the
two standing hypotheses exactly: the graph is connected and the
intersection matrix (E_i . E_j) is negative definite.  Weight 1 is
reserved for the single-vertex configuration that models a blown-up
smooth point.

N = -(E_i . E_j) is held once, in one form: its sparse `columns`, each
the diagonal w_j first and then the summed multiplicities, built in the
one walk over the edge list that checks it.  Every reader of N goes
through them, the graph's own views too: `form_image` gives N v, and
`intersection_matrix` spreads them into the dense matrix its contract
returns.  A graph computes every view that costs O(n + m) when it is
built, the canonical degrees (`canonical`) among them; only the
elimination of N (`factor`) and the canonical degrees carried through it
(`canonical_forward`) wait for a first read.  A weight sweep starts from
a copy of the source's views, so it shares every weight-free one whole,
`has_genus` among them (genera never change), and replaces those that
read a weight in one loop over the vertices whose weight changes,
sharing their prefix as it shares the factor's rows (`reweighted`).

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .linalg import Factor


class GraphValidationError(ValueError):
    """The input is not a valid exceptional configuration."""


class DisconnectedGraphError(GraphValidationError):
    """The exceptional locus of a germ is connected; this graph is not."""


class NotNegativeDefiniteError(GraphValidationError):
    """The intersection form fails negative definiteness.

    ``minor_index`` is the size k of the first leading principal minor of
    the positive form that is not strictly positive.
    """

    def __init__(self, minor_index: int):
        super().__init__(
            "intersection form is not negative definite "
            f"(leading {minor_index}x{minor_index} minor of the positive form is <= 0)"
        )
        self.minor_index = minor_index


class IllegalWeightError(GraphValidationError):
    """Weight 1 outside the single-vertex smooth-point configuration."""


class Vertex(NamedTuple):
    id: str
    weight: int
    genus: int = 0


class Edge(NamedTuple):
    a: str
    b: str
    multiplicity: int = 1


def exact_fraction(value: Fraction | int | str, what: str) -> Fraction:
    """Fraction(value), refusing a float or a bool: Fraction would read a
    float's binary expansion (0.1 as 3602879701896397/2**55), where the
    caller meant a decimal, and a bool is no number here.  A Fraction is
    immutable, so one comes back as it is, not copied."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise ValueError(
            f"{what} must be exact (an int, a Fraction or a 'p/q' string), got {value!r}"
        )
    return Fraction(value)


class DualGraph:
    """The vertices and edges, checked on construction, and the views of
    them that cost O(n + m), computed there too: N's sparse ``columns``,
    summed in the one walk over the edge list that checks it, and from
    them `_connected`, `_branches`, ``has_genus``, ``column_sums`` and
    ``canonical``.  Only ``factor`` and ``canonical_forward`` wait for
    their first read, so input refused for another reason eliminates
    nothing.  A view that reads no weight needs nothing more:
    `reweighted` copies every view and replaces only the weighted ones.

    Unlike every other record it is no NamedTuple: ``cached_property``
    writes those two views into its instance dict.  It refuses assignment
    and deletion all the same, and equality, hashing and the repr read
    only ``vertices`` and ``edges``."""

    _fields = ("vertices", "edges")
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    n: int
    index: dict[str, int]
    columns: tuple[tuple[tuple[int, int], ...], ...]  # also N's rows, as `Factor` reads them
    connected: bool
    branches: tuple[tuple[int, ...], ...] | None
    has_genus: bool  # some vertex has genus > 0
    column_sums: tuple[int, ...]  # N 1
    canonical: tuple[int, ...]

    def __init__(self, vertices, edges) -> None:
        if not vertices:
            raise GraphValidationError("graph has no vertices")
        index: dict[str, int] = {}
        summed: list[dict[int, int]] = []  # column j of N, diagonal first
        for vid, weight, genus in vertices:
            if vid in index:
                raise GraphValidationError(f"duplicate vertex id {vid!r}")
            index[vid] = len(index)
            _check_weight(vid, weight)
            if type(genus) is not int or genus < 0:
                raise GraphValidationError(
                    f"vertex {vid!r}: genus must be a nonnegative integer, got {genus!r}"
                )
            summed.append({index[vid]: weight})
        for a, b, multiplicity in edges:
            if a == b:
                raise GraphValidationError(f"self-loop at vertex {a!r}")
            for end in (a, b):
                if end not in index:
                    raise GraphValidationError(
                        f"edge references unknown vertex id {end!r}"
                    )
            if type(multiplicity) is not int or multiplicity < 1:
                raise GraphValidationError(
                    f"edge ({a!r}, {b!r}): multiplicity must be a positive integer, "
                    f"got {multiplicity!r}"
                )
            i, j = index[a], index[b]  # N_ij is minus the summed multiplicity
            summed[i][j] = summed[i].get(j, 0) - multiplicity
            summed[j][i] = summed[j].get(i, 0) - multiplicity
        columns = tuple(tuple(column.items()) for column in summed)
        connected = _connected(columns)
        self.__dict__.update(
            vertices=vertices, edges=edges, n=len(vertices), index=index,
            columns=columns, connected=connected,
            branches=_branches(columns, len(edges), connected),
            has_genus=any(genus for _, _, genus in vertices),
            column_sums=tuple(sum(c for _, c in column) for column in columns),
            canonical=tuple(weight + 2 * genus - 2 for _, weight, genus in vertices),
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is DualGraph:
            return (self.vertices, self.edges) == (other.vertices, other.edges)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"DualGraph(vertices={self.vertices!r}, edges={self.edges!r})"

    @cached_property
    def factor(self) -> Factor:
        """N eliminated once per graph: Sylvester's criterion and every
        solve against N read it."""
        return Factor(self.columns)

    @cached_property
    def canonical_forward(self) -> tuple[int, ...]:
        """The canonical degrees k forward-eliminated by the factor
        (`Factor.carry`): the canonical cycle is one back substitution of
        it.  Entry j reads only k_0..k_j and the factor's leading block.
        Needs N > 0, as every solve does."""
        return _carry_canonical(self.factor, (), self.canonical)

    def reweighted(self, weights: Sequence[int]) -> "DualGraph":
        """The graph on the same ids, genera and edges with the given
        weights, in vertex order, checked as any new graph is.  Only the
        new weights need a check: the rest passed `__init__` on this graph.

        It starts from a copy of this graph's instance dict, so it shares
        every weight-free view without a copy.  With p the first vertex
        whose weight changes, it shares this graph's first p vertices,
        columns of N, column sums, canonical degrees and factor rows
        (`Factor.prefix`, which eliminates this graph first if it has not
        been), and one loop over the vertices from p on checks each new
        weight and builds its vertex, its column (the new diagonal, then
        this graph's off-diagonal entries), its column sum and its
        canonical degree.  When this graph's factor and the new one are
        both definite, it holds ``canonical_forward`` too: this graph's
        first p entries with the rest carried (`Factor.carry`); otherwise
        that view is computed on its first read.  So a sweep over weights
        computes the weight-free views once, and each graph reweighted
        from the one before eliminates and carries only its rows from p
        on, whatever the one before has read."""
        vertices, n = self.vertices, self.n
        if len(weights) != n:
            raise ValueError(f"{len(weights)} weights for {n} vertices")
        p = 0
        for v, w in zip(vertices, weights):
            if w != v.weight or type(w) is not int:
                break
            p += 1
        columns, sums = self.columns, self.column_sums
        changed, new, new_sums, degrees = [], [], [], []
        for j in range(p, n):
            vid, old, genus = vertices[j]
            w = weights[j]
            _check_weight(vid, w)
            changed.append(Vertex(vid, w, genus))
            new.append(((j, w), *columns[j][1:]))
            new_sums.append(sums[j] + w - old)
            degrees.append(w + 2 * genus - 2)
        factor = self.factor.prefix(p)
        factor.border(new)
        graph = DualGraph.__new__(DualGraph)
        shared = graph.__dict__
        shared.update(self.__dict__)  # every view; those that read a weight follow
        shared.update(
            vertices=vertices[:p] + tuple(changed),
            columns=columns[:p] + tuple(new),
            column_sums=sums[:p] + tuple(new_sums),
            canonical=self.canonical[:p] + tuple(degrees),
            factor=factor,
        )
        if factor.first_nonpositive is None and self.factor.first_nonpositive is None:
            shared["canonical_forward"] = _carry_canonical(
                factor, self.canonical_forward[:p], degrees
            )
        else:
            shared.pop("canonical_forward", None)
        return graph


def _connected(columns: Sequence[tuple]) -> bool:
    """A walk over the nonzeros of N from vertex 0 reaches every vertex."""
    seen = [False] * len(columns)
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        for j, _ in columns[stack.pop()]:
            if not seen[j]:
                seen[j] = True
                reached += 1
                stack.append(j)
    return reached == len(columns)


def _branches(columns: Sequence[tuple], edge_count: int, connected: bool) -> tuple | None:
    """The part of `classify.graph_shape` that reads only the edges.

    None if some pair of vertices is joined more than once.  For a tree
    with no degree above 3 and at most one vertex of degree 3, its
    branches as index paths: a chain has one, from its end of lower
    index to the other; a fork has three, its arms outward from the
    centre in order of their first vertex.  () for any other graph."""
    if any(c < -1 for column in columns for _, c in column):
        return None  # a pair joined more than once: N_ij < -1 (every w_j >= 1)
    n, degrees = len(columns), [len(column) - 1 for column in columns]
    if edge_count != n - 1 or not connected or max(degrees) > 3:
        return ()  # not a tree, or a vertex of degree above 3
    centers = [i for i, d in enumerate(degrees) if d == 3]
    if not centers:
        return (_walk(columns, -1, degrees.index(1) if n > 1 else 0),)
    if len(centers) > 1:
        return ()
    center = centers[0]
    return tuple(_walk(columns, center, j) for j, _ in sorted(columns[center][1:]))


def _carry_canonical(
    factor: Factor, prefix: Sequence[int], degrees: Sequence[int]
) -> tuple[int, ...]:
    """`prefix`, the forward values of the leading canonical degrees,
    extended by those of `degrees`, the canonical degrees that follow."""
    forward = list(prefix)
    factor.carry(forward, degrees)
    return tuple(forward)


def _check_weight(vid: str, weight: object) -> None:
    # exact ints only: a bool is no weight, and a float or a Fraction
    # would reach the integer kernel's floor divisions
    if type(weight) is not int or weight < 1:
        raise GraphValidationError(
            f"vertex {vid!r}: weight must be a positive integer, got {weight!r}"
        )


def _walk(columns: Sequence[tuple], prev: int, cur: int) -> tuple[int, ...]:
    """The vertices from `cur` on, leaving `prev` behind, up to the first
    vertex with no further neighbour: a path whose inner vertices have
    degree 2.  A column's first pair is its diagonal, so its neighbours
    follow it."""
    path = [cur]
    while nxt := [k for k, _ in columns[cur][1:] if k != prev]:
        prev, cur = cur, nxt[0]
        path.append(cur)
    return tuple(path)


def build_graph(
    vertices: Iterable[Vertex | tuple],
    edges: Iterable[Edge | tuple] = (),
) -> DualGraph:
    """Assemble a DualGraph from (id, weight[, genus]) and (a, b[, mult]) specs."""
    vs = tuple(v if isinstance(v, Vertex) else Vertex(*v) for v in vertices)
    es = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
    return DualGraph(vs, es)


class IntersectionMatrix(NamedTuple):
    """The symmetric integer matrix (E_i . E_j) and its negation N."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def positive_form(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(-x for x in row) for row in self.entries)

    @property
    def n(self) -> int:
        return len(self.entries)


def intersection_matrix(graph: DualGraph) -> IntersectionMatrix:
    """E_i . E_j = -N_ij: diagonal -w_j, off-diagonal the total edge
    multiplicity, spread from the `columns` of N."""
    n = graph.n
    entries = [[0] * n for _ in range(n)]
    for j, column in enumerate(graph.columns):
        for i, c in column:
            entries[i][j] = -c
    return IntersectionMatrix(tuple(map(tuple, entries)))


def form_image(graph: DualGraph, v: Sequence[Fraction | int]) -> list[Fraction | int]:
    """N v, exactly, through the nonzeros of N; v.(N v) is -v^2."""
    return [sum(c * v[i] for i, c in column) for column in graph.columns]


def validate(graph: DualGraph) -> None:
    """Reject graphs that cannot arise from a resolution of a normal germ.

    Checks, in order: connectedness, negative definiteness of the
    intersection form (Sylvester's criterion on the positive form N,
    exact), and the weight-1 convention (only the single-vertex genus-0
    smooth-point graph may carry weight 1).
    """
    if not graph.connected:
        raise DisconnectedGraphError("graph is not connected")
    definite_factor(graph)
    smooth_convention = (
        graph.n == 1 and graph.vertices[0].weight == 1 and graph.vertices[0].genus == 0
    )
    if not smooth_convention:
        for v in graph.vertices:
            if v.weight == 1:
                raise IllegalWeightError(
                    f"vertex {v.id!r} has weight 1; a (-1)-curve is only allowed "
                    "as the single-vertex smooth-point configuration"
                )


def definite_factor(graph: DualGraph) -> Factor:
    """The cached factor of N; NotNegativeDefiniteError unless N > 0."""
    bad = graph.factor.first_nonpositive
    if bad is not None:
        raise NotNegativeDefiniteError(bad)
    return graph.factor


def canonical_degree(graph: DualGraph, j: int) -> int:
    """K_X . E_j by adjunction: w_j + 2*g_j - 2, read off `DualGraph.canonical`."""
    if type(j) is not int:  # a bool or a float is no vertex index
        raise TypeError(f"vertex index must be an int, got {j!r}")
    if not 0 <= j < graph.n:
        raise IndexError(f"vertex index {j} out of range for {graph.n} vertices")
    return graph.canonical[j]


def solve_exceptional(
    graph: DualGraph, rhs: Sequence[Fraction | int | str]
) -> tuple[Fraction, ...]:
    """The unique exact solution x of N x = rhs, N the positive form and
    rhs read exactly (`exact_fraction`).  N must be positive definite
    (NotNegativeDefiniteError otherwise); if rhs >= 0 then so is x."""
    values = [exact_fraction(x, f"rhs[{j}]") for j, x in enumerate(rhs)]
    return tuple(definite_factor(graph).solve(values))
