"""Weighted dual graphs of exceptional curve configurations.

A graph has one vertex per exceptional curve, carrying the weight
w = -E^2 (and an optional genus), and one edge per intersecting pair of
curves, carrying the intersection multiplicity.  Validation enforces the
two standing hypotheses exactly: the graph is connected and the
intersection matrix (E_i . E_j) is negative definite.  Weight 1 is
reserved for the single-vertex configuration that models a blown-up
smooth point.

N = -(E_i . E_j) is held in one form, its sparse `columns`, summed from
one walk over the edge list.  Every reader of N goes through them:
`form_image` gives N v, and `intersection_matrix` spreads them into the
dense matrix its contract returns.  The canonical degrees are computed
once (`canonical`) and carried through the factor once
(`canonical_forward`), and a weight sweep shares the prefix of both as
it shares the factor's rows (`reweighted`).

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

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


class Record:
    """An immutable record with an instance ``__dict__``, for the few that
    need more than a NamedTuple: cached views (``cached_property`` writes
    the instance dict directly) or a container protocol of their own.

    A subclass names its fields in ``_fields`` and stores them in
    ``__init__`` through ``self.__dict__``.  Equality, hashing and the
    repr read the fields, as a frozen dataclass's do.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


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
    caller meant a decimal, and a bool is no number here."""
    if isinstance(value, (float, bool)):
        raise ValueError(
            f"{what} must be exact (an int, a Fraction or a 'p/q' string), got {value!r}"
        )
    return Fraction(value)


class ExcDivisor(Record):
    """Exceptional Q-divisor: exact coefficients in vertex order."""

    _fields = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs) -> None:
        self.__dict__["coeffs"] = coeffs

    @classmethod
    def from_values(cls, values: Iterable[Fraction | int | str]) -> "ExcDivisor":
        return cls(tuple(exact_fraction(v, "divisor coefficient") for v in values))

    @classmethod
    def zero(cls, n: int) -> "ExcDivisor":
        return cls((Fraction(0),) * n)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def __getitem__(self, j: int) -> Fraction:
        return self.coeffs[j]

    def __add__(self, other: "ExcDivisor") -> "ExcDivisor":
        self._check_len(other)
        return ExcDivisor(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ExcDivisor") -> "ExcDivisor":
        self._check_len(other)
        return ExcDivisor(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def _check_len(self, other: "ExcDivisor") -> None:
        if len(other) != len(self):
            raise ValueError(
                f"dimension mismatch: divisors have lengths {len(self)} and {len(other)}"
            )


class DualGraph(Record):
    """The vertices and edges, checked on construction, and their count
    ``n``; the views below are computed on first read and cached."""

    _fields = ("vertices", "edges")
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    n: int

    def __init__(self, vertices, edges) -> None:
        if not vertices:
            raise GraphValidationError("graph has no vertices")
        seen: set[str] = set()
        for vid, weight, genus in vertices:
            if vid in seen:
                raise GraphValidationError(f"duplicate vertex id {vid!r}")
            seen.add(vid)
            _check_weight(vid, weight)
            if type(genus) is not int or genus < 0:
                raise GraphValidationError(
                    f"vertex {vid!r}: genus must be a nonnegative integer, got {genus!r}"
                )
        for a, b, multiplicity in edges:
            if a == b:
                raise GraphValidationError(f"self-loop at vertex {a!r}")
            for end in (a, b):
                if end not in seen:
                    raise GraphValidationError(
                        f"edge references unknown vertex id {end!r}"
                    )
            if type(multiplicity) is not int or multiplicity < 1:
                raise GraphValidationError(
                    f"edge ({a!r}, {b!r}): multiplicity must be a positive integer, "
                    f"got {multiplicity!r}"
                )
        self.__dict__.update(vertices=vertices, edges=edges, n=len(vertices))

    @cached_property
    def index(self) -> dict[str, int]:
        return {v.id: j for j, v in enumerate(self.vertices)}

    @cached_property
    def off_diagonal(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The off-diagonal nonzeros (i, N_ij) of each column j of N: minus
        the total multiplicity of the edges joining i and j, summed in the
        one walk over the edge list.  It reads no weight."""
        index = self.index
        summed: list[dict[int, int]] = [{} for _ in self.vertices]
        for a, b, multiplicity in self.edges:
            i, j = index[a], index[b]
            summed[i][j] = summed[i].get(j, 0) - multiplicity
            summed[j][i] = summed[j].get(i, 0) - multiplicity
        return tuple(tuple(column.items()) for column in summed)

    @cached_property
    def off_sums(self) -> tuple[int, ...]:
        """The sum of the off-diagonal entries of each column of N, so
        column j sums to w_j + off_sums[j].  It reads no weight."""
        return tuple(sum(c for _, c in column) for column in self.off_diagonal)

    @cached_property
    def columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzeros (i, N_ij) of each column j of N, diagonal first:
        w_j and the neighbours, so a sparse update costs deg(j) + 1.  N is
        symmetric, so column j is also row j, as `Factor` reads it."""
        return _columns(self.vertices, self.off_diagonal)

    @cached_property
    def connected(self) -> bool:
        """A walk over the nonzeros of N from vertex 0 reaches every vertex."""
        off_diagonal = self.off_diagonal
        seen = [False] * self.n
        seen[0] = True
        stack = [0]
        reached = 1
        while stack:
            for j, _ in off_diagonal[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    reached += 1
                    stack.append(j)
        return reached == self.n

    @cached_property
    def branches(self) -> tuple[tuple[int, ...], ...] | None:
        """The part of `classify.graph_shape` that reads only the edges.

        None if some pair of vertices is joined more than once.  For a
        tree with no degree above 3 and at most one vertex of degree 3,
        its branches as index paths: a chain has one, from its end of
        lower index to the other; a fork has three, its arms outward from
        the centre in order of their first vertex.  () for any other
        graph."""
        off_diagonal = self.off_diagonal
        if any(c < -1 for column in off_diagonal for _, c in column):
            return None  # a pair joined more than once: N_ij < -1
        degrees = list(map(len, off_diagonal))
        if len(self.edges) != self.n - 1 or not self.connected or max(degrees) > 3:
            return ()  # not a tree, or a vertex of degree above 3
        centers = [i for i, d in enumerate(degrees) if d == 3]
        if not centers:
            return (_walk(off_diagonal, -1, degrees.index(1) if self.n > 1 else 0),)
        if len(centers) > 1:
            return ()
        center = centers[0]
        return tuple(_walk(off_diagonal, center, j) for j, _ in sorted(off_diagonal[center]))

    @cached_property
    def factor(self) -> Factor:
        """N eliminated once per graph: Sylvester's criterion and every
        solve against N read it."""
        return Factor(self.columns)

    @cached_property
    def canonical(self) -> tuple[int, ...]:
        """The canonical degrees k_j = K_X . E_j (`canonical_degrees`).
        Entry j reads only vertex j, so a graph reweighted from vertex p
        on keeps the first p."""
        return tuple(canonical_degrees(self))

    @cached_property
    def canonical_forward(self) -> tuple[int, ...]:
        """The canonical degrees k forward-eliminated by the factor
        (`Factor.carry`): the canonical cycle is one back substitution of
        it.  Entry j reads only k_0..k_j and the factor's leading block,
        so a graph reweighted from vertex p on keeps the first p.  Needs
        N > 0, as every solve does."""
        return _carry_canonical(self.factor, (), self.canonical)

    def reweighted(self, weights: Sequence[int]) -> "DualGraph":
        """The graph on the same ids, genera and edges with the given
        weights, in vertex order, checked as any new graph is.  Only the
        new weights need a check: the rest passed `__init__` on this graph.

        With p the first vertex whose weight changes, it shares, without
        a copy, what this graph holds and the change leaves as it is:
        - the vertices before p;
        - the weight-free views this graph has computed (``index``,
          ``off_diagonal``, ``off_sums``, ``connected``, ``branches``);
        - the ``columns`` of N before p, if computed, with the rest built;
        - the first p entries of ``canonical``, if computed, with the
          rest computed;
        - the first p rows of the ``factor``, if computed
          (`Factor.prefix`), bordered by the rows from p on;
        - the first p entries of ``canonical_forward``, if computed, with
          the rest carried (`Factor.carry`) from those of ``canonical``,
          when the new factor is definite.
        So a sweep over weights computes the weight-free views once, and
        a graph reweighted from its predecessor eliminates and carries
        only its rows from p on.  A graph that has computed nothing hands
        on nothing weighted."""
        vertices, n = self.vertices, self.n
        if len(weights) != n:
            raise ValueError(f"{len(weights)} weights for {n} vertices")
        p = 0
        for v, w in zip(vertices, weights):
            if w != v.weight or type(w) is not int:
                break
            p += 1
        changed = []
        for j in range(p, n):
            vid, _, genus = vertices[j]
            _check_weight(vid, weights[j])
            changed.append(Vertex(vid, weights[j], genus))
        graph = DualGraph.__new__(DualGraph)
        shared = graph.__dict__
        shared.update(vertices=vertices[:p] + tuple(changed), edges=self.edges, n=n)
        cached = self.__dict__
        shared.update({k: cached[k] for k in _WEIGHT_FREE_VIEWS if k in cached})
        if "canonical" in cached:
            tail = tuple(canonical_degrees(graph, p))
            shared["canonical"] = cached["canonical"][:p] + tail
        if "columns" in cached:
            new = _columns(changed, cached["off_diagonal"], p)
            shared["columns"] = cached["columns"][:p] + new
            if "factor" in cached:
                factor = shared["factor"] = cached["factor"].prefix(p)
                factor.border(new)
                # canonical_forward reads canonical, so `tail` is set
                if "canonical_forward" in cached and factor.first_nonpositive is None:
                    shared["canonical_forward"] = _carry_canonical(
                        factor, cached["canonical_forward"][:p], tail
                    )
        return graph


# the views that read neither weights nor genera: `reweighted` hands them
# on, so one object may serve many graphs and nothing may write to it
_WEIGHT_FREE_VIEWS = ("index", "off_diagonal", "off_sums", "connected", "branches")


def _carry_canonical(
    factor: Factor, prefix: Sequence[int], degrees: Sequence[int]
) -> tuple[int, ...]:
    """`prefix`, the forward values of the leading canonical degrees,
    extended by those of `degrees`, the canonical degrees that follow."""
    forward = list(prefix)
    factor.carry(forward, degrees)
    return tuple(forward)


def _columns(vertices: Sequence[Vertex], off_diagonal: Sequence[tuple], start: int = 0):
    """The columns of N of `vertices`, the first of them vertex `start`."""
    return tuple([((j, v.weight), *off_diagonal[j]) for j, v in enumerate(vertices, start)])


def _check_weight(vid: str, weight: object) -> None:
    # exact ints only: a bool is no weight, and a float or a Fraction
    # would reach the integer kernel's floor divisions
    if type(weight) is not int or weight < 1:
        raise GraphValidationError(
            f"vertex {vid!r}: weight must be a positive integer, got {weight!r}"
        )


def _walk(off_diagonal: Sequence[tuple], prev: int, cur: int) -> tuple[int, ...]:
    """The vertices from `cur` on, leaving `prev` behind, up to the first
    vertex with no further neighbour: a path whose inner vertices have
    degree 2."""
    path = [cur]
    while nxt := [k for k, _ in off_diagonal[cur] if k != prev]:
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
    """K_X . E_j by adjunction: w_j + 2*g_j - 2."""
    if not 0 <= j < graph.n:
        raise IndexError(f"vertex index {j} out of range for {graph.n} vertices")
    return canonical_degrees(graph)[j]


def canonical_degrees(graph: DualGraph, start: int = 0) -> list[int]:
    """[K_X . E_j for every j from `start` on], in vertex order."""
    return [weight + 2 * genus - 2 for _, weight, genus in graph.vertices[start:]]


def solve_exceptional(
    graph: DualGraph, rhs: Sequence[Fraction | int]
) -> ExcDivisor:
    """The unique exact solution x of N x = rhs, N the positive form.

    N must be positive definite (NotNegativeDefiniteError otherwise), so
    the solution exists and is unique; if rhs >= 0 componentwise then so
    is x.
    """
    return ExcDivisor(tuple(definite_factor(graph).solve(rhs)))
