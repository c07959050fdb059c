"""Weighted dual graphs of exceptional curve configurations.

A graph has one vertex per exceptional curve, carrying the weight
w = -E^2 (and an optional genus), and one edge per intersecting pair of
curves, carrying the intersection multiplicity.  Validation enforces the
two standing hypotheses exactly: the graph is connected and the
intersection matrix (E_i . E_j) is negative definite.  Weight 1 is
reserved for the single-vertex configuration that models a blown-up
smooth point.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .linalg import first_nonpositive_leading_minor, solve


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


@dataclass(frozen=True)
class Vertex:
    id: str
    weight: int
    genus: int = 0


@dataclass(frozen=True)
class Edge:
    a: str
    b: str
    multiplicity: int = 1


@dataclass(frozen=True)
class ExcDivisor:
    """Exceptional Q-divisor: exact coefficients in vertex order."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_values(cls, values: Iterable[Fraction | int | str]) -> "ExcDivisor":
        return cls(tuple(Fraction(v) for v in values))

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


@dataclass(frozen=True)
class DualGraph:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise GraphValidationError("graph has no vertices")
        seen: set[str] = set()
        for v in self.vertices:
            if v.id in seen:
                raise GraphValidationError(f"duplicate vertex id {v.id!r}")
            seen.add(v.id)
            if v.weight < 1:
                raise GraphValidationError(
                    f"vertex {v.id!r}: weight must be a positive integer"
                )
            if v.genus < 0:
                raise GraphValidationError(
                    f"vertex {v.id!r}: genus must be nonnegative"
                )
        for e in self.edges:
            if e.a == e.b:
                raise GraphValidationError(f"self-loop at vertex {e.a!r}")
            for end in (e.a, e.b):
                if end not in seen:
                    raise GraphValidationError(
                        f"edge references unknown vertex id {end!r}"
                    )
            if e.multiplicity < 1:
                raise GraphValidationError(
                    f"edge ({e.a!r}, {e.b!r}): multiplicity must be a positive integer"
                )

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def index(self) -> dict[str, int]:
        return {v.id: j for j, v in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in self.vertices]
        for e in self.edges:
            i, j = self.index[e.a], self.index[e.b]
            nbrs[i].add(j)
            nbrs[j].add(i)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def positive_form(self) -> tuple[tuple[int, ...], ...]:
        """N = -(E_i . E_j), built once per graph."""
        return intersection_matrix(self).positive_form

    def index_of(self, vid: str) -> int:
        try:
            return self.index[vid]
        except KeyError:
            raise GraphValidationError(f"unknown vertex id {vid!r}") from None


def build_graph(
    vertices: Iterable[Vertex | tuple],
    edges: Iterable[Edge | tuple] = (),
) -> DualGraph:
    """Assemble a DualGraph from (id, weight[, genus]) and (a, b[, mult]) specs."""
    vs = tuple(v if isinstance(v, Vertex) else Vertex(*v) for v in vertices)
    es = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
    return DualGraph(vs, es)


@dataclass(frozen=True)
class IntersectionMatrix:
    """The symmetric integer matrix (E_i . E_j) and its negation N."""

    entries: tuple[tuple[int, ...], ...]

    @cached_property
    def positive_form(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(-x for x in row) for row in self.entries)

    @property
    def n(self) -> int:
        return len(self.entries)


def intersection_matrix(graph: DualGraph) -> IntersectionMatrix:
    """E_i . E_j: diagonal -w_j, off-diagonal the total edge multiplicity."""
    n = graph.n
    m = [[0] * n for _ in range(n)]
    for j, v in enumerate(graph.vertices):
        m[j][j] = -v.weight
    for e in graph.edges:
        i, j = graph.index[e.a], graph.index[e.b]
        m[i][j] += e.multiplicity
        m[j][i] += e.multiplicity
    return IntersectionMatrix(tuple(tuple(row) for row in m))


def is_connected(graph: DualGraph) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in graph.adjacency[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == graph.n


def validate(graph: DualGraph) -> None:
    """Reject graphs that cannot arise from a resolution of a normal germ.

    Checks, in order: connectedness, negative definiteness of the
    intersection form (Sylvester's criterion on the positive form N,
    exact), and the weight-1 convention (only the single-vertex genus-0
    smooth-point graph may carry weight 1).
    """
    if not is_connected(graph):
        raise DisconnectedGraphError("graph is not connected")
    bad = first_nonpositive_leading_minor(graph.positive_form)
    if bad is not None:
        raise NotNegativeDefiniteError(bad)
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


def canonical_degree(graph: DualGraph, j: int) -> int:
    """K_X . E_j by adjunction: w_j + 2*g_j - 2."""
    if not 0 <= j < graph.n:
        raise IndexError(f"vertex index {j} out of range for {graph.n} vertices")
    return canonical_degrees(graph)[j]


def canonical_degrees(graph: DualGraph) -> list[int]:
    """[K_X . E_j for every j], in vertex order."""
    return [v.weight + 2 * v.genus - 2 for v in graph.vertices]


def solve_exceptional(
    graph: DualGraph, rhs: Sequence[Fraction | int]
) -> ExcDivisor:
    """The unique exact solution x of N x = rhs, N the positive form.

    For a validated graph N is positive definite, so the solution exists
    and is unique; if rhs >= 0 componentwise then so is x.
    """
    return ExcDivisor(tuple(solve(graph.positive_form, rhs)))
