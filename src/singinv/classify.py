"""Singularity kind, graph shape, and log-terminal predicates.

Shapes follow the standard quotient-singularity dual graphs: a chain
(type A), a fork whose valence-3 vertex carries two single weight-2
arms (type D, the dihedral shape), or a fork whose three arm
determinants are (2,3,3), (2,3,4) or (2,3,5) (type E).  Everything else
is Other; graphs with positive genus or multiple edges are outside the
classification and report Unsupported.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .continuant import continuant
from .cycles import EMPTY_BOUNDARY, BoundaryData, CycleSet, boundary_cycle
from .graph import DualGraph, ExcDivisor, canonical_degrees


class SingularityKind(enum.Enum):
    SMOOTH = "smooth"
    RDP = "rdp"
    SINGULAR = "singular"


class ShapeKind(enum.Enum):
    CHAIN = "chain"
    FORK_D = "fork_d"
    FORK_E = "fork_e"
    OTHER = "other"
    UNSUPPORTED = "unsupported"


class GraphShape(NamedTuple):
    kind: ShapeKind
    length: int | None = None  # chain only
    ends: tuple[int, int] | None = None  # chain only; equal indices when n = 1


class Classification(NamedTuple):
    kind: SingularityKind
    shape: GraphShape
    log_terminal: bool
    log_canonical: bool

    @property
    def smooth(self) -> bool:
        return self.kind is SingularityKind.SMOOTH

    @property
    def rdp(self) -> bool:
        return self.kind is SingularityKind.RDP


def is_log_terminal(boundary: BoundaryData, e: ExcDivisor) -> bool:
    """All boundary coefficients < 1 and all e_j < 1."""
    return all(c.coeff < 1 for c in boundary.components) and all(
        ej < 1 for ej in e
    )


def is_log_canonical(boundary: BoundaryData, e: ExcDivisor) -> bool:
    """All boundary coefficients <= 1 and all e_j <= 1."""
    return all(c.coeff <= 1 for c in boundary.components) and all(
        ej <= 1 for ej in e
    )


def singularity_kind(graph: DualGraph) -> SingularityKind:
    return _kind(tuple(canonical_degrees(graph)))


def _kind(k: tuple[int, ...]) -> SingularityKind:
    """The kind read off the canonical degrees k_j = w_j + 2 g_j - 2.
    Every w_j >= 1, so k = (-1,) is the single weight-1 genus-0 curve,
    and k_j = 0 only for w_j = 2 and g_j = 0: k = 0 is the all-(-2)
    genus-0 graph, whose canonical cycle vanishes."""
    if k == (-1,):
        return SingularityKind.SMOOTH
    if not any(k):
        return SingularityKind.RDP
    return SingularityKind.SINGULAR


def graph_shape(graph: DualGraph) -> GraphShape:
    """Classify a graph by shape; see the module docstring.  The edge
    structure is the weight-free `DualGraph.branches`; only the genera
    and the fork arms' weights are read here.  A disconnected graph,
    which `validate` rejects, is Other."""
    if any(genus for _, _, genus in graph.vertices):
        return GraphShape(ShapeKind.UNSUPPORTED)
    branches = graph.branches
    if branches is None:
        return GraphShape(ShapeKind.UNSUPPORTED)
    if not branches:
        return GraphShape(ShapeKind.OTHER)
    if len(branches) == 1:
        path = branches[0]
        return GraphShape(ShapeKind.CHAIN, length=len(path), ends=(path[0], path[-1]))
    vertices = graph.vertices
    arms = [tuple(vertices[j].weight for j in arm) for arm in branches]
    if arms.count((2,)) >= 2:  # two single weight-2 arms
        return GraphShape(ShapeKind.FORK_D)
    if min(map(min, arms)) >= 2:  # a weight-1 arm has no continuant
        if sorted(map(continuant, arms)) in ([2, 3, 3], [2, 3, 4], [2, 3, 5]):
            return GraphShape(ShapeKind.FORK_E)
    return GraphShape(ShapeKind.OTHER)


def classify(
    graph: DualGraph,
    boundary: BoundaryData | None = None,
    *,
    cycles: CycleSet | None = None,
) -> Classification:
    boundary = EMPTY_BOUNDARY if boundary is None else boundary
    if cycles is None:
        cycles = boundary_cycle(graph, boundary)
    # every e_j < 1 (<= 1) exactly when the largest numerator over
    # det * dq is below it
    d = cycles.det * cycles.dq
    top = max(cycles.ye)
    log_terminal, log_canonical = top < d, top <= d
    if boundary.components:
        coeffs = [c.coeff for c in boundary.components]
        log_terminal = log_terminal and all(c < 1 for c in coeffs)
        log_canonical = log_canonical and all(c <= 1 for c in coeffs)
    return Classification(
        kind=_kind(cycles.k),
        shape=graph_shape(graph),
        log_terminal=log_terminal,
        log_canonical=log_canonical,
    )
