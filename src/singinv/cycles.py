"""Fundamental cycle, canonical cycles, and exceptional pullbacks.

The fundamental cycle is computed by the Laufer sequence; the canonical
cycle and all pullback corrections come from exact solves against the
positive intersection form.  Boundary data enters only through the
coefficients b_i and the intersection counts of the strict transforms
with each exceptional curve.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import itemgetter, mul
from typing import Callable, NamedTuple, Sequence

from .graph import (
    DualGraph,
    ExcDivisor,
    Record,
    canonical_degrees,
    definite_factor,
    solve_exceptional,
)
from .linalg import quadratic_form

# The Laufer sequence terminates on every negative-definite graph (and
# `_laufer` refuses any other), after sum(Z) - n steps.  A step at j
# touches the deg(j) + 1 nonzeros of column j of N and the sorted list
# of the k violating indices, O(k) to add one or to clear j.
# Within the input caps that count still reaches the hundreds of
# thousands (large weights joined by multiple edges make Z large), so
# the cap bounds the running time: a valid input past it is refused.
_LAUFER_CAP = 100_000


class BoundaryComponent(NamedTuple):
    """One boundary curve: coefficient b in [0, 1] and the per-vertex
    intersection counts of its strict transform."""

    name: str
    coeff: Fraction
    meets: tuple[int, ...]


class BoundaryData(NamedTuple):
    components: tuple[BoundaryComponent, ...] = ()

    def is_empty(self) -> bool:
        return not self.components


EMPTY_BOUNDARY = BoundaryData()


def boundary_component(
    name: str, coeff: Fraction | int | str, meets: Sequence[int]
) -> BoundaryComponent:
    return BoundaryComponent(name, Fraction(coeff), tuple(int(m) for m in meets))


class CycleSet(Record):
    """Everything the boundary pass produces, in vertex order, in integers.

    N is eliminated once (``graph.factor``) and every vector is kept as
    integer numerators over one denominator: ``det`` = det N and ``dq``,
    a common denominator of the boundary counts.  ``s``, ``k`` and ``q``
    are the images N Z, N Delta and dq * N b', which the Laufer sequence
    and the input give for free.  The ExcDivisor views are built on
    first read; ``boundary_canonical`` always equals ``canonical +
    boundary_part`` componentwise (e_j = a_j + b'_j).
    """

    _fields = ("z", "s", "k", "q", "det", "dq", "yk", "yq", "ye")
    z: tuple[int, ...]  # Z, >= 1 everywhere
    s: tuple[int, ...]  # N Z >= 0
    k: tuple[int, ...]  # N Delta, the canonical degrees
    q: tuple[int, ...]  # dq * N b', the weighted boundary counts
    det: int
    dq: int
    yk: tuple[int, ...]  # det * Delta
    yq: tuple[int, ...]  # det * dq * b'
    ye: tuple[int, ...]  # det * dq * e

    def __init__(self, z, s, k, q, det, dq, yk, yq, ye) -> None:
        self.__dict__.update(z=z, s=s, k=k, q=q, det=det, dq=dq, yk=yk, yq=yq, ye=ye)

    @cached_property
    def fundamental(self) -> ExcDivisor:
        return ExcDivisor(tuple(Fraction(v) for v in self.z))

    @cached_property
    def canonical(self) -> ExcDivisor:
        return ExcDivisor(tuple(Fraction(v, self.det) for v in self.yk))

    @cached_property
    def boundary_part(self) -> ExcDivisor:
        den = self.det * self.dq
        return ExcDivisor(tuple(Fraction(v, den) for v in self.yq))

    @cached_property
    def boundary_canonical(self) -> ExcDivisor:
        den = self.det * self.dq
        return ExcDivisor(tuple(Fraction(v, den) for v in self.ye))

    @cached_property
    def fundamental_genus(self) -> Fraction:
        """p_a(Z) = (Z.K + Z.Z)/2 + 1, with Z.Z = -Z.(N Z) = -Z.s."""
        zk = sum(map(mul, self.z, self.k))
        zz = -sum(map(mul, self.z, self.s))
        return Fraction(zk + zz + 2, 2)

    @cached_property
    def boundary_image(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.dq) for v in self.q)


def check_boundary(graph: DualGraph, boundary: BoundaryData) -> None:
    for comp in boundary.components:
        if comp.coeff < 0:
            raise ValueError(f"boundary component {comp.name!r}: negative coefficient")
        if comp.coeff > 1:
            raise ValueError(
                f"boundary component {comp.name!r}: coefficient {comp.coeff} > 1"
            )
        if len(comp.meets) != graph.n:
            raise ValueError(
                f"boundary component {comp.name!r}: meets vector has length "
                f"{len(comp.meets)}, expected {graph.n}"
            )
        if any(m < 0 for m in comp.meets):
            raise ValueError(
                f"boundary component {comp.name!r}: negative intersection count"
            )


def _laufer(
    graph: DualGraph, tie_break: Callable[[list[int]], int] | None = None
) -> tuple[list[int], list[int]]:
    """The Laufer sequence: Z and s = N Z, both as integer lists.

    Raises NotNegativeDefiniteError from the cached factor first, so an
    indefinite form fails before any step, and ValueError when Z needs
    more than _LAUFER_CAP steps.

    The violating indices are kept in a sorted list.  A step at j adds
    column j of N to s: the diagonal w_j > 0 can only clear j, and the
    off-diagonal entries, all <= 0, can only add neighbours of j, so a
    step visits deg(j) + 1 entries.  With no tie_break the lowest
    violating index is taken, as a rescan from index 0 would.
    """
    definite_factor(graph)
    z = [1] * graph.n
    # s = N z, summed down the columns of the symmetric N; anti-nef is s >= 0
    columns = graph.columns
    s = [sum(map(itemgetter(1), column)) for column in columns]
    violating = [j for j, t in enumerate(s) if t < 0]  # kept increasing
    if not violating:
        return z, s
    for _ in range(_LAUFER_CAP):
        if tie_break is None:
            j = violating[0]
        else:
            j = tie_break(violating[:])
            if j not in violating:
                raise ValueError("tie_break returned a non-violating index")
        z[j] += 1
        for i, c in columns[j]:
            t = s[i]
            s[i] = t + c
            if t >= 0 > t + c:
                insort(violating, i)
        if s[j] >= 0:
            violating.remove(j)
            if not violating:
                return z, s
    raise ValueError(
        "the Laufer sequence for the fundamental cycle needs more than the "
        f"cap of {_LAUFER_CAP:,} steps (steps = sum(Z) - n)"
    )


def fundamental_cycle(
    graph: DualGraph, *, tie_break: Callable[[list[int]], int] | None = None
) -> ExcDivisor:
    """Smallest integral cycle Z >= (1,..,1) with Z.E_j <= 0 for all j.

    Laufer sequence: start at all ones and repeatedly increment a
    coordinate whose curve still meets Z positively.  The result is
    independent of the increment order; the default picks the lowest
    index so runs are reproducible.  ``tie_break`` receives the list of
    violating indices and must return one of them.  A graph whose Z
    needs more than 100,000 steps (sum(Z) - n) raises ValueError.
    """
    z, _ = _laufer(graph, tie_break)
    return ExcDivisor(tuple(Fraction(v) for v in z))


def arithmetic_genus(graph: DualGraph, z: ExcDivisor) -> Fraction:
    """p_a(Z) = (Z.K + Z.Z)/2 + 1 for an effective integral cycle Z."""
    if len(z) != graph.n:
        raise ValueError(
            f"dimension mismatch: graph has {graph.n} vertices, cycle has {len(z)}"
        )
    if not z.is_integral() or not z.is_effective():
        raise ValueError("cycle must be effective and integral")
    zk = sum(zj * kj for zj, kj in zip(z, canonical_degrees(graph)))
    zz = -quadratic_form(graph.positive_form, z.coeffs)
    return Fraction(zk + zz, 2) + 1


def canonical_cycle(graph: DualGraph) -> ExcDivisor:
    """The unique divisor with Delta.E_j = -K_X.E_j for all j.

    Effective whenever no vertex is the weight-1 smooth-point marker; on
    an all-weight-2 genus-0 graph it vanishes identically.
    """
    return solve_exceptional(graph, canonical_degrees(graph))


def exceptional_pullback(
    graph: DualGraph, meets: Sequence[Fraction | int]
) -> ExcDivisor:
    """Exceptional part of a total transform from its intersection counts.

    ``meets[j]`` is the intersection number of the strict transform with
    E_j; the result is the unique correction making the total transform
    orthogonal to every exceptional curve.
    """
    values = [Fraction(m) for m in meets]
    if any(m < 0 for m in values):
        raise ValueError("negative entry in meets vector")
    return solve_exceptional(graph, values)


def boundary_cycle(graph: DualGraph, boundary: BoundaryData | None = None) -> CycleSet:
    """Fundamental cycle plus all canonical-cycle data for a boundary.

    N must be positive definite; NotNegativeDefiniteError is raised from
    the cached factor before any Laufer step.
    """
    boundary = EMPTY_BOUNDARY if boundary is None else boundary
    check_boundary(graph, boundary)
    factor = definite_factor(graph)
    n = graph.n
    meeting = [c for c in boundary.components if c.coeff and any(c.meets)]
    dq = lcm(*(c.coeff.denominator for c in meeting))
    q = [0] * n
    for c in meeting:
        scaled = c.coeff.numerator * (dq // c.coeff.denominator)
        for j, m in enumerate(c.meets):
            q[j] += scaled * m
    z, s = _laufer(graph)
    k = canonical_degrees(graph)
    yk = factor.scaled_solve(k)
    if meeting:
        yq = factor.scaled_solve(q)
        ye = [dq * a + b for a, b in zip(yk, yq)]
    else:
        yq, ye = [0] * n, yk
    return CycleSet(
        z=tuple(z),
        s=tuple(s),
        k=tuple(k),
        q=tuple(q),
        det=factor.det,
        dq=dq,
        yk=tuple(yk),
        yq=tuple(yq),
        ye=tuple(ye),
    )
