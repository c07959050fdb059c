"""Fundamental cycle, canonical cycles, and exceptional pullbacks.

The fundamental cycle is computed by the Laufer sequence; the canonical
cycle and all pullback corrections come from exact solves against the
positive intersection form.  Boundary data enters only through the
coefficients b_i and the intersection counts of the strict transforms
with each exceptional curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .graph import (
    DualGraph,
    ExcDivisor,
    canonical_degrees,
    solve_exceptional,
)
from .linalg import quadratic_form

# The Laufer sequence terminates on every negative-definite graph; the cap
# only guards against unvalidated input sending us into an endless loop.
_LAUFER_CAP = 100_000


@dataclass(frozen=True)
class BoundaryComponent:
    """One boundary curve: coefficient b in [0, 1] and the per-vertex
    intersection counts of its strict transform."""

    name: str
    coeff: Fraction
    meets: tuple[int, ...]


@dataclass(frozen=True)
class BoundaryData:
    components: tuple[BoundaryComponent, ...] = ()

    def is_empty(self) -> bool:
        return not self.components


EMPTY_BOUNDARY = BoundaryData()


def boundary_component(
    name: str, coeff: Fraction | int | str, meets: Sequence[int]
) -> BoundaryComponent:
    return BoundaryComponent(name, Fraction(coeff), tuple(int(m) for m in meets))


@dataclass(frozen=True)
class CycleSet:
    """Everything the boundary pass produces, in vertex order.

    ``boundary_canonical`` always equals ``canonical + boundary_part``
    componentwise (e_j = a_j + b'_j).  The ``*_image`` fields are N D =
    (-D.E_j), which the Laufer sequence and the solves give for free.
    """

    fundamental: ExcDivisor  # Z, integral, >= 1 everywhere
    canonical: ExcDivisor  # a_j
    boundary_part: ExcDivisor  # b'_j
    boundary_canonical: ExcDivisor  # e_j
    fundamental_genus: Fraction  # p_a(Z)
    fundamental_image: tuple[int, ...]  # s = N Z >= 0
    canonical_image: tuple[int, ...]  # k = N Delta, the canonical degrees
    boundary_image: tuple[Fraction, ...]  # q = N b', the weighted boundary counts


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
    """The Laufer sequence: Z and s = N Z, both as integer lists."""
    n = graph.n
    form = graph.positive_form
    z = [1] * n
    # s = N z; anti-nef means s >= 0 componentwise.
    s = [sum(row) for row in form]
    for _ in range(_LAUFER_CAP):
        violations = [j for j in range(n) if s[j] < 0]
        if not violations:
            return z, s
        j = violations[0] if tie_break is None else tie_break(violations)
        if j not in violations:
            raise ValueError("tie_break returned a non-violating index")
        z[j] += 1
        for i in range(n):
            s[i] += form[i][j]
    raise RuntimeError(
        "fundamental cycle did not stabilize; is the graph negative definite?"
    )


def fundamental_cycle(
    graph: DualGraph, *, tie_break: Callable[[list[int]], int] | None = None
) -> ExcDivisor:
    """Smallest integral cycle Z >= (1,..,1) with Z.E_j <= 0 for all j.

    Laufer sequence: start at all ones and repeatedly increment a
    coordinate whose curve still meets Z positively.  The result is
    independent of the increment order; the default picks the lowest
    index so runs are reproducible.  ``tie_break`` receives the list of
    violating indices and must return one of them.
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
    """Fundamental cycle plus all canonical-cycle data for a boundary."""
    boundary = EMPTY_BOUNDARY if boundary is None else boundary
    check_boundary(graph, boundary)
    n = graph.n
    q = [Fraction(0)] * n
    for comp in boundary.components:
        for j, m in enumerate(comp.meets):
            q[j] += comp.coeff * m
    z, s = _laufer(graph)
    k = canonical_degrees(graph)
    delta = solve_exceptional(graph, k)
    if any(q):
        bprime = solve_exceptional(graph, q)
        e = delta + bprime
    else:
        bprime, e = ExcDivisor.zero(n), delta
    # p_a(Z) = (Z.K + Z.Z)/2 + 1, and Z.Z = -Z.(N Z) = -Z.s
    zk = sum(zj * kj for zj, kj in zip(z, k))
    zz = -sum(zj * sj for zj, sj in zip(z, s))
    return CycleSet(
        fundamental=ExcDivisor(tuple(Fraction(v) for v in z)),
        canonical=delta,
        boundary_part=bprime,
        boundary_canonical=e,
        fundamental_genus=Fraction(zk + zz, 2) + 1,
        fundamental_image=tuple(s),
        canonical_image=tuple(k),
        boundary_image=tuple(q),
    )
