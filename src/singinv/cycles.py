"""Fundamental cycle, canonical cycles, and exceptional pullbacks.

The fundamental cycle and `delta_min` are least elements of one kind and
come from one solver, `least_element`; the canonical cycle and all
pullback corrections come from exact solves against the positive
intersection form.  Boundary data enters only through the coefficients
b_i and the intersection counts of the strict transforms with each
exceptional curve.

N is a Stieltjes matrix (positive definite, off-diagonal entries <= 0),
so for any v the set {y >= v : N y >= 0} has a least element v + x*
(Cottle and Veinott, Math. Programming 1972), and x* solves the linear
complementarity problem with a Z-matrix x >= 0, w = N(v + x) >= 0,
x.w = 0.  Chandrasekaran's monotone method solves it with at most n
principal solves: on a support S, solve N_SS x_S = -(N v)_S with x = 0
off S, add j with w_j < 0 to S and repeat until w >= 0 (R.
Chandrasekaran, Opsearch 1970; Cottle-Pang-Stone, The Linear
Complementarity Problem).  Each j it adds lies in the final support S*,
and entering only some of the violating j keeps that true.  The method
starts inside S*, from S0 = {j : v_j < 0} | {j : (N v)_j < 0}.  N is a
nonsingular M-matrix, so N^-1 >= 0 entrywise; at the solution
v + x* = N^-1 w* >= 0, so x*_j >= -v_j > 0 wherever v_j < 0.  On
S = {j : v_j < 0} the solve gives y = v + x with (N y)_S = 0 and
y = v >= 0 off S, so N_SS y_S >= 0, y >= 0 and x_S >= -v_S > 0.  There
every j with (N v)_j < 0 has w_j <= (N v)_j < 0: it violates and may
enter.  So S0 is a support of the same one-path method, entered further
along, and its monotonicity argument runs unchanged.  On the 64-vertex
long-arm fork it takes 10 iterations; from S = {} the method takes 21.
S only grows and is kept in entry order, so each principal block N_SS
is the previous one bordered by the entering rows and columns: one
factor is eliminated once over the whole LCP.  It starts as the leading
p rows of the graph's own factor of N (`Factor.prefix`), p the longest
run 0..p-1 that the first entering vertices form, and each iteration
borders only the rows it lacks.  The right-hand side -(N v)_S grows the
same way, so each iteration forward-eliminates only its entering
entries.  A symmetric permutation leaves det N_SS and the solution
unchanged, so entry order gives the same exact answer as sorted order.
An iteration pays only for the entries its entering test reads.  Every
j outside S and not next to it has w_j = (N v)_j det N_SS >= 0, since
the j with (N v)_j < 0 all enter on the first iteration and S only
grows.  So w is evaluated, in integers and through the nonzeros of N,
only on the outside neighbours of S, and x only on the members of S
next to them and on the rows their back substitution reads: 3 rows an
iteration on the 64-vertex long-arm fork, not the whole support.  One
full back substitution, at the end, completes x from the last
iteration's entries.

The fundamental cycle Z is the least integral point of
{y >= 1 : N y >= 0} (Laufer, Amer. J. Math. 1972), found in rounds of
the same solver: l = 1, then l = ceil(least y >= l with N y >= 0),
until N l >= 0.  While l <= Z, Z lies in the round's set, so the least
element lies below Z, and so does its ceiling, Z being integral; while
N l has a negative entry, l is not in the set, so the ceiling rises
above l.  The rounds climb to Z and stop there, exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple, Sequence

from .graph import (
    DualGraph,
    definite_factor,
    exact_fraction,
    form_image,
    solve_exceptional,
)

# The rounds for Z end on every negative-definite graph (`_fundamental`
# refuses any other) after at most sum(Z) - n rounds; no smaller bound is
# known.  Near the definiteness bound a heavy vertex rises by about one a
# round: stars within the input caps have needed up to 1,505 rounds where
# sum(Z) - n <= 100,000, and 9,119 at 6 * 10^7.  The cap bounds the
# running time above those; a valid input past it is refused.
_ROUND_CAP = 10_000


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
    counts = tuple(meets)
    for m in counts:
        if type(m) is not int:  # exact ints only, as for DualGraph: none is truncated
            raise ValueError(
                f"boundary component {name!r}: intersection count must be an integer, "
                f"got {m!r}"
            )
    return BoundaryComponent(
        name, exact_fraction(coeff, f"boundary component {name!r}: coefficient"), counts
    )


class CycleSet(NamedTuple):
    """Everything the boundary pass produces, in vertex order, in integers.

    N is eliminated once (``graph.factor``) and every vector is kept as
    integer numerators over one denominator: ``det`` = det N and ``dq``,
    a common denominator of the boundary counts.  So Z is ``z``, Delta is
    ``yk`` / det, b' is ``yq`` / (det dq) and e is ``ye`` / (det dq),
    with ``ye`` = dq ``yk`` + ``yq`` (e_j = a_j + b'_j).  ``s``, ``k`` and
    ``q`` are the images N Z, N Delta and dq * N b', which the rounds for
    Z and the input give for free; ``k`` is the graph's own
    ``DualGraph.canonical``, not a copy.
    """

    z: tuple[int, ...]  # Z, >= 1 everywhere
    s: tuple[int, ...]  # N Z >= 0
    k: tuple[int, ...]  # N Delta, the canonical degrees
    q: tuple[int, ...]  # dq * N b', the weighted boundary counts
    det: int
    dq: int
    yk: tuple[int, ...]  # det * Delta
    yq: tuple[int, ...]  # det * dq * b'
    ye: tuple[int, ...]  # det * dq * e

    @property
    def fundamental_genus(self) -> int:
        """p_a(Z) = (Z.K + Z.Z)/2 + 1, with Z.Z = -Z.(N Z) = -Z.s, an
        integer: Z.K + Z.Z, for integral Z, sums the even terms
        w_j z_j (1 - z_j) + 2 z_j (g_j - 1) and 2 z_i z_j E_i.E_j."""
        zk = sum(map(mul, self.z, self.k))
        zz = -sum(map(mul, self.z, self.s))
        return (zk + zz) // 2 + 1


def check_boundary(graph: DualGraph, boundary: BoundaryData) -> None:
    """Every coefficient in [0, 1], read off its numerator and its
    denominator (> 0), and every meets vector of length n and >= 0."""
    for comp in boundary.components:
        num = comp.coeff.numerator
        if num < 0:
            raise ValueError(f"boundary component {comp.name!r}: negative coefficient")
        if num > comp.coeff.denominator:
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


def _check_cone(y: Sequence[int | None]) -> None:
    """Every computed entry of an LCP iterate (None: not computed) is >= 0."""
    if min(filter(None, y), default=0) < 0:
        raise RuntimeError("LCP iterate left the cone; is N a Stieltjes matrix?")


def least_element(
    graph: DualGraph, v: Sequence[int], nv: Sequence[int]
) -> tuple[list[int], list[int], int]:
    """The least element v + x of {y >= v : N y >= 0}, N the graph's
    positive form, by Chandrasekaran's method started from the j with
    v_j < 0 or (N v)_j < 0, all inside the final support (module
    docstring).  The caller has checked that ``graph.factor`` is
    definite: the block starts from its leading rows.

    Only the signs of v are read; nv = d N v, integral, for an integer
    d > 0.  Returns the support S in entry order, the integers y with
    x_S = y / (d det N_SS) and x = 0 off S, and det N_SS.  On S,
    w = N(v + x) has numerators nv det(N_SS) + N y over d det(N_SS).
    """
    if min(v) >= 0 and min(nv) >= 0:  # x = 0 satisfies the KKT conditions
        return [], [], 1
    n, columns = len(nv), graph.columns
    entering = [j for j in range(n) if v[j] < 0 or nv[j] < 0]
    # entering[:shared] == [0, ..., shared - 1]: that much of N_SS is N's own
    shared = next((p for p, j in enumerate(entering) if j != p), len(entering))
    block = graph.factor.prefix(shared)
    support: list[int] = []  # in entry order: each block borders the last
    where = [-1] * n  # position in the support, -1 outside it
    links: dict[int, list[tuple[int, int]]] = {}  # j next to S: [(position, N_ij)]
    forward: list[int] = []  # -(N v)_S forward-eliminated, kept across borders
    partial: list[int | None] | None = None  # y where the entering test reads it
    while entering:
        m = len(support)
        support += entering
        for p, j in enumerate(entering, m):
            where[j] = p
        rows = []  # of N_SS: the nonzeros (position, N_ij) of the entering columns
        for p, j in enumerate(entering, m):
            row = []
            for i, c in columns[j]:
                q = where[i]
                if q < 0:
                    links.setdefault(i, []).append((p, c))
                else:
                    row.append((q, c))
            rows.append(row)
        block.border(rows[max(shared - m, 0) :])  # only the rows it lacks
        block.carry(forward, [-nv[i] for i in entering])
        if not links:
            partial = None  # nothing outside S is left to enter
            break
        partial = block.back_substitute(forward, [p for e in links.values() for p, _ in e])
        _check_cone(partial)
        det_s = block.det
        entering = []
        for j, edge in links.items():
            w = nv[j] * det_s
            for p, c in edge:
                w += c * partial[p]
            if w < 0:
                entering.append(j)
        for j in entering:
            del links[j]  # no longer outside
        entering.sort()
    y = partial
    if y is None or None in y:  # complete the last iteration's solve
        y = block.back_substitute(forward, None, y)
        _check_cone(y)
    return support, y, block.det


def _fundamental(graph: DualGraph) -> tuple[list[int], list[int]]:
    """Z and s = N Z, both as integer lists, in rounds of `least_element`
    (module docstring).

    Raises NotNegativeDefiniteError from the cached factor first, so an
    indefinite form fails before any round, and ValueError when Z needs
    more than _ROUND_CAP rounds.  A round raises each z_j in the support
    by the ceiling of x_j and adds as many copies of column j of N to s.
    """
    definite_factor(graph)
    columns = graph.columns
    z = [1] * graph.n
    s = list(graph.column_sums)  # N z: anti-nef is s >= 0
    rounds = 0
    while min(s, default=0) < 0:
        if rounds == _ROUND_CAP:
            raise ValueError(
                "the fundamental cycle needs more than the cap of "
                f"{_ROUND_CAP:,} rounds of its least-element solver"
            )
        rounds += 1
        support, y, det_s = least_element(graph, z, s)
        for j, t in zip(support, y):
            step = -(-t // det_s)
            z[j] += step
            for i, c in columns[j]:
                s[i] += c * step
    return z, s


def fundamental_cycle(graph: DualGraph) -> tuple[int, ...]:
    """Smallest integral cycle Z >= (1,..,1) with Z.E_j <= 0 for all j.

    Computed in rounds of `least_element` (module docstring); a graph
    whose Z needs more than 10,000 rounds raises ValueError.
    """
    z, _ = _fundamental(graph)
    return tuple(z)


def arithmetic_genus(graph: DualGraph, z: Sequence[Fraction | int | str]) -> Fraction:
    """p_a(Z) = (Z.K + Z.Z)/2 + 1 for an effective integral cycle Z, read exactly."""
    if len(z) != graph.n:
        raise ValueError(
            f"dimension mismatch: graph has {graph.n} vertices, cycle has {len(z)}"
        )
    values = [exact_fraction(c, f"z[{j}]") for j, c in enumerate(z)]
    if any(c.denominator != 1 or c < 0 for c in values):
        raise ValueError("cycle must be effective and integral")
    ints = [c.numerator for c in values]
    zk = sum(map(mul, ints, graph.canonical))
    zz = -sum(map(mul, ints, form_image(graph, ints)))
    return Fraction(zk + zz, 2) + 1


def canonical_cycle(graph: DualGraph) -> tuple[Fraction, ...]:
    """The unique divisor with Delta.E_j = -K_X.E_j for all j.

    Effective whenever no vertex is the weight-1 smooth-point marker; on
    an all-weight-2 genus-0 graph it vanishes identically.  One back
    substitution of the graph's `canonical_forward` over det N, as
    `boundary_cycle` computes it.
    """
    factor = definite_factor(graph)
    y = factor.back_substitute(graph.canonical_forward)
    return tuple(Fraction(v, factor.det) for v in y)


def exceptional_pullback(
    graph: DualGraph, meets: Sequence[Fraction | int]
) -> tuple[Fraction, ...]:
    """Exceptional part of a total transform from its intersection counts.

    ``meets[j]`` is the intersection number of the strict transform with
    E_j; the result is the unique correction making the total transform
    orthogonal to every exceptional curve.
    """
    values = [exact_fraction(m, f"meets[{j}]") for j, m in enumerate(meets)]
    if any(m < 0 for m in values):
        raise ValueError("negative entry in meets vector")
    return solve_exceptional(graph, values)


def boundary_cycle(graph: DualGraph, boundary: BoundaryData | None = None) -> CycleSet:
    """Fundamental cycle plus all canonical-cycle data for a boundary.

    N must be positive definite; NotNegativeDefiniteError is raised from
    the cached factor before any round for Z.  Only a boundary with
    components is checked and scanned: with none, or with none that
    meets the fiber, dq = 1 and b' = 0, so e = Delta.
    """
    meeting = ()
    if boundary is not None and boundary.components:
        check_boundary(graph, boundary)
        meeting = [c for c in boundary.components if c.coeff and any(c.meets)]
    factor = definite_factor(graph)
    z, s = _fundamental(graph)
    yk = tuple(factor.back_substitute(graph.canonical_forward))
    if meeting:
        dq = lcm(*(c.coeff.denominator for c in meeting))
        q = [0] * graph.n
        for c in meeting:
            scaled = c.coeff.numerator * (dq // c.coeff.denominator)
            for j, m in enumerate(c.meets):
                q[j] += scaled * m
        yq = factor.scaled_solve(q)
        q, yq, ye = tuple(q), tuple(yq), tuple([dq * a + b for a, b in zip(yk, yq)])
    else:
        dq, q = 1, (0,) * graph.n
        yq, ye = q, yk
    return CycleSet(tuple(z), tuple(s), graph.canonical, q, factor.det, dq, yk, yq, ye)
