"""The delta family of singularity invariants, computed in one pass.

`analyze` derives everything from the positive form N and three vectors,
Z, Delta and b', which `boundary_cycle` computes once each from one
elimination of N, together with their images s = N Z, k = N Delta and
q = dq N b'.  All of them are integer numerators over the denominators
det N and dq, so the pass stays in integers and builds one fraction per
reported scalar.  With u = Z - Delta and v = Z - Delta_B, N v =
s - k - q / dq, so delta_y = u.(s - k) and delta_by = v.(N v) need no
further matrix product, mu = min_j b'_j / u_j is found by
cross-multiplication, and the log-terminal tests compare numerators
with the denominator.

delta_min minimizes -(v + x)^2 = (v + x)^T N (v + x) over effective
exceptional x.  N is a Stieltjes matrix (positive definite, off-diagonal
entries <= 0), so the KKT conditions x >= 0, w = N(v + x) >= 0, x.w = 0
are a linear complementarity problem with a Z-matrix.  Chandrasekaran's
monotone method solves it with at most n principal solves: on a support
S, solve N_SS x_S = -(N v)_S with x = 0 off S, add j with w_j < 0 to S
and repeat until w >= 0 (R. Chandrasekaran, Opsearch 1970;
Cottle-Pang-Stone, The Linear Complementarity Problem).  Each j it adds
lies in the final support S*, and entering only some of the violating j
keeps that true.  The method starts inside S*, from
S0 = {j : v_j < 0} | {j : (N v)_j < 0}, by least-element theory for
Z-matrices (Cottle and Veinott, Math. Programming 1972).  N is a
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
`Factor`, built on the first iteration and bordered on each later one,
is eliminated once over the whole LCP.  The right-hand side -(N v)_S
grows the same way, so each iteration forward-eliminates only its
entering entries.  A symmetric permutation leaves det N_SS and the
solution unchanged, so entry order gives the same exact answer as
sorted order.  N v is integral over dq alone, so the LCP's integers
carry no factor det N: x_S = y / (dq det N_SS) with y integral, and
v.(N v), an integer over det N dq^2, joins x_S.(N v)_S in one fraction
at the end.
An iteration pays only for the entries its entering test reads.  Every
j outside S and not next to it has w_j = (N v)_j det N_SS >= 0, since
the j with (N v)_j < 0 all enter on the first iteration and S only
grows.  So w is evaluated, in integers and through the nonzeros of N,
only on the outside neighbours of S, and x only on the members of S
next to them and on the rows their back substitution reads: 3 rows an
iteration on the 64-vertex long-arm fork, not the whole support.  One
full back substitution, at the end, completes x from the last
iteration's entries, and N_SS x_S = -(N v)_S makes the minimum
v.(N v) + x_S.(N v)_S.
`delta_min_exhaustive` instead scans all 2^n supports in fractions and
compares objectives only, giving an independent route to the same
answer.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import NamedTuple, Sequence

from .classify import Classification, ShapeKind, classify
from .cycles import BoundaryData, CycleSet, EMPTY_BOUNDARY, boundary_cycle
from .graph import DualGraph, ExcDivisor, Record
from .linalg import Factor, clear_denominators, matvec, quadratic_form, solve

DEFAULT_EPSILON = Fraction(1, 1000)

EXHAUSTIVE_LIMIT = 16


class NotLogTerminalError(ValueError):
    """Operation is only defined for log-terminal inputs."""


class InvalidNefError(ValueError):
    """A nef and big divisor must have positive self-intersection."""


class NegativeIntersectionError(ValueError):
    """min M.C must be nonnegative for nef M."""


class _DeltaMinFields(NamedTuple):
    value: Fraction
    active_set: frozenset[int]  # indices with x0_j > 0
    x_num: tuple[int, ...]  # x0 = x_num / x_den, in lowest terms
    x_den: int


class DeltaMinResult(_DeltaMinFields):
    # no __slots__: the instance dict holds the cached minimizer
    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    @classmethod
    def from_fractions(
        cls, value: Fraction, x: Sequence[Fraction]
    ) -> "DeltaMinResult":
        nums, den = clear_denominators(x)
        active = frozenset(j for j, a in enumerate(nums) if a > 0)
        return cls(value, active, tuple(nums), den)

    @cached_property
    def minimizer(self) -> ExcDivisor:
        """x0 >= 0."""
        return ExcDivisor(tuple(Fraction(a, self.x_den) for a in self.x_num))


class DeltaPrimeKind(enum.Enum):
    CHAIN_END_VALUE = "chain_end_value"  # exact value 1 - max{e at the chain ends}
    ANY_POSITIVE = "any_positive"  # any positive number works (dihedral fork)
    ZERO = "zero"


class DeltaPrime(NamedTuple):
    kind: DeltaPrimeKind
    value: Fraction | None = None  # exact for CHAIN_END_VALUE, 0 for ZERO
    epsilon: Fraction | None = None  # display stand-in for ANY_POSITIVE


class Analysis(NamedTuple):
    """Everything `analyze` derives from one graph and boundary."""

    cycles: CycleSet
    classification: Classification
    delta_y: Fraction  # -(Z - Delta)^2
    delta_by: Fraction  # -(Z - Delta_B)^2
    delta_min: DeltaMinResult
    mu: Fraction | None  # None when not log-terminal
    delta: Fraction  # delta_min when log-terminal, 0 otherwise


def quadratic_norm(graph: DualGraph, v: ExcDivisor) -> Fraction:
    """-v^2 = v^T N v; zero exactly when v is."""
    if len(v) != graph.n:
        raise ValueError(
            f"dimension mismatch: graph has {graph.n} vertices, divisor has {len(v)}"
        )
    return quadratic_form(graph.positive_form, v.coeffs)


def _stationary_on(
    form: Sequence[Sequence[int]], nv: Sequence[Fraction | int], subset: Sequence[int]
) -> list[Fraction] | None:
    """Solve the stationarity equations on `subset`; None if some x_j < 0."""
    n = len(nv)
    x = [Fraction(0)] * n
    if subset:
        sub_form = [[form[i][j] for j in subset] for i in subset]
        rhs = [-nv[i] for i in subset]
        sol = solve(sub_form, rhs)
        if any(s < 0 for s in sol):
            return None
        for i, s in zip(subset, sol):
            x[i] = s
    return x


def _check_cone(y: Sequence[int | None]) -> None:
    """Every computed entry of an LCP iterate (None: not computed) is >= 0."""
    if min(filter(None, y), default=0) < 0:
        raise RuntimeError("LCP iterate left the cone; is N a Stieltjes matrix?")


def _monotone_lcp(
    graph: DualGraph, v: Sequence[int], nv: Sequence[int], vnv: int, det: int, dq: int
) -> DeltaMinResult:
    """min (v + x)^T N (v + x) over x >= 0 by Chandrasekaran's method,
    started from the j with v_j < 0 or (N v)_j < 0, all inside the final
    support (module docstring).

    Only the signs of v are read.  N v = nv / dq and v.(N v) =
    vnv / (det dq^2), all integers.  On support S, y = det(N_SS) dq x_S,
    and w = N(v + x) has numerators nv det(N_SS) + N y over
    dq det(N_SS).
    """
    n = len(nv)
    entering = [j for j in range(n) if v[j] < 0 or nv[j] < 0]
    if not entering:  # v >= 0 and N v >= 0: x = 0 satisfies the KKT conditions
        return DeltaMinResult(Fraction(vnv, det * dq * dq), frozenset(), (0,) * n, 1)
    columns = graph.columns
    support: list[int] = []  # in entry order: each block borders the last
    where = [-1] * n  # position in the support, -1 outside it
    links: dict[int, list[tuple[int, int]]] = {}  # j next to S: [(position, N_ij)]
    block: Factor | None = None
    rhs: list[int] = []  # -(N v)_S
    forward: list[int] = []  # rhs forward-eliminated, kept across borders
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
        if block is None:
            block = Factor(rows)
        else:
            block.border(rows)
        b = [-nv[i] for i in entering]
        rhs += b
        block.carry(forward, b)
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
    det_s = block.det
    x_den = dq * det_s
    num = det_s * vnv - det * sum(map(mul, rhs, y))
    value = Fraction(num, det * dq * x_den)
    x_num = [0] * n
    g = gcd(x_den, *y)
    for j, t in zip(support, y):
        x_num[j] = t // g
    active = frozenset(itertools.compress(support, y))  # y >= 0
    return DeltaMinResult(value, active, tuple(x_num), x_den // g)


def _mu(cs: CycleSet, u: Sequence[int]) -> Fraction:
    """min_j b'_j / (z_j - a_j) = min_j yq_j / (dq * u_j), by cross-multiplying;
    u = det * (Z - Delta) > 0 on log-terminal inputs."""
    yq = cs.yq
    best = 0
    for j in range(1, len(u)):
        if yq[j] * u[best] < yq[best] * u[j]:
            best = j
    return Fraction(yq[best], cs.dq * u[best])


def analyze(graph: DualGraph, boundary: BoundaryData | None = None) -> Analysis:
    """Cycles, classification and delta family of a validated graph, each once."""
    boundary = EMPTY_BOUNDARY if boundary is None else boundary
    cs = boundary_cycle(graph, boundary)
    cls = classify(graph, boundary, cycles=cs)
    det, dq = cs.det, cs.dq
    u = [det * z - a for z, a in zip(cs.z, cs.yk)]  # det * (Z - Delta)
    nu = [s - k for s, k in zip(cs.s, cs.k)]  # N (Z - Delta)
    dy = Fraction(sum(map(mul, u, nu)), det)
    den = det * dq
    v = [den * z - e for z, e in zip(cs.z, cs.ye)]  # den * (Z - Delta_B)
    nv = [dq * a - q for a, q in zip(nu, cs.q)]  # dq * N (Z - Delta_B)
    vnv = sum(map(mul, v, nv))  # over den * dq
    dby = Fraction(vnv, den * dq) if any(cs.q) else dy
    dmin = _monotone_lcp(graph, v, nv, vnv, det, dq)
    log_terminal = cls.log_terminal
    return Analysis(
        cycles=cs,
        classification=cls,
        delta_y=dy,
        delta_by=dby,
        delta_min=dmin,
        mu=_mu(cs, u) if log_terminal else None,
        delta=dmin.value if log_terminal else Fraction(0),
    )


def delta_y(graph: DualGraph) -> Fraction:
    """-(Z - Delta)^2."""
    return analyze(graph).delta_y


def delta_by(graph: DualGraph, boundary: BoundaryData | None = None) -> Fraction:
    """-(Z - Delta_B)^2."""
    return analyze(graph, boundary).delta_by


def delta_min(graph: DualGraph, boundary: BoundaryData | None = None) -> DeltaMinResult:
    """Exact minimum of -(Z - Delta_B + x)^2 over effective exceptional x."""
    return analyze(graph, boundary).delta_min


def delta_min_exhaustive(
    graph: DualGraph, boundary: BoundaryData | None = None
) -> DeltaMinResult:
    """Same minimum by scanning every active set and comparing objectives."""
    n = graph.n
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive enumeration is capped at {EXHAUSTIVE_LIMIT} vertices")
    cs = boundary_cycle(graph, boundary)
    v = cs.fundamental - cs.boundary_canonical
    form = graph.positive_form
    nv = matvec(form, v.coeffs)
    best: tuple[Fraction, list[Fraction]] | None = None
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            x = _stationary_on(form, nv, subset)
            if x is None:
                continue
            value = quadratic_form(form, [a + b for a, b in zip(v, x)])
            if best is None or value < best[0]:
                best = (value, x)
    assert best is not None  # the empty set always yields x = 0
    return DeltaMinResult.from_fractions(*best)


def mu(graph: DualGraph, boundary: BoundaryData | None = None) -> Fraction:
    """Largest t >= 0 with t*(Z - Delta) below the boundary pullback.

    Equals min_j b'_j / (z_j - a_j); only defined on log-terminal inputs,
    where z_j - a_j > 0 for every j.  Zero exactly when the boundary
    misses the point.
    """
    value = analyze(graph, boundary).mu
    if value is None:
        raise NotLogTerminalError("mu is only defined for log-terminal inputs")
    return value


def delta(graph: DualGraph, boundary: BoundaryData | None = None) -> Fraction:
    """delta_min when log-terminal, 0 otherwise."""
    return analyze(graph, boundary).delta


def delta_prime_from(
    analysis: Analysis, epsilon: Fraction = DEFAULT_EPSILON
) -> DeltaPrime:
    """delta' from an already-computed analysis."""
    log_terminal = analysis.classification.log_terminal
    shape = analysis.classification.shape
    if log_terminal and shape.kind is ShapeKind.CHAIN:
        assert shape.ends is not None
        cs = analysis.cycles
        i, j = shape.ends
        d = cs.det * cs.dq
        return DeltaPrime(
            kind=DeltaPrimeKind.CHAIN_END_VALUE,
            value=Fraction(d - max(cs.ye[i], cs.ye[j]), d),
        )
    if log_terminal and shape.kind is ShapeKind.FORK_D:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        return DeltaPrime(kind=DeltaPrimeKind.ANY_POSITIVE, epsilon=epsilon)
    return DeltaPrime(kind=DeltaPrimeKind.ZERO, value=Fraction(0))


def delta_prime(
    graph: DualGraph,
    boundary: BoundaryData | None = None,
    epsilon: Fraction = DEFAULT_EPSILON,
) -> DeltaPrime:
    """Curve-degree threshold: 1 - max{e at the chain ends} for chains,
    "any positive number" for dihedral forks, 0 otherwise."""
    return delta_prime_from(analyze(graph, boundary), epsilon)


class ScaledVariant(NamedTuple):
    """One mu-scaled sufficient check: M^2 > (1-mu)^2 * basis and
    min M.C >= (1-mu) * basis / 2."""

    basis: Fraction
    m2_threshold: Fraction
    mc_threshold: Fraction
    m2_ok: bool
    mc_ok: bool

    @property
    def satisfied(self) -> bool:
        return self.m2_ok and self.mc_ok


class ScaledCheck(NamedTuple):
    mu: Fraction
    delta_y_variant: ScaledVariant
    delta_variant: ScaledVariant


class HypothesisCheck(NamedTuple):
    m2: Fraction
    min_mc: Fraction
    delta: Fraction
    delta_prime: DeltaPrime
    m2_exceeds_delta: bool
    mc_meets_delta_prime: bool
    scaled: ScaledCheck | None  # None when not log-terminal

    @property
    def satisfied(self) -> bool:
        return self.m2_exceeds_delta and self.mc_meets_delta_prime


def _scaled_variant(
    basis: Fraction, mu_value: Fraction, m2: Fraction, min_mc: Fraction
) -> ScaledVariant:
    m2_threshold = (1 - mu_value) ** 2 * basis
    mc_threshold = (1 - mu_value) * basis / 2
    return ScaledVariant(
        basis=basis,
        m2_threshold=m2_threshold,
        mc_threshold=mc_threshold,
        m2_ok=m2 > m2_threshold,
        mc_ok=min_mc >= mc_threshold,
    )


def check_hypotheses(
    graph: DualGraph,
    boundary: BoundaryData | None,
    m2: Fraction | int,
    min_mc: Fraction | int,
    epsilon: Fraction = DEFAULT_EPSILON,
) -> HypothesisCheck:
    """`check_hypotheses_from` on a fresh analysis."""
    return check_hypotheses_from(analyze(graph, boundary), m2, min_mc, epsilon)


def check_hypotheses_from(
    analysis: Analysis,
    m2: Fraction | int,
    min_mc: Fraction | int,
    epsilon: Fraction = DEFAULT_EPSILON,
) -> HypothesisCheck:
    """Evaluate M^2 > delta and min M.C against delta'.

    The delta' requirement is: >= the exact value for a chain; strictly
    positive for a dihedral fork (epsilon is only a reporting stand-in);
    >= 0 otherwise, which nef M satisfies automatically.  When the input
    is log-terminal the report also carries the mu-scaled sufficient
    checks, in both the delta_y and the delta basis.
    """
    m2 = Fraction(m2)
    min_mc = Fraction(min_mc)
    if m2 <= 0:
        raise InvalidNefError("M^2 must be positive for nef and big M")
    if min_mc < 0:
        raise NegativeIntersectionError("min M.C must be nonnegative for nef M")
    d = analysis.delta
    dp = delta_prime_from(analysis, epsilon)
    if dp.kind is DeltaPrimeKind.CHAIN_END_VALUE:
        assert dp.value is not None
        mc_ok = min_mc >= dp.value
    elif dp.kind is DeltaPrimeKind.ANY_POSITIVE:
        mc_ok = min_mc > 0
    else:
        mc_ok = min_mc >= 0
    scaled = None
    if analysis.mu is not None:
        scaled = ScaledCheck(
            mu=analysis.mu,
            delta_y_variant=_scaled_variant(analysis.delta_y, analysis.mu, m2, min_mc),
            delta_variant=_scaled_variant(d, analysis.mu, m2, min_mc),
        )
    return HypothesisCheck(
        m2=m2,
        min_mc=min_mc,
        delta=d,
        delta_prime=dp,
        m2_exceeds_delta=m2 > d,
        mc_meets_delta_prime=mc_ok,
        scaled=scaled,
    )
