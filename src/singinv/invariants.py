"""The delta family of singularity invariants, computed in one pass.

`analyze` derives everything from the positive form N and three vectors,
Z, Delta and b', which `boundary_cycle` computes once each from one
elimination of N, together with their images s = N Z, k = N Delta and
q = N b'.  All of them are integer numerators over the denominators
det N and dq, so the pass stays in integers and builds one fraction per
reported scalar.  With u = Z - Delta and v = Z - Delta_B, N v =
s - k - q, so delta_y = u.(s - k) and delta_by = v.(s - k - q) need no
further matrix product, mu = min_j b'_j / u_j is found by
cross-multiplication, and the log-terminal tests compare numerators
with the denominator.

delta_min minimizes -(v + x)^2 = (v + x)^T N (v + x) over effective
exceptional x.  N is a Stieltjes matrix (positive definite, off-diagonal
entries <= 0), so the KKT conditions x >= 0, w = N(v + x) >= 0, x.w = 0
are a linear complementarity problem with a Z-matrix.  Chandrasekaran's
monotone method solves it with at most n principal solves: start from
S = {}, add every j with w_j < 0, solve N_SS x_S = -(N v)_S and repeat
until w >= 0 (R. Chandrasekaran, Opsearch 1970; Cottle-Pang-Stone, The
Linear Complementarity Problem).  S only grows and is kept in entry
order, so each principal block N_SS is the previous one bordered by
the entering rows and columns: one positive-definite `Factor`, built
without row exchanges on the first iteration, is bordered on each
later one, and over the whole LCP the block is eliminated once.  A symmetric permutation
leaves det N_SS and the solution unchanged, so entry order gives the
same exact answer as sorted order, and w stays in integers, updated
through the nonzeros of N (a tree has fewer than 3n).  At the end
x.w = 0, so the minimum is v.w.
`delta_min_exhaustive` instead scans all 2^n supports in fractions and
compares objectives only, giving an independent route to the same
answer.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import Sequence

from .classify import Classification, ShapeKind, classify
from .cycles import BoundaryData, CycleSet, EMPTY_BOUNDARY, boundary_cycle
from .graph import DualGraph, ExcDivisor
from .linalg import Factor, clear_denominators, matvec, quadratic_form, solve

DEFAULT_EPSILON = Fraction(1, 1000)

EXHAUSTIVE_LIMIT = 16


class NotLogTerminalError(ValueError):
    """Operation is only defined for log-terminal inputs."""


class InvalidNefError(ValueError):
    """A nef and big divisor must have positive self-intersection."""


class NegativeIntersectionError(ValueError):
    """min M.C must be nonnegative for nef M."""


@dataclass(frozen=True)
class DeltaMinResult:
    value: Fraction
    active_set: frozenset[int]  # indices with x0_j > 0
    x_num: tuple[int, ...]  # x0 = x_num / x_den, in lowest terms
    x_den: int

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


@dataclass(frozen=True)
class DeltaPrime:
    kind: DeltaPrimeKind
    value: Fraction | None = None  # exact for CHAIN_END_VALUE, 0 for ZERO
    epsilon: Fraction | None = None  # display stand-in for ANY_POSITIVE


@dataclass(frozen=True)
class Analysis:
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


def _monotone_lcp(
    form: Sequence[Sequence[int]], v: Sequence[int], nv: Sequence[int], den: int
) -> DeltaMinResult:
    """min (v + x)^T N (v + x) over x >= 0 by Chandrasekaran's method.

    v and nv = N v are integer numerators over one denominator `den`.
    On support S, y = det(N_SS) * den * x_S and w = N(v + x) has
    numerators nv * det(N_SS) + N y over den * det(N_SS).
    """
    n = len(nv)
    support: list[int] = []  # in entry order: each block borders the last
    block: Factor | None = None
    y: list[int] = []
    det_s = 1
    w = nv
    nonzeros: list[list[tuple[int, int]]] = []  # (i, N_ij) for N_ij != 0, by j
    while True:
        entering = [j for j in range(n) if w[j] < 0]
        if not entering:
            break
        if not nonzeros:
            nonzeros = [[(i, c) for i, c in enumerate(row) if c] for row in form]
        cols = [[form[i][j] for j in entering] for i in support]
        support += entering
        rows = [[form[i][j] for j in support] for i in entering]
        if block is None:
            block = Factor(rows)
        else:
            block.border(cols, rows)
        y = block.scaled_solve([-nv[i] for i in support])
        if any(t < 0 for t in y):
            raise RuntimeError("LCP iterate left the cone; is N a Stieltjes matrix?")
        det_s = block.det
        w = [t * det_s for t in nv]
        for j, t in zip(support, y):
            if t:
                for i, c in nonzeros[j]:
                    w[i] += c * t
    x_den = den * det_s
    value = Fraction(sum(map(mul, v, w)), den * x_den)
    x_num = [0] * n
    g = gcd(x_den, *y)
    for j, t in zip(support, y):
        x_num[j] = t // g
    active = frozenset(j for j, t in zip(support, y) if t > 0)
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
    nv = [det * (dq * a - q) for a, q in zip(nu, cs.q)]  # den * N (Z - Delta_B)
    dby = Fraction(sum(map(mul, v, nv)), den * den) if any(cs.q) else dy
    dmin = _monotone_lcp(graph.positive_form, v, nv, den)
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


@dataclass(frozen=True)
class ScaledVariant:
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


@dataclass(frozen=True)
class ScaledCheck:
    mu: Fraction
    delta_y_variant: ScaledVariant
    delta_variant: ScaledVariant


@dataclass(frozen=True)
class HypothesisCheck:
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
