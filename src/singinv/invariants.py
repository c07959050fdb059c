"""The delta family of singularity invariants, computed in one pass.

`analyze` derives everything from the positive form N and three vectors,
Z, Delta and b', which `boundary_cycle` computes once each from one
elimination of N, together with their images s = N Z, k = N Delta and
q = dq N b'.  All of them are integer numerators over the denominators
det N and dq, so the pass stays in integers and builds one fraction per
reported scalar.  With u = Z - Delta and v = Z - Delta_B, N v =
s - k - q / dq, so delta_y = u.(s - k) and delta_by = v.(N v) need no
further matrix product.  Where no boundary meets the fiber, dq = 1 and
Delta_B = Delta, so v, N v and delta_by are u, N u and delta_y, reused,
not rebuilt, and b' = 0, so mu = 0.  Otherwise mu = min_j b'_j / u_j
is found by cross-multiplication.  The log-terminal tests compare
numerators with the denominator.

delta_min minimizes -(v + x)^2 = (v + x)^T N (v + x) over effective
exceptional x.  N is a Stieltjes matrix, so the KKT conditions x >= 0,
w = N(v + x) >= 0, x.w = 0 make v + x the least element of
{y >= v : N y >= 0}, which `cycles.least_element` finds, starting from
the leading rows of N's factor that `boundary_cycle` checked (see there).
N v is integral over dq alone, so its integers carry no factor det N:
x_S = y / (dq det N_SS) with y integral, and v.(N v), an integer over
det N dq^2, joins x_S.(N v)_S in one fraction at the end, as
N_SS x_S = -(N v)_S makes the minimum v.(N v) + x_S.(N v)_S.
`delta_min_exhaustive` instead scans all 2^n supports, also in
integers: with V = det dq (Z - Delta_B) and N V summed through the
columns of N, it factors each principal block N_SS on its own, solves
N_SS y = -det N_SS (N V)_S, and scores W = det N_SS V + y on the whole
form, W.(N W) / (det dq det N_SS)^2, comparing objectives only.  It
reads neither the images s, k, q nor `least_element`, so it is an
independent route to the same answer.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from math import gcd
from operator import mul
from typing import NamedTuple, Sequence

from .classify import Classification, ShapeKind, classify
from .cycles import BoundaryData, CycleSet, EMPTY_BOUNDARY, boundary_cycle, least_element
from .graph import DualGraph, exact_fraction, form_image
from .linalg import Factor, clear_denominators

DEFAULT_EPSILON = Fraction(1, 1000)

_ZERO = Fraction(0)  # immutable, so one serves every analysis
_NONE_ACTIVE = frozenset()  # the active set of x0 = 0, shared likewise

EXHAUSTIVE_LIMIT = 16


class NotLogTerminalError(ValueError):
    """Operation is only defined for log-terminal inputs."""


class InvalidNefError(ValueError):
    """A nef and big divisor must have positive self-intersection."""


class NegativeIntersectionError(ValueError):
    """min M.C must be nonnegative for nef M."""


class DeltaMinResult(NamedTuple):
    """delta_min, its active set and its minimizer x0 >= 0 as integers
    over one denominator."""

    value: Fraction
    active_set: frozenset[int]  # indices with x0_j > 0
    x_num: tuple[int, ...]  # x0 = x_num / x_den, in lowest terms
    x_den: int


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


def quadratic_norm(graph: DualGraph, v: Sequence[Fraction | int | str]) -> Fraction:
    """-v^2 = v^T N v, v read exactly; zero exactly when v is."""
    if len(v) != graph.n:
        raise ValueError(
            f"dimension mismatch: graph has {graph.n} vertices, divisor has {len(v)}"
        )
    ints, d = clear_denominators([exact_fraction(c, f"v[{j}]") for j, c in enumerate(v)])
    return Fraction(sum(map(mul, ints, form_image(graph, ints))), d * d)


def _minimizer(
    value: Fraction, n: int, support: Sequence[int], y: Sequence[int], x_den: int
) -> DeltaMinResult:
    """The result with x = y / x_den on `support`, y >= 0, and x = 0 off
    it, in lowest terms; the active set is where y > 0."""
    x_num = [0] * n
    g = gcd(x_den, *y)
    for j, t in zip(support, y):
        x_num[j] = t // g
    active = frozenset(itertools.compress(support, y))
    return DeltaMinResult(value, active, tuple(x_num), x_den // g)


def _monotone_lcp(
    graph: DualGraph,
    v: Sequence[int],
    nv: Sequence[int],
    vnv: int,
    det: int,
    dq: int,
    dby: Fraction,
) -> DeltaMinResult:
    """min (v + x)^T N (v + x) over x >= 0: x from `least_element`, and the
    objective in one fraction (module docstring).  N v = nv / dq and
    v.(N v) = vnv / (det dq^2), all integers; dby is that quotient, the
    objective at x = 0."""
    support, y, det_s = least_element(graph, v, nv)
    if not support:  # x = 0 satisfies the KKT conditions
        return DeltaMinResult(dby, _NONE_ACTIVE, (0,) * len(nv), 1)
    x_den = dq * det_s
    num = det_s * vnv + det * sum(nv[j] * t for j, t in zip(support, y))
    return _minimizer(Fraction(num, det * dq * x_den), len(nv), support, y, x_den)


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
    unu = sum(map(mul, u, nu))
    dy = Fraction(unu, det)
    log_terminal = cls.log_terminal
    if any(cs.q):
        den = det * dq
        v = [den * z - e for z, e in zip(cs.z, cs.ye)]  # den * (Z - Delta_B)
        nv = [dq * a - q for a, q in zip(nu, cs.q)]  # dq * N (Z - Delta_B)
        vnv = sum(map(mul, v, nv))  # over den * dq
        dby = Fraction(vnv, den * dq)
        mu_value = _mu(cs, u) if log_terminal else None
    else:  # no boundary meets the fiber: dq = 1, Delta_B = Delta and b' = 0
        v, nv, vnv, dby = u, nu, unu, dy
        mu_value = _ZERO if log_terminal else None
    dmin = _monotone_lcp(graph, v, nv, vnv, det, dq, dby)
    return Analysis(
        cs, cls, dy, dby, dmin, mu_value, dmin.value if log_terminal else _ZERO
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
    """Same minimum by scanning every active set and comparing objectives,
    in integers (module docstring)."""
    n = graph.n
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive enumeration is capped at {EXHAUSTIVE_LIMIT} vertices")
    cs = boundary_cycle(graph, boundary)
    den = cs.det * cs.dq
    v = [den * z - e for z, e in zip(cs.z, cs.ye)]  # den * (Z - Delta_B)
    nv = form_image(graph, v)
    columns = graph.columns
    # the objective num / dd and its support, y and det N_SS; x = 0 first
    best = (sum(map(mul, v, nv)), den * den, (), (), 1)
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            where = {j: p for p, j in enumerate(support)}
            block = Factor(
                [[(where[i], c) for i, c in columns[j] if i in where] for j in support]
            )
            y = block.scaled_solve([-nv[j] for j in support])
            if min(y) < 0:
                continue
            det_s = block.det
            w = [det_s * t for t in v]  # det_s * den * (Z - Delta_B + x)
            for j, t in zip(support, y):
                w[j] += t
            num, dd = sum(map(mul, w, form_image(graph, w))), (den * det_s) ** 2
            if num * best[1] < best[0] * dd:
                best = (num, dd, support, y, det_s)
    num, dd, support, y, det_s = best
    return _minimizer(Fraction(num, dd), n, support, y, den * det_s)


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
    """delta' from an already-computed analysis; epsilon, the dihedral
    fork's stand-in, is read exactly and refused unless positive."""
    epsilon = exact_fraction(epsilon, "epsilon")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
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
        return DeltaPrime(kind=DeltaPrimeKind.ANY_POSITIVE, epsilon=epsilon)
    return DeltaPrime(kind=DeltaPrimeKind.ZERO, value=_ZERO)


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
    m2 = exact_fraction(m2, "M^2")
    min_mc = exact_fraction(min_mc, "min M.C")
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
