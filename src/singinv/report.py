"""Assembly and serialization of the full invariant report.

The report is a pure function of the input: given the same graph,
boundary and nef data it is bit-identical across runs.  Rationals are
serialized as exact "p/q" strings (plain "p" when integral) so every
emitted value re-parses to the identical fraction.  The vectors Z,
Delta, b', e and x0 are printed from the integers the analysis holds
(`CycleSet`, `DeltaMinResult`), each entry reduced over its denominator
by `_ratios`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Sequence

from .classify import Classification, ShapeKind
from .cycles import BoundaryData, CycleSet, EMPTY_BOUNDARY
from .graph import DualGraph, exact_fraction, validate
from .invariants import (
    DEFAULT_EPSILON,
    DeltaMinResult,
    DeltaPrime,
    DeltaPrimeKind,
    HypothesisCheck,
    ScaledVariant,
    analyze,
    check_hypotheses_from,
    delta_min_exhaustive,
    delta_prime_from,
)

REPORT_FORMAT = "singinv-report-1"


class NefData(NamedTuple):
    m2: Fraction
    min_mc: Fraction


class SingularityReport(NamedTuple):
    """An analysis together with its input and the reporting options:
    the fields of `Analysis`, in its order, then the rest."""

    cycles: CycleSet
    classification: Classification
    delta_y: Fraction
    delta_by: Fraction
    delta_min: DeltaMinResult
    mu: Fraction | None
    delta: Fraction
    graph: DualGraph
    boundary: BoundaryData
    nef: NefData | None
    epsilon: Fraction
    delta_min_oracle: DeltaMinResult | None
    delta_prime: DeltaPrime
    theorem: HypothesisCheck | None

    @property
    def oracle_matches(self) -> bool | None:
        if self.delta_min_oracle is None:
            return None
        # x_num / x_den is in lowest terms, so equal minimizers have
        # equal integers
        oracle, dmin = self.delta_min_oracle, self.delta_min
        return (oracle.value, oracle.x_num, oracle.x_den) == (
            dmin.value, dmin.x_num, dmin.x_den
        )


def build_report(
    graph: DualGraph,
    boundary: BoundaryData | None = None,
    nef: NefData | None = None,
    *,
    epsilon: Fraction = DEFAULT_EPSILON,
    verify_delta_min: bool = False,
) -> SingularityReport:
    boundary = EMPTY_BOUNDARY if boundary is None else boundary
    epsilon = exact_fraction(epsilon, "epsilon")  # delta_prime_from refuses <= 0
    validate(graph)
    a = analyze(graph, boundary)
    oracle = delta_min_exhaustive(graph, boundary) if verify_delta_min else None
    if nef is None:
        theorem, dprime = None, delta_prime_from(a, epsilon)
    else:  # the check computes delta' from the same analysis and epsilon
        theorem = check_hypotheses_from(a, nef.m2, nef.min_mc, epsilon)
        dprime = theorem.delta_prime
    return SingularityReport(*a, graph, boundary, nef, epsilon, oracle, dprime, theorem)


def _ratios(nums: Sequence[int], den: int) -> list[str]:
    """[str(Fraction(v, den)) for v in nums], den >= 1, without a Fraction:
    each v over den in lowest terms, "p" when integral."""
    if den == 1:
        return list(map(str, nums))
    out = []
    for v in nums:
        g = gcd(v, den)
        out.append(str(v // g) if g == den else f"{v // g}/{den // g}")
    return out


def _vectors(report: SingularityReport) -> tuple[list[str], ...]:
    """Z, Delta, b', e and x0 as printed, from the analysis's integers."""
    cs, dmin = report.cycles, report.delta_min
    den = cs.det * cs.dq
    return (
        list(map(str, cs.z)),
        _ratios(cs.yk, cs.det),
        _ratios(cs.yq, den),
        _ratios(cs.ye, den),
        _ratios(dmin.x_num, dmin.x_den),
    )


def _input_echo(report: SingularityReport) -> dict:
    g = report.graph
    echo: dict = {
        "vertices": [
            {"id": v.id, "weight": v.weight, "genus": v.genus} for v in g.vertices
        ],
        "edges": [[e.a, e.b, e.multiplicity] for e in g.edges],
        "boundary": [
            {
                "name": c.name,
                "coeff": str(c.coeff),
                "meets": {
                    g.vertices[j].id: m for j, m in enumerate(c.meets) if m != 0
                },
            }
            for c in report.boundary.components
        ],
        "nef": None,
    }
    if report.nef is not None:
        echo["nef"] = {
            "M2": str(report.nef.m2),
            "minMC": str(report.nef.min_mc),
        }
    return echo


def _shape_dict(report: SingularityReport) -> dict:
    shape = report.classification.shape
    ends = None
    if shape.ends is not None:
        ends = [report.graph.vertices[i].id for i in shape.ends]
    return {"kind": shape.kind.value, "length": shape.length, "ends": ends}


def _delta_prime_dict(dp: DeltaPrime) -> dict:
    return {
        "kind": dp.kind.value,
        "value": str(dp.value) if dp.value is not None else None,
        "epsilon": str(dp.epsilon) if dp.epsilon is not None else None,
    }


def _scaled_variant_dict(sv: ScaledVariant) -> dict:
    return {
        "basis": str(sv.basis),
        "m2_threshold": str(sv.m2_threshold),
        "mc_threshold": str(sv.mc_threshold),
        "m2_ok": sv.m2_ok,
        "mc_ok": sv.mc_ok,
        "satisfied": sv.satisfied,
    }


def _theorem_dict(check: HypothesisCheck) -> dict:
    scaled = None
    if check.scaled is not None:
        scaled = {
            "mu": str(check.scaled.mu),
            "delta_y_basis": _scaled_variant_dict(check.scaled.delta_y_variant),
            "delta_basis": _scaled_variant_dict(check.scaled.delta_variant),
        }
    return {
        "M2": str(check.m2),
        "min_MC": str(check.min_mc),
        "delta": str(check.delta),
        "delta_prime": _delta_prime_dict(check.delta_prime),
        "m2_exceeds_delta": check.m2_exceeds_delta,
        "mc_meets_delta_prime": check.mc_meets_delta_prime,
        "hypotheses_satisfied": check.satisfied,
        "scaled": scaled,
    }


def report_to_dict(report: SingularityReport) -> dict:
    g = report.graph
    z, canonical, boundary_part, boundary_canonical, x0 = _vectors(report)
    dmin: dict = {
        "value": str(report.delta_min.value),
        "minimizer": x0,
        "active_vertices": [
            g.vertices[j].id for j in sorted(report.delta_min.active_set)
        ],
    }
    if report.delta_min_oracle is not None:
        dmin["oracle"] = {
            "value": str(report.delta_min_oracle.value),
            "matches": report.oracle_matches,
        }
    return {
        "format": REPORT_FORMAT,
        "input": _input_echo(report),
        "vertex_ids": [v.id for v in g.vertices],
        "classification": {
            "kind": report.classification.kind.value,
            "shape": _shape_dict(report),
            "log_terminal": report.classification.log_terminal,
            "log_canonical": report.classification.log_canonical,
        },
        "fundamental_cycle": z,
        "arithmetic_genus": str(report.cycles.fundamental_genus),
        "canonical_cycle": canonical,
        "boundary_pullback": boundary_part,
        "boundary_canonical_cycle": boundary_canonical,
        "delta_y": str(report.delta_y),
        "delta_b_y": str(report.delta_by),
        "delta_min": dmin,
        "mu": str(report.mu) if report.mu is not None else None,
        "delta": str(report.delta),
        "delta_prime": _delta_prime_dict(report.delta_prime),
        "theorem": _theorem_dict(report.theorem) if report.theorem else None,
    }


def _vector_text(entries: list[str]) -> str:
    return "[" + ", ".join(entries) + "]"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _shape_text(report: SingularityReport) -> str:
    shape = report.classification.shape
    if shape.kind is ShapeKind.CHAIN:
        assert shape.ends is not None
        ids = [report.graph.vertices[i].id for i in shape.ends]
        return f"chain of length {shape.length} (ends {ids[0]}, {ids[1]})"
    return {
        ShapeKind.FORK_D: "fork, dihedral type",
        ShapeKind.FORK_E: "fork, exceptional type",
        ShapeKind.OTHER: "other",
        ShapeKind.UNSUPPORTED: "unsupported (genus or multiple edges)",
    }[shape.kind]


def _delta_prime_text(dp: DeltaPrime) -> str:
    if dp.kind is DeltaPrimeKind.CHAIN_END_VALUE:
        return f"{dp.value!s}  (chain-end value)"
    if dp.kind is DeltaPrimeKind.ANY_POSITIVE:
        return f"any positive number  (reporting stand-in {dp.epsilon!s})"
    return "0"


def render_text(report: SingularityReport) -> str:
    g = report.graph
    n_edges = len(g.edges)
    lines = [
        "configuration: "
        f"{g.n} {'vertex' if g.n == 1 else 'vertices'}, "
        f"{n_edges} {'edge' if n_edges == 1 else 'edges'}",
        "vertices:",
    ]
    for v in g.vertices:
        genus = f", genus {v.genus}" if v.genus else ""
        lines.append(f"  {v.id}: weight {v.weight}{genus}")
    if report.boundary.is_empty():
        lines.append("boundary: (none)")
    else:
        lines.append("boundary:")
        for c in report.boundary.components:
            meets = ", ".join(
                f"{g.vertices[j].id}:{m}" for j, m in enumerate(c.meets) if m
            )
            lines.append(
                f"  {c.name}: coefficient {c.coeff!s}"
                + (f", meets {meets}" if meets else ", misses the fiber")
            )
    cls = report.classification
    z, canonical, boundary_part, boundary_canonical, x0 = map(
        _vector_text, _vectors(report)
    )
    lines += [
        "classification:",
        f"  kind:          {cls.kind.value}",
        f"  shape:         {_shape_text(report)}",
        f"  log terminal:  {_yesno(cls.log_terminal)}",
        f"  log canonical: {_yesno(cls.log_canonical)}",
        "cycles:",
        f"  fundamental Z:      {z}",
        f"  p_a(Z):             {report.cycles.fundamental_genus!s}",
        f"  canonical:          {canonical}",
        f"  boundary part b':   {boundary_part}",
        f"  boundary canonical: {boundary_canonical}",
    ]
    active = [g.vertices[j].id for j in sorted(report.delta_min.active_set)]
    active_text = ", ".join(active) if active else "none"
    lines += [
        "invariants:",
        f"  delta_y   = {report.delta_y!s}",
        f"  delta_B,y = {report.delta_by!s}",
        f"  delta_min = {report.delta_min.value!s}  "
        f"(x0 = {x0}; active: {active_text})",
    ]
    if report.delta_min_oracle is not None:
        lines.append(
            f"  delta_min oracle: {report.delta_min_oracle.value!s}"
            f"  (matches: {_yesno(bool(report.oracle_matches))})"
        )
    mu_text = str(report.mu) if report.mu is not None else "undefined (not log-terminal)"
    lines += [
        f"  mu        = {mu_text}",
        f"  delta     = {report.delta!s}",
        f"  delta'    = {_delta_prime_text(report.delta_prime)}",
    ]
    if report.theorem is not None:
        t = report.theorem
        lines += [
            f"theorem hypotheses (M^2 = {t.m2!s}, "
            f"min M.C = {t.min_mc!s}):",
            f"  M^2 > delta = {t.delta!s}:  {_yesno(t.m2_exceeds_delta)}",
            f"  min M.C meets delta' [{_delta_prime_text(t.delta_prime)}]:  "
            f"{_yesno(t.mc_meets_delta_prime)}",
            f"  satisfied: {_yesno(t.satisfied)}",
        ]
        if t.scaled is not None:
            s = t.scaled
            lines.append(f"  mu-scaled sufficient checks (mu = {s.mu!s}):")
            for label, variant in (
                ("delta_y basis", s.delta_y_variant),
                ("delta basis  ", s.delta_variant),
            ):
                lines.append(
                    f"    {label}: M^2 > {variant.m2_threshold!s} "
                    f"{_yesno(variant.m2_ok)}; min M.C >= "
                    f"{variant.mc_threshold!s} {_yesno(variant.mc_ok)}"
                )
    return "\n".join(lines) + "\n"
