"""Independent correctness checks on singinv's JSON reports.

Nothing here imports singinv: the positive form N is rebuilt from the
input echo in the report, and every claim is checked with plain
Fraction arithmetic, without solving anything.
"""

from __future__ import annotations

import re
from fractions import Fraction

RATIONAL = re.compile(r"^-?[0-9]+(/[0-9]+)?$")


def positive_form(n: int, weights: list[int], edges: list[tuple[int, int, int]]) -> list[list[int]]:
    """N = -(E_i . E_j): weights on the diagonal, minus total multiplicity off it."""
    form = [[0] * n for _ in range(n)]
    for j, w in enumerate(weights):
        form[j][j] = w
    for i, j, m in edges:
        form[i][j] -= m
        form[j][i] -= m
    return form


def det_bits(weights: list[int], edges: list[tuple[int, int, int]]) -> int:
    """Bit length of det N, by fraction-free elimination (N is positive definite)."""
    a = positive_form(len(weights), weights, edges)
    n, prev = len(a), 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return abs(a[n - 1][n - 1]).bit_length()


def _matvec(form, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in form]


def _quad(form, v):
    return sum(a * b for a, b in zip(v, _matvec(form, v)))


def _vec(values) -> list[Fraction]:
    return [Fraction(x) for x in values]


def rational_errors(node, where: str = "report") -> list[str]:
    """Every rational string must re-parse to the identical canonical string."""
    if isinstance(node, dict):
        return [e for k, v in node.items() for e in rational_errors(v, f"{where}.{k}")]
    if isinstance(node, list):
        return [e for k, v in enumerate(node) for e in rational_errors(v, f"{where}[{k}]")]
    if isinstance(node, str) and RATIONAL.match(node) and str(Fraction(node)) != node:
        return [f"{where}: {node!r} does not re-parse to itself"]
    return []


def report_errors(d: dict) -> list[str]:
    """Check one singinv-report-1 dictionary; returns a list of failures."""
    errors = rational_errors(d)
    echo = d["input"]
    ids = [v["id"] for v in echo["vertices"]]
    index = {v: j for j, v in enumerate(ids)}
    n = len(ids)
    weights = [v["weight"] for v in echo["vertices"]]
    genus = [v["genus"] for v in echo["vertices"]]
    form = positive_form(n, weights, [(index[a], index[b], m) for a, b, m in echo["edges"]])

    z = _vec(d["fundamental_cycle"])
    canonical = _vec(d["canonical_cycle"])
    bprime = _vec(d["boundary_pullback"])
    e = _vec(d["boundary_canonical_cycle"])
    if not all(c.denominator == 1 and c >= 1 for c in z):
        errors.append("Z is not integral and >= 1")
    if any(x < 0 for x in _matvec(form, z)):
        errors.append("Z is not anti-nef")
    if _matvec(form, canonical) != [w + 2 * g - 2 for w, g in zip(weights, genus)]:
        errors.append("N.Delta differs from the canonical degrees")
    counts = [Fraction(0)] * n
    for comp in echo["boundary"]:
        for vid, m in comp["meets"].items():
            counts[index[vid]] += Fraction(comp["coeff"]) * m
    if _matvec(form, bprime) != counts:
        errors.append("N.b' differs from the weighted boundary counts")
    if e != [a + b for a, b in zip(canonical, bprime)]:
        errors.append("boundary canonical cycle is not Delta + b'")

    # delta_min KKT certificate for min (v + x)^T N (v + x) over x >= 0
    v = [a - b for a, b in zip(z, e)]
    x0 = _vec(d["delta_min"]["minimizer"])
    shifted = [a + b for a, b in zip(v, x0)]
    w = _matvec(form, shifted)
    if any(x < 0 for x in x0) or any(x < 0 for x in w):
        errors.append("delta_min certificate: x0 or w = N(v + x0) has a negative entry")
    if sum(a * b for a, b in zip(x0, w)) != 0:
        errors.append("delta_min certificate: x0.w != 0")
    if Fraction(d["delta_min"]["value"]) != _quad(form, shifted):
        errors.append("delta_min value is not the objective at x0")
    if d["delta_min"]["active_vertices"] != [ids[j] for j in range(n) if x0[j] > 0]:
        errors.append("delta_min active set is not the support of x0")
    zd = [a - b for a, b in zip(z, canonical)]
    if Fraction(d["delta_y"]) != _quad(form, zd):
        errors.append("delta_y != -(Z - Delta)^2")
    if Fraction(d["delta_b_y"]) != _quad(form, v):
        errors.append("delta_b_y != -(Z - Delta_B)^2")

    log_terminal = all(Fraction(c["coeff"]) < 1 for c in echo["boundary"]) and all(x < 1 for x in e)
    if d["classification"]["log_terminal"] != log_terminal:
        errors.append("log_terminal flag disagrees with the coefficients")
    expected_delta = Fraction(d["delta_min"]["value"]) if log_terminal else 0
    if Fraction(d["delta"]) != expected_delta:
        errors.append("delta is not delta_min (log-terminal) or 0")
    if log_terminal:
        mu = min(b / (a - c) for b, a, c in zip(bprime, z, canonical))
        if d["mu"] is None or Fraction(d["mu"]) != mu:
            errors.append("mu != min b'_j / (z_j - a_j)")
    if echo["nef"] is not None:
        theorem = d["theorem"]
        if Fraction(theorem["delta"]) != expected_delta:
            errors.append("theorem delta differs from delta")
        if theorem["m2_exceeds_delta"] != (Fraction(echo["nef"]["M2"]) > expected_delta):
            errors.append("theorem M^2 > delta flag is wrong")
    return errors
