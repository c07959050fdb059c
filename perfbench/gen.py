"""Seeded input generators for the benchmark workloads.

Every graph is valid by construction, without asking the program's own
``validate``: either its positive form N is connected and weakly
diagonally dominant with at least one strictly dominant row (hence
positive definite), or it is a known ADE configuration.  Weights are at
least 2, so the weight-1 smooth-point convention never applies.
"""

from __future__ import annotations

import json
import random

# Report-corpus graph kinds, chosen so that every branch of
# classification and every part of the boundary pass is exercised:
# chains (type A), trees (forks and beyond), graphs with a cycle,
# multi-edges and positive genus (both "unsupported" shapes), and the
# all-weight-2 ADE configurations (RDPs, dihedral and exceptional forks).
GRAPH_KINDS = ("chain", "tree", "cycle", "multi", "genus", "ade")

ADE_SMALL = (
    ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
    ("D", 4), ("D", 5), ("D", 6), ("E", 6),
)


def _ids(n: int) -> list[str]:
    return [f"E{k + 1}" for k in range(n)]


def ade_edges(letter: str, n: int) -> list[tuple[int, int]]:
    """Edges of A_n, D_n or E_6 on vertices 0..n-1 (center listed first for D/E)."""
    if letter == "A":
        return [(k, k + 1) for k in range(n - 1)]
    if letter == "D":
        # center 0 with arms (1), (2) and the tail 3-4-...-(n-1)
        return [(0, 1), (0, 2), (0, 3)] + [(k, k + 1) for k in range(3, n - 1)]
    if letter == "E" and n == 6:
        # center 0 with arms (1), (2-3), (4-5)
        return [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)]
    raise ValueError(f"no ADE configuration {letter}{n} here")


def _rational(rng: random.Random, lo_num: int, max_den: int) -> str:
    q = rng.randint(1, max_den)
    p = rng.randint(lo_num, q)
    return f"{p}/{q}" if q > 1 else str(p)


def _dominant_weights(rng: random.Random, n: int, mult: dict) -> list[int]:
    degree = [0] * n
    for (i, j), m in mult.items():
        degree[i] += m
        degree[j] += m
    weights = [max(2, d) + rng.choice((0, 0, 0, 1, 1, 2, 3)) for d in degree]
    if all(w == d for w, d in zip(weights, degree)):
        weights[rng.randrange(n)] += 1  # one strictly dominant row
    return weights


def random_graph(rng: random.Random, kind: str, n: int) -> dict:
    """A valid graph document (vertices and edges only) of the given kind."""
    ids = _ids(n)
    genus = [0] * n
    if kind == "ade":
        letter, n = rng.choice(ADE_SMALL)
        ids = _ids(n)
        edges = ade_edges(letter, n)
        return {
            "vertices": [{"id": v, "weight": 2} for v in ids],
            "edges": [[ids[i], ids[j]] for i, j in edges],
        }
    mult: dict[tuple[int, int], int] = {}
    for k in range(1, n):
        parent = k - 1 if kind == "chain" else rng.randrange(k)
        mult[(parent, k)] = 1
    if kind == "cycle" and n >= 3:
        missing = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in mult]
        for pair in rng.sample(missing, min(len(missing), rng.randint(1, 2))):
            mult[pair] = 1
    if kind == "multi" and mult:
        mult[rng.choice(sorted(mult))] = rng.randint(2, 3)
    if kind == "genus":
        genus[rng.randrange(n)] = rng.randint(1, 2)
    weights = _dominant_weights(rng, n, mult)
    vertices = []
    for v, w, g in zip(ids, weights, genus):
        item = {"id": v, "weight": w}
        if g:
            item["genus"] = g
        vertices.append(item)
    edges = []
    for (i, j), m in sorted(mult.items()):
        edges.append([ids[i], ids[j]] if m == 1 else [ids[i], ids[j], m])
    return {"vertices": vertices, "edges": edges}


def random_boundary(rng: random.Random, ids: list[str]) -> list[dict]:
    components = []
    for c in range(rng.randint(1, 2)):
        touched = rng.sample(ids, rng.randint(1, min(3, len(ids))))
        components.append(
            {
                "name": f"C{c + 1}",
                "coeff": _rational(rng, 0, 6),
                "meets": {v: rng.randint(1, 2) for v in sorted(touched)},
            }
        )
    return components


def random_nef(rng: random.Random) -> dict:
    return {"M2": _rational(rng, 1, 5) if rng.random() < 0.5 else str(rng.randint(1, 4)),
            "minMC": _rational(rng, 0, 5)}


def random_document(rng: random.Random, kind: str, n: int, *, boundary: bool, nef: bool) -> dict:
    doc = random_graph(rng, kind, n)
    if boundary:
        doc["boundary"] = random_boundary(rng, [v["id"] for v in doc["vertices"]])
    if nef:
        doc["nef"] = random_nef(rng)
    return doc


def report_corpus(seed: int, size: int) -> list[str]:
    """JSON texts of a stratified corpus.

    Each block of 30 documents holds every kind at every n in 2..6; four
    blocks in five carry boundaries and every other block nef data.  So
    every seed gets the same mix of work, and the seed draws weights,
    edges, boundary and nef values.
    """
    rng = random.Random(f"report-corpus:{seed}")
    texts = []
    for k in range(size):
        block = k // 30
        doc = random_document(
            rng, GRAPH_KINDS[k % 6], 2 + (k // 6) % 5, boundary=block % 5 != 4, nef=block % 2 == 0
        )
        texts.append(json.dumps(doc))
    return texts


def cli_documents(seed: int) -> list[str]:
    """One JSON text per kind, n from 2 to 6; all carry nef data so `check` runs."""
    rng = random.Random(f"cli-files:{seed}")
    return [
        json.dumps(random_document(rng, kind, 2 + (2 * k) % 5, boundary=k != 4, nef=True), indent=2)
        for k, kind in enumerate(GRAPH_KINDS)
    ]


def chain_doc(weights: list[int], boundary: list[dict] | None = None) -> dict:
    ids = _ids(len(weights))
    doc = {
        "vertices": [{"id": v, "weight": w} for v, w in zip(ids, weights)],
        "edges": [[ids[k], ids[k + 1]] for k in range(len(ids) - 1)],
    }
    if boundary is not None:
        doc["boundary"] = boundary
    return doc


def adversarial_chain(n: int) -> dict:
    """Weight-5 chain with a coefficient-1/2 boundary meeting every vertex.

    Every vertex wants to enter the active set of delta_min, so a search
    over subsets in increasing size visits almost all of them.
    """
    ids = _ids(n)
    return chain_doc([5] * n, [{"name": "C1", "coeff": "1/2", "meets": {v: 1 for v in ids}}])


def long_arm_fork(n: int) -> dict:
    """Center weight 3 with arms of 2s, 3s and 2s; no boundary.

    Boundary-free, yet the subset search still grows exponentially in n.
    """
    rest = n - 1
    arms = [[2] * (rest // 3), [3] * (rest // 3), [2] * (rest - 2 * (rest // 3))]
    ids = _ids(n)
    vertices = [{"id": ids[0], "weight": 3}]
    edges = []
    k = 1
    for arm in arms:
        prev = ids[0]
        for w in arm:
            vertices.append({"id": ids[k], "weight": w})
            edges.append([prev, ids[k]])
            prev = ids[k]
            k += 1
    return {"vertices": vertices, "edges": edges}


def hard_ladder() -> list[tuple[str, str]]:
    """(label, JSON text) for the fixed worst-case ladder."""
    ladder = [(f"adversarial-chain-{n}", adversarial_chain(n)) for n in range(8, 15)]
    ladder += [(f"long-arm-fork-{n}", long_arm_fork(n)) for n in range(10, 14)]
    for n in (32, 64):
        ladder.append((f"adversarial-chain-{n}", adversarial_chain(n)))
        ladder.append((f"long-arm-fork-{n}", long_arm_fork(n)))
    return [(label, json.dumps(doc)) for label, doc in ladder]
