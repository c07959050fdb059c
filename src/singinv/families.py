"""Builders for the standard graph families used by tests and `enumerate`."""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .graph import DualGraph, Edge, Vertex, build_graph


def chain_graph(weights: Sequence[int]) -> DualGraph:
    """Path graph with the given weights, vertices E1-E2-...-En."""
    ids = tuple(f"E{k + 1}" for k in range(len(weights)))
    return DualGraph(tuple(map(Vertex, ids, weights)), tuple(map(Edge, ids, ids[1:])))


def smooth_graph() -> DualGraph:
    """The blown-up smooth point: a single (-1)-curve."""
    return build_graph([("E1", 1)])


def fork_graph(center_weight: int, arms: Sequence[Sequence[int]]) -> DualGraph:
    """A central vertex with chain arms attached, center listed first."""
    vertices = [("E1", center_weight)]
    edges = []
    counter = 2
    for arm in arms:
        previous = "E1"
        for w in arm:
            vid = f"E{counter}"
            counter += 1
            vertices.append((vid, w))
            edges.append((previous, vid))
            previous = vid
    return build_graph(vertices, edges)


def ade_graph(letter: str, n: int) -> DualGraph:
    """All-weight-2 Dynkin configuration A_n (n >= 1), D_n (n >= 4),
    E_6, E_7 or E_8."""
    if letter == "A":
        if n < 1:
            raise ValueError("A_n needs n >= 1")
        return chain_graph((2,) * n)
    if letter == "D":
        if n < 4:
            raise ValueError("D_n needs n >= 4")
        return fork_graph(2, [(2,), (2,), (2,) * (n - 3)])
    if letter == "E":
        arm_lengths = {6: (1, 2, 2), 7: (1, 2, 3), 8: (1, 2, 4)}
        if n not in arm_lengths:
            raise ValueError("E_n exists for n in {6, 7, 8}")
        return fork_graph(2, [(2,) * k for k in arm_lengths[n]])
    raise ValueError(f"unknown family letter {letter!r}")


def rdp_family() -> list[tuple[str, DualGraph]]:
    """A_1..A_8, D_4..D_8, E_6..E_8, all weights 2."""
    out = [(f"A{n}", ade_graph("A", n)) for n in range(1, 9)]
    out += [(f"D{n}", ade_graph("D", n)) for n in range(4, 9)]
    out += [(f"E{n}", ade_graph("E", n)) for n in (6, 7, 8)]
    return out


def iter_chain_weights(
    max_length: int, max_weight: int
) -> Iterator[tuple[int, ...]]:
    """All weight tuples of length 1..max_length with entries in [2, max_weight],
    ordered by length then lexicographically."""
    if max_weight < 2:
        raise ValueError("max_weight must be at least 2")
    for length in range(1, max_length + 1):
        yield from itertools.product(range(2, max_weight + 1), repeat=length)


def chain_sweep(
    max_length: int, max_weight: int
) -> Iterator[tuple[tuple[int, ...], DualGraph]]:
    """(w, chain_graph(w)) for each w of `iter_chain_weights`, in its
    order.  Only the first chain of each length is built afresh; each
    later one is reweighted from the chain before it, so it shares
    that chain's vertices, columns of N and factor rows before its first
    changed weight (`DualGraph.reweighted`), whether the sweep is
    streamed or drawn whole first."""
    graph = None
    for weights in iter_chain_weights(max_length, max_weight):
        if graph is None or graph.n != len(weights):
            graph = chain_graph(weights)
        else:
            graph = graph.reweighted(weights)
        yield weights, graph


def chain_family_size(max_length: int, max_weight: int, stop: int | None = None) -> int:
    """How many tuples `iter_chain_weights` yields; with `stop`, counting
    ends at the first partial sum above it, after about log(stop) steps
    however long the chains."""
    span = max_weight - 1
    if span < 2:
        return max(max_length, 0) if span == 1 else 0
    total, term = 0, 1
    for _ in range(max_length):
        term *= span
        total += term
        if stop is not None and total > stop:
            break
    return total
