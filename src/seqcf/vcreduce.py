"""Executable vertex-cover reduction harness.

From an undirected graph this module constructs an item universe of
positive and negative vertex literals plus two sentinel symbols, a scorer
whose output is the accepting sentinel exactly when the positively occurring
vertices cover every edge, and the all-negative start sequence. On small
graphs it then checks, by exhaustive enumeration on both sides, that a
cover of size at most k exists if and only if the start sequence admits a
valid counterfactual within edit distance k.

Graph file format: first line `n`, then one `u v` edge per line, 1-indexed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .core import as_items
from .models import ScoreVector
from .objective import verify_eps_vcs

BRUTE_FORCE_LIMIT = 20
EQUIVALENCE_LIMIT = 12


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertices 0..n-1, normalized edge tuples."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise ValueError("need at least one vertex")
        seen: set[tuple[int, int]] = set()
        edges = tuple(_edge(u, v, self.num_vertices, seen) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def parse(cls, text: str) -> "Graph":
        """Read the graph file format; a malformed line fails naming its line number.

        Errors name vertices 1-indexed, as the file does.
        """
        lines = [(number, ln.split()) for number, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines:
            raise ValueError("empty graph file")
        (n,) = _ints(*lines[0], 1, "the vertex count n")
        seen: set[tuple[int, int]] = set()
        edges = []
        for number, words in lines[1:]:
            u, v = _ints(number, words, 2, "one edge `u v`")
            try:
                edges.append(_edge(u - 1, v - 1, n, seen, first=1))
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
        return cls(num_vertices=n, edges=tuple(edges))


def _edge(u: int, v: int, n: int, seen: set, first: int = 0) -> tuple[int, int]:
    """Edge (u, v) of an n-vertex graph as (min, max), added to `seen`; errors number vertices from `first`."""
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u + first}, {v + first}) out of range")
    if u == v:
        raise ValueError(f"self-loop at vertex {u + first}")
    e = (min(u, v), max(u, v))
    if e in seen:
        raise ValueError(f"duplicate edge ({e[0] + first}, {e[1] + first})")
    seen.add(e)
    return e


def _ints(number: int, words: list[str], count: int, expected: str) -> list[int]:
    """The `count` integers of graph file line `number`, else one error naming the line."""
    if len(words) != count or not all(w.removeprefix("-").isdecimal() for w in words):
        raise ValueError(f"line {number}: expected {expected}, got {' '.join(words)!r}")
    return [int(w) for w in words]


class VcModel:
    """Scorer over 2n+2 literal items whose top-1 encodes cover membership.

    Item ids: vertex i occurs positively as item i and negatively as item
    n+i; item 2n is the accepting symbol, item 2n+1 the rejecting one. A
    sequence scores the accepting symbol exactly when it has the literal
    shape [l_1..l_n] with l_i in {i, n+i} and its positive vertices cover
    every edge; every other input scores the rejecting symbol.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        n = graph.num_vertices
        self.num_items = 2 * n + 2
        self.accept = 2 * n
        self.reject = 2 * n + 1

    def output(self, seq) -> int:
        items = as_items(seq)
        n = self.graph.num_vertices
        if len(items) != n:
            return self.reject
        positives = set()
        for i, literal in enumerate(items):
            if literal == i:
                positives.add(i)
            elif literal != n + i:
                return self.reject
        for u, v in self.graph.edges:
            if u not in positives and v not in positives:
                return self.reject
        return self.accept

    def score(self, seq) -> ScoreVector:
        logits = np.zeros(self.num_items)
        logits[self.output(seq)] = 1.0
        return ScoreVector(logits)


def reduce(graph: Graph) -> tuple[VcModel, tuple[int, ...]]:
    """Build the reduction scorer and the all-negative start sequence."""
    n = graph.num_vertices
    sbar = tuple(n + i for i in range(n))
    return VcModel(graph), sbar


def brute_force_vc(graph: Graph, k: int) -> bool:
    """Does some vertex subset of size at most k cover all edges?"""
    n = graph.num_vertices
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_LIMIT} vertices")
    if not graph.edges:
        return k >= 0
    for size in range(0, min(k, n) + 1):
        for subset in combinations(range(n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in graph.edges):
                return True
    return False


def check_equivalence(graph: Graph, k: int) -> bool:
    """Exhaustively test cover-of-size-k  <=>  k-bounded counterfactual.

    The left side enumerates vertex subsets; the right side enumerates all
    2^n literal sequences and runs each through the two-check verifier
    against the all-negative sequence with eps = k. Edgeless graphs are the
    degenerate case where both sides hold trivially (the empty cover exists
    and the start sequence itself already reaches the accepting symbol), so
    they report equivalence directly.
    """
    n = graph.num_vertices
    if n > EQUIVALENCE_LIMIT:
        raise ValueError(f"equivalence check capped at {EQUIVALENCE_LIMIT} vertices")
    if not graph.edges:
        return True
    lhs = brute_force_vc(graph, k)
    model, sbar = reduce(graph)
    rhs = any(
        verify_eps_vcs(model, sbar, cand, k)
        for cand in product(*[(i, n + i) for i in range(n)])
    )
    return lhs == rhs
