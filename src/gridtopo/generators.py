"""Seeded reference-graph generators (random, ring-rewired, preferential).

All generators draw from ``random.Random(seed)`` (Mersenne Twister), so a
given (parameters, seed) pair reproduces the same edge set on every run
of this implementation.  Nodes are labelled 0..n-1.
"""

from __future__ import annotations

import math
import random
import warnings
from typing import NamedTuple

from .graphs import GraphSnapshot

_REWIRE_ATTEMPTS = 10000
# most nodes a generator accepts: erdos_renyi draws all n(n-1)/2 pairs, so
# 10^4 nodes (the largest national grid) take seconds and 10^8 would take days
MAX_NODES = 10**4
# most edges a generator makes (erdos_renyi: its expected count), checked before
# any draw: 4 times the watts_strogatz k=10 graph at MAX_NODES.  A `generate`
# run at this cap peaked at 63-91 MB, 10^6 edges at 402 MB (Python 3.11)
MAX_EDGES = 2 * 10**5


class GeneratorSpec(NamedTuple):
    kind: str
    n: int
    p: float | None = None
    k: int | None = None
    m: int | None = None
    seed: int = 42


def generate(spec: GeneratorSpec) -> GraphSnapshot:
    """Dispatch a GeneratorSpec to the matching generator."""
    if spec.kind == "erdos_renyi":
        if spec.p is None:
            raise ValueError("erdos_renyi requires p")
        return erdos_renyi(spec.n, spec.p, spec.seed)
    if spec.kind == "watts_strogatz":
        if spec.k is None or spec.p is None:
            raise ValueError("watts_strogatz requires k and p")
        return watts_strogatz(spec.n, spec.k, spec.p, spec.seed)
    if spec.kind == "barabasi_albert":
        if spec.m is None:
            raise ValueError("barabasi_albert requires m")
        return barabasi_albert(spec.n, spec.m, spec.seed)
    raise ValueError(f"unknown generator kind {spec.kind!r}")


def _check_n(n: int) -> None:
    if n < 3:
        raise ValueError("generators need at least 3 nodes")
    if n > MAX_NODES:
        raise ValueError(f"generators accept at most {MAX_NODES} nodes, not {n}")


def _check_edges(edges: float) -> None:
    if edges > MAX_EDGES:
        raise ValueError(f"generators make at most {MAX_EDGES} edges, not {math.ceil(edges)}")


def erdos_renyi(n: int, p: float, seed: int) -> GraphSnapshot:
    """Each unordered pair becomes an edge independently with probability p."""
    _check_n(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    _check_edges(p * n * (n - 1) / 2)
    rng = random.Random(seed)
    edges = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return GraphSnapshot(range(n), edges)


def watts_strogatz(n: int, k: int, p: float, seed: int) -> GraphSnapshot:
    """Ring lattice of degree k with each edge rewired with probability p.

    Rewiring replaces the far endpoint with a uniform target, avoiding
    self-loops and duplicate edges, so the edge count stays n*k/2.  If a
    node is already connected to every other node the rewire is skipped;
    skips are reported through a warning.
    """
    _check_n(n)
    if k % 2 != 0:
        raise ValueError("ring degree k must be even")
    if not 0 <= k < n:
        raise ValueError("ring degree k must satisfy 0 <= k < n")
    if not 0.0 <= p <= 1.0:
        raise ValueError("rewire probability must lie in [0, 1]")
    _check_edges(n * k // 2)
    rng = random.Random(seed)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for offset in range(1, k // 2 + 1):
            j = (i + offset) % n
            adjacency[i].add(j)
            adjacency[j].add(i)
    skipped = 0
    for offset in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + offset) % n
            if rng.random() >= p:
                continue
            if len(adjacency[i]) >= n - 1:
                skipped += 1
                continue
            target = None
            for _ in range(_REWIRE_ATTEMPTS):
                candidate = rng.randrange(n)
                if candidate != i and candidate not in adjacency[i]:
                    target = candidate
                    break
            if target is None:
                skipped += 1
                continue
            adjacency[i].discard(j)
            adjacency[j].discard(i)
            adjacency[i].add(target)
            adjacency[target].add(i)
    if skipped:
        warnings.warn(f"watts_strogatz skipped {skipped} rewires (no valid target)", stacklevel=2)
    edges = [(i, j) for i in range(n) for j in adjacency[i] if i < j]
    return GraphSnapshot(range(n), edges)


def barabasi_albert(n: int, m: int, seed: int) -> GraphSnapshot:
    """Preferential attachment starting from a complete graph on m+1 nodes.

    Each new node attaches m edges to distinct existing nodes sampled
    proportionally to degree, giving E = (m+1)m/2 + m(n-m-1).
    """
    _check_n(n)
    if not 1 <= m < n:
        raise ValueError("attachment count m must satisfy 1 <= m < n")
    _check_edges(m * (m + 1) // 2 + m * (n - m - 1))
    rng = random.Random(seed)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m + 1)]
    # one entry per incident edge; sampling from it is degree-proportional
    repeated = [node for pair in edges for node in pair]
    for source in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[rng.randrange(len(repeated))])
        ordered = sorted(targets)
        for t in ordered:
            edges.append((t, source))
        repeated.extend(ordered)
        repeated.extend([source] * m)
    return GraphSnapshot(range(n), edges)
