"""Independent reference implementations used to cross-check the library.

Nothing here may call the code paths it verifies: distances come from a
Floyd-Warshall relaxation over a numpy matrix, components from
union-find, modularity from the literal double-loop formula, greedy
communities from a full rescan of every community pair per merge, and
CCDF values from direct tail counting.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np


def floyd_warshall(snapshot) -> np.ndarray:
    """All-pairs hop distances by exhaustive relaxation (inf = unreachable)."""
    n = snapshot.num_nodes
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, j in snapshot.edges():
        dist[i, j] = dist[j, i] = 1.0
    for k in range(n):
        np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
    return dist


def union_find_components(snapshot) -> list[frozenset[int]]:
    """Connected components via union-find, largest first then min index."""
    parent = list(range(snapshot.num_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in snapshot.edges():
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    groups: dict[int, set[int]] = {}
    for node in range(snapshot.num_nodes):
        groups.setdefault(find(node), set()).add(node)
    return sorted(
        (frozenset(g) for g in groups.values()), key=lambda g: (-len(g), min(g))
    )


def brute_modularity(snapshot, membership) -> float:
    """Literal ordered-pair double loop, including i == j terms."""
    n = snapshot.num_nodes
    two_e = 2.0 * snapshot.num_edges
    degrees = snapshot.degrees()
    q = 0.0
    for i in range(n):
        for j in range(n):
            if membership[i] == membership[j]:
                a_ij = 1.0 if snapshot.has_edge(i, j) else 0.0
                q += a_ij - degrees[i] * degrees[j] / two_e
    return q / two_e


def reference_greedy_pass(snapshot, initial_ids) -> tuple[int, ...]:
    """Greedy agglomerative pass that rescans and sorts all pairs per merge.

    Merges the connected pair with the largest gain, ties toward the
    smallest (a, b), relabels every node on each merge, and stops when no
    gain is positive.  Labels are compacted 0..k-1 by smallest node index.
    """
    two_e = 2.0 * snapshot.num_edges
    community_of = list(initial_ids)
    degree_sum: dict[int, int] = defaultdict(int)
    for node in range(snapshot.num_nodes):
        degree_sum[community_of[node]] += snapshot.degree(node)
    between: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for i, j in snapshot.edges():
        a, b = community_of[i], community_of[j]
        if a != b:
            between[a][b] += 1
            between[b][a] += 1

    while True:
        best_gain = 0.0
        best_pair: tuple[int, int] | None = None
        for a in sorted(between):
            for b in sorted(between[a]):
                if b <= a:
                    continue
                gain = 2.0 * (between[a][b] / two_e - degree_sum[a] * degree_sum[b] / (two_e * two_e))
                if gain > best_gain or (
                    best_pair is not None and gain == best_gain and (a, b) < best_pair
                ):
                    best_gain = gain
                    best_pair = (a, b)
        if best_pair is None:
            break
        a, b = best_pair
        for node in range(snapshot.num_nodes):
            if community_of[node] == b:
                community_of[node] = a
        degree_sum[a] += degree_sum.pop(b)
        for c, weight in between.pop(b).items():
            if c == a:
                continue
            between[a][c] += weight
            between[c][a] = between[a][c]
            del between[c][b]
        between[a].pop(b, None)
        if not between[a]:
            del between[a]

    relabel: dict[int, int] = {}
    for node in range(snapshot.num_nodes):
        relabel.setdefault(community_of[node], len(relabel))
    return tuple(relabel[community_of[node]] for node in range(snapshot.num_nodes))


def tail_probability(degrees, k: int) -> float:
    """Fraction of non-isolated nodes with degree >= k, by direct count."""
    base = [d for d in degrees if d >= 1]
    return sum(1 for d in base if d >= k) / len(base)
