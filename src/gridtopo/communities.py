"""Community detection by greedy agglomerative modularity maximization.

The greedy pass starts from singleton communities and repeatedly merges
the pair of connected communities with the largest modularity gain

    gain(a, b) = 2 * (e_ab/2E - K_a*K_b/(2E)^2)

(e_ab = edges between a and b, K = community degree sum), stopping when
no merge improves modularity.  Ties on the gain are broken toward the
lexicographically smallest community-id pair, which makes the result
deterministic.  Each merge is found with a lazily invalidated max-heap
of pair gains, as in Clauset, Newman and Moore, "Finding community
structure in very large networks", Phys. Rev. E 70, 066111 (2004): the
heap orders by the same gain formula and the same tie-break, so the
merge sequence equals that of a full rescan of all pairs per merge.  An
exhaustive set-partition search is provided as a small-graph reference.
"""

from __future__ import annotations

import heapq
import random
from collections import defaultdict
from dataclasses import dataclass

from . import metrics
from .graphs import GraphSnapshot

EXHAUSTIVE_MAX_NODES = 12


@dataclass(frozen=True)
class CommunityAssignment:
    """Node-indexed community labels with the modularity they achieve."""

    membership: tuple[int, ...]
    achieved_q: float
    method_tag: str
    seed: int

    @property
    def num_communities(self) -> int:
        return len(set(self.membership))


def _compact_membership(snapshot: GraphSnapshot, community_of: list[int]) -> tuple[int, ...]:
    """Relabel communities 0..k-1 in order of their smallest node index."""
    relabel: dict[int, int] = {}
    for node in range(snapshot.num_nodes):
        relabel.setdefault(community_of[node], len(relabel))
    return tuple(relabel[community_of[node]] for node in range(snapshot.num_nodes))


def _greedy_pass(snapshot: GraphSnapshot, initial_ids: tuple[int, ...]) -> tuple[int, ...]:
    """Run one agglomerative pass; ``initial_ids`` sets tie-break order."""
    two_e = 2.0 * snapshot.num_edges
    members: dict[int, list[int]] = defaultdict(list)
    degree_sum: dict[int, int] = defaultdict(int)
    for node in range(snapshot.num_nodes):
        members[initial_ids[node]].append(node)
        degree_sum[initial_ids[node]] += snapshot.degree(node)
    between: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for i, j in snapshot.edges():
        a, b = initial_ids[i], initial_ids[j]
        if a != b:
            between[a][b] += 1
            between[b][a] += 1

    def gain(a: int, b: int) -> float:
        return 2.0 * (between[a][b] / two_e - degree_sum[a] * degree_sum[b] / (two_e * two_e))

    # Popping (-gain, a, b) takes the largest gain and, among equal gains,
    # the smallest pair.  An entry is stale once its pair has merged away or
    # its gain has changed; every live pair always has a current entry.
    heap = [(-gain(a, b), a, b) for a in between for b in between[a] if a < b]
    heapq.heapify(heap)
    while heap:
        neg_gain, a, b = heapq.heappop(heap)
        if b not in between.get(a, ()) or -gain(a, b) != neg_gain:
            continue
        if neg_gain >= 0.0:
            break
        if len(members[a]) < len(members[b]):
            members[a], members[b] = members[b], members[a]
        members[a].extend(members.pop(b))
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
        for c in between.get(a, ()):
            heapq.heappush(heap, (-gain(a, c), a, c) if a < c else (-gain(c, a), c, a))

    community_of = [0] * snapshot.num_nodes
    for label, nodes in members.items():
        for node in nodes:
            community_of[node] = label
    return _compact_membership(snapshot, community_of)


def detect_communities(snapshot: GraphSnapshot, seed: int = 42, restarts: int = 1) -> CommunityAssignment:
    """Greedy modularity maximization, reproducible for a fixed seed.

    The first pass is fully deterministic.  Additional restarts (if
    requested) shuffle the initial community ids with a generator seeded
    from ``seed``, which perturbs tie-breaking; the best modularity wins.
    """
    if snapshot.num_edges < 1:
        raise ValueError("community detection undefined: graph has no edges")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    n = snapshot.num_nodes
    best_membership = _greedy_pass(snapshot, tuple(range(n)))
    best_q = metrics.modularity(snapshot, best_membership)
    rng = random.Random(seed)
    for _ in range(1, restarts):
        ids = list(range(n))
        rng.shuffle(ids)
        membership = _greedy_pass(snapshot, tuple(ids))
        q = metrics.modularity(snapshot, membership)
        if q > best_q:
            best_membership, best_q = membership, q
    return CommunityAssignment(best_membership, best_q, "greedy_agglomerative", seed)


def exhaustive_best_partition(snapshot: GraphSnapshot) -> CommunityAssignment:
    """Best-modularity partition by enumerating all set partitions.

    Guarded to 12 nodes; the search space is the Bell number of N.  Ties
    keep the first partition found in restricted-growth enumeration
    order.
    """
    n = snapshot.num_nodes
    if n > EXHAUSTIVE_MAX_NODES:
        raise ValueError(f"exhaustive search refused for more than {EXHAUSTIVE_MAX_NODES} nodes")
    if snapshot.num_edges < 1:
        raise ValueError("community detection undefined: graph has no edges")

    two_e = 2 * snapshot.num_edges
    degrees = snapshot.degrees()
    masks = [0] * n
    for i, j in snapshot.edges():
        masks[i] |= 1 << j
        masks[j] |= 1 << i

    assign = [0] * n
    block_mask = [0] * n
    block_degree = [0] * n
    best_q = -float("inf")
    best: tuple[int, ...] = ()

    def recurse(node: int, num_blocks: int, intra2: int, degree_sq: int) -> None:
        nonlocal best_q, best
        if node == n:
            q = intra2 / two_e - degree_sq / (two_e * two_e)
            if q > best_q:
                best_q = q
                best = tuple(assign)
            return
        k = degrees[node]
        mask = masks[node]
        limit = min(num_blocks + 1, n)
        for block in range(limit):
            added_links = (mask & block_mask[block]).bit_count()
            assign[node] = block
            block_mask[block] |= 1 << node
            old_degree = block_degree[block]
            block_degree[block] = old_degree + k
            recurse(
                node + 1,
                max(num_blocks, block + 1),
                intra2 + 2 * added_links,
                degree_sq + 2 * old_degree * k + k * k,
            )
            block_mask[block] &= ~(1 << node)
            block_degree[block] = old_degree

    recurse(0, 0, 0, 0)
    membership = _compact_membership(snapshot, list(best))
    return CommunityAssignment(membership, metrics.modularity(snapshot, membership), "exhaustive", 0)


def assignment_to_csv(snapshot: GraphSnapshot, assignment: CommunityAssignment) -> str:
    """Export as node_id,community_id rows in node-label order."""
    lines = ["node_id,community_id"]
    for i, label in enumerate(snapshot.labels):
        lines.append(f"{label},{assignment.membership[i]}")
    return "\n".join(lines) + "\n"
