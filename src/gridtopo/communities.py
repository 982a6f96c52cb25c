"""Community detection by greedy agglomerative modularity maximization.

Q = (1/2E) * sum_ij (A_ij - k_i*k_j/2E) * [g_i == g_j] is the modularity
of a node partition g, over ordered pairs including i = j (A_ii = 0).
The greedy pass starts from singleton communities and repeatedly merges
the pair of connected communities with the largest modularity gain

    gain(a, b) = 2 * (e_ab/2E - K_a*K_b/(2E)^2)

(e_ab = edges between a and b, K = community degree sum), stopping when
no merge improves modularity.  Ties on the gain are broken toward the
lexicographically smallest community-id pair, which makes the result
deterministic.  Each merge is found with a max-heap of pair gains, as in
Clauset, Newman and Moore, "Finding community structure in very large
networks", Phys. Rev. E 70, 066111 (2004), whose entries may be stale
upper bounds that are checked only when popped, the lazy evaluation of
Minoux's accelerated greedy (1978).

When a absorbs b (a < b, so a keeps its id), only the pairs (a, c) with c
a neighbour of b get a new entry.  For any other neighbour c of a, e_ac is
unchanged and K_a has grown, so the gain cannot rise (each rounded float
step is monotone, so neither can the computed gain), and the pair's
old entry stays an upper bound; pairs without a or b do not change.  A
popped entry whose pair is gone is dropped; one above its pair's current
gain is pushed again at that gain.  So every live pair always holds an
entry at or above its gain, and an entry that is popped at its current
gain has the largest gain, ties to the smallest (a, b): the merge
sequence equals that of a full rescan of all pairs per merge.  Once the
top entry's gain is not positive, no gain is, and the pass stops.  The gain
is always computed by the same float expression, so equal gains stay
bit-equal and the tie-break is exact.
"""

from __future__ import annotations

import heapq
import random
from typing import NamedTuple, Sequence

from .graphs import GraphSnapshot


class CommunityAssignment(NamedTuple):
    """Node-indexed community labels with the modularity they achieve."""

    membership: tuple[int, ...]
    achieved_q: float
    method_tag: str
    seed: int

    @property
    def num_communities(self) -> int:
        return len(set(self.membership))

    def to_text(self) -> str:
        """The summary lines ``communities --out`` prints."""
        return f"q={self.achieved_q!r}\ncommunities={self.num_communities}\nmethod={self.method_tag}\n"


def modularity(snapshot: GraphSnapshot, membership: Sequence[int]) -> float:
    """Modularity Q of a community assignment.

    ``membership`` is a sequence of community labels indexed by node.
    """
    n = snapshot.num_nodes
    two_e = 2 * snapshot.num_edges
    if two_e == 0:
        raise ValueError("modularity undefined: graph has no edges")
    if len(membership) != n or any(g is None for g in membership):
        raise ValueError("assignment must cover every node exactly once")
    intra: dict[int, int] = {}
    degree_sum: dict[int, int] = {}
    for i in range(n):
        g = membership[i]
        degree_sum[g] = degree_sum.get(g, 0) + snapshot.degree(i)
    for i, j in snapshot.edges():
        if membership[i] == membership[j]:
            g = membership[i]
            intra[g] = intra.get(g, 0) + 1
    value = 0.0
    for g in sorted(degree_sum):
        value += 2 * intra.get(g, 0) - degree_sum[g] * degree_sum[g] / two_e
    return value / two_e


def _compact_membership(snapshot: GraphSnapshot, community_of: list[int]) -> tuple[int, ...]:
    """Relabel communities 0..k-1 in order of their smallest node index."""
    relabel: dict[int, int] = {}
    for node in range(snapshot.num_nodes):
        relabel.setdefault(community_of[node], len(relabel))
    return tuple(relabel[community_of[node]] for node in range(snapshot.num_nodes))


def _greedy_pass(snapshot: GraphSnapshot, initial_ids: tuple[int, ...]) -> tuple[int, ...]:
    """Run one agglomerative pass; ``initial_ids`` sets tie-break order."""
    n = snapshot.num_nodes
    two_e = 2.0 * snapshot.num_edges
    two_e_sq = two_e * two_e
    degree_sum = [0] * n
    for node in range(n):
        degree_sum[initial_ids[node]] = snapshot.degree(node)
    # between[a][c] = edges between communities a and c; None once a is merged away
    between: list[dict[int, int] | None] = [{} for _ in range(n)]
    heap = []
    for i, j in snapshot.edges():
        a, b = initial_ids[i], initial_ids[j]
        between[a][b] = between[b][a] = 1
        if a > b:
            a, b = b, a
        heap.append((-2.0 * (1 / two_e - degree_sum[a] * degree_sum[b] / two_e_sq), a, b))
    heapq.heapify(heap)
    merged_into = list(range(n))
    # Popping (-gain, a, b) takes the largest gain and, among equal gains,
    # the smallest pair.  Every live pair holds an entry at or above its
    # current gain; one popped above it is re-queued at the current gain.
    # Each gain is the module docstring's formula, written the same way.
    while heap:
        neg_gain, a, b = heap[0]
        if neg_gain >= 0.0:
            break
        row = between[a]
        if row is None or b not in row:
            heapq.heappop(heap)
            continue
        k_a = degree_sum[a]
        current = -2.0 * (row[b] / two_e - k_a * degree_sum[b] / two_e_sq)
        if current != neg_gain:
            heapq.heapreplace(heap, (current, a, b))
            continue
        heapq.heappop(heap)
        # a < b, so a keeps its id and every merged_into[x] is below x
        merged_into[b] = a
        del row[b]
        k_a += degree_sum[b]
        degree_sum[a] = k_a
        other = between[b]
        between[b] = None
        for c, weight in other.items():
            if c == a:
                continue
            row_c = between[c]
            del row_c[b]
            row_c[a] = row[c] = weight = row.get(c, 0) + weight
            gain = -2.0 * (weight / two_e - k_a * degree_sum[c] / two_e_sq)
            heapq.heappush(heap, (gain, a, c) if a < c else (gain, c, a))

    for x in range(n):
        merged_into[x] = merged_into[merged_into[x]]
    return _compact_membership(snapshot, [merged_into[label] for label in initial_ids])


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
    best_q = modularity(snapshot, best_membership)
    rng = random.Random(seed)
    for _ in range(1, restarts):
        ids = list(range(n))
        rng.shuffle(ids)
        membership = _greedy_pass(snapshot, tuple(ids))
        q = modularity(snapshot, membership)
        if q > best_q:
            best_membership, best_q = membership, q
    return CommunityAssignment(best_membership, best_q, "greedy_agglomerative", seed)


def assignment_to_csv(snapshot: GraphSnapshot, assignment: CommunityAssignment) -> str:
    """Export as node_id,community_id rows in node-label order, ids quoted as CSV needs."""
    lines = ["node_id,community_id"]
    for i, label in enumerate(map(str, snapshot.labels)):
        if any(c in label for c in ',"\r\n'):  # csv.writer leaves a lone CR unquoted before 3.13
            label = '"' + label.replace('"', '""') + '"'
        lines.append(f"{label},{assignment.membership[i]}")
    return "\n".join(lines) + "\n"
