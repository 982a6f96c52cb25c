"""Independent reference implementations used to cross-check the library.

Nothing here may call the code paths it verifies: distances come from a
Floyd-Warshall relaxation over a numpy matrix, the LCC's distance sum and
diameter from one single-source BFS per node, components from
union-find, modularity from the literal double-loop formula, greedy
communities from a full rescan of every community pair per merge and
from the heap pass that re-pushes every pair of a merged community, the
best partition of a small graph from an exhaustive set-partition search,
CCDF values from direct tail counting, CCDF fits from the numpy
Gauss-Newton iteration that the pure-Python fit replaced, time series
from one full record per year, with no reuse of a repeated year's record,
grid logs from the row-by-row parser that the one-pass parse replaced,
and line counts from the active lines of each year in turn.
"""

from __future__ import annotations

import csv
import heapq
import io
import itertools
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Iterator, TextIO

import numpy as np

from gridtopo.degree_fit import (
    MAX_ITERATIONS,
    MODELS,
    SSE_RELATIVE_TOLERANCE,
    FitNotConverged,
    FitResult,
)
from gridtopo.communities import CommunityAssignment, _compact_membership
from gridtopo.evolution import compute_metrics_record
from gridtopo.graphs import build_snapshot, connected_components
from gridtopo.grid_log import (
    EDGES_COLUMNS,
    NODE_KINDS,
    NODES_COLUMNS,
    CircuitMerge,
    GridLogError,
    TemporalGridLog,
    active_elements,
)
from gridtopo.metrics import modularity

UNREACHABLE = -1
EXHAUSTIVE_MAX_NODES = 12


def has_edge(snapshot, i: int, j: int) -> bool:
    return j in snapshot.neighbors(i)


def shortest_path_lengths(snapshot, source: int) -> list[int]:
    """Hop distances from ``source`` to every node (UNREACHABLE if none), by one BFS."""
    n = snapshot.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source index {source} out of range for {n} nodes")
    dist = [UNREACHABLE] * n
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        next_frontier = []
        for u in frontier:
            for v in snapshot.neighbors(u):
                if dist[v] == UNREACHABLE:
                    dist[v] = level
                    next_frontier.append(v)
        frontier = next_frontier
    return dist


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


def reference_path_stats(snapshot):
    """``path_stats`` by one single-source BFS per node of the largest component."""
    parts = connected_components(snapshot)
    members = sorted(parts.largest)
    total = 0
    longest = 0
    for source in members:
        dist = shortest_path_lengths(snapshot, source)
        for target in members:
            d = dist[target]
            total += d
            if d > longest:
                longest = d
    return parts, total, longest


def reference_timeseries(log, years, seed):
    """``compute_timeseries`` records, each year computed from its own snapshot."""
    return tuple(compute_metrics_record(build_snapshot(log, year), seed) for year in years)


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
                a_ij = 1.0 if has_edge(snapshot, i, j) else 0.0
                q += a_ij - degrees[i] * degrees[j] / two_e
    return q / two_e


def exhaustive_best_partition(snapshot) -> CommunityAssignment:
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
    return CommunityAssignment(membership, modularity(snapshot, membership), "exhaustive", 0)


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


def reference_heap_greedy_pass(snapshot, initial_ids) -> tuple[int, ...]:
    """Greedy pass with a max-heap that re-pushes every pair of the merged community.

    The heap pass that the re-queueing one replaced: after each merge it
    pushes a fresh entry for every neighbour of the merged community, so
    every live pair always holds an entry at its current gain, and stale
    entries are dropped when popped.  Same gain, tie-break and labels as
    ``reference_greedy_pass``.
    """
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


def reference_line_count_series(log, voltages, domestic_only, years) -> list[int]:
    """``line_count_series`` by filtering ``active_elements`` once per year."""
    wanted = set(voltages)
    counts = []
    for year in years:
        _, edges = active_elements(log, year)
        counts.append(sum(1 for e in edges if e.voltage_kv in wanted and (e.domestic or not domestic_only)))
    return counts


def tail_probability(degrees, k: int) -> float:
    """Fraction of non-isolated nodes with degree >= k, by direct count."""
    base = [d for d in degrees if d >= 1]
    return sum(1 for d in base if d >= k) / len(base)


def _reference_points(ccdf) -> tuple[np.ndarray, np.ndarray]:
    points = sorted(ccdf.points)
    if len(points) < 3:
        raise ValueError("insufficient points: need at least 3 distinct degrees")
    ks = [k for k, _ in points]
    if len(set(ks)) != len(ks):
        raise ValueError("duplicate degree in ccdf points")
    k = np.array(ks, dtype=float)
    p = np.array([pv for _, pv in points], dtype=float)
    if np.any(k < 1) or np.any(p <= 0):
        raise ValueError("ccdf points must have degree >= 1 and p > 0")
    return k, p


def _reference_guess(k: np.ndarray, p: np.ndarray, model: str) -> tuple[float, float]:
    x = np.log(k) if model == "power_law" else k
    y = np.log(p)
    x_mean, y_mean = x.mean(), y.mean()
    denom = float(np.sum((x - x_mean) ** 2))
    if denom == 0.0:
        raise ValueError("cannot form initial guess: degenerate degree values")
    slope = float(np.sum((x - x_mean) * (y - y_mean))) / denom
    if slope >= 0.0:
        raise ValueError("cannot form initial guess: distribution is not decreasing")
    intercept = y_mean - slope * x_mean
    a0 = float(np.exp(intercept))
    shape0 = -slope if model == "power_law" else -1.0 / slope
    return a0, float(shape0)


def reference_start(ccdf, model: str) -> tuple[float, float]:
    """Starting (a, shape) of ``reference_fit_model``."""
    return _reference_guess(*_reference_points(ccdf), model)


def reference_predict(k: np.ndarray, a: float, shape: float, model: str) -> np.ndarray:
    if model == "power_law":
        return a * k ** (-shape)
    return a * np.exp(-k / shape)


def _reference_jacobian(k: np.ndarray, a: float, shape: float, model: str) -> np.ndarray:
    if model == "power_law":
        base = k ** (-shape)
        return np.column_stack([base, -a * np.log(k) * base])
    base = np.exp(-k / shape)
    return np.column_stack([base, a * k / (shape * shape) * base])


def reference_fit_model(ccdf, model: str) -> FitResult:
    """Damped Gauss-Newton over numpy arrays with an ``np.linalg.solve`` step.

    Same starting point, damping schedule and stopping rule as the library;
    a non-finite starting amplitude is not rejected here (numpy warns and
    carries inf/nan through to the result).
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    k, p = _reference_points(ccdf)
    a, shape = _reference_guess(k, p, model)

    def sse_of(av: float, sv: float) -> float:
        residual = reference_predict(k, av, sv, model) - p
        return float(residual @ residual)

    sse = sse_of(a, shape)
    damping = 1e-3
    converged = sse == 0.0
    iterations = 0
    while not converged and iterations < MAX_ITERATIONS:
        iterations += 1
        residual = reference_predict(k, a, shape, model) - p
        jac = _reference_jacobian(k, a, shape, model)
        gradient = jac.T @ residual
        hessian = jac.T @ jac
        stepped = False
        while damping <= 1e12:
            lhs = hessian + damping * np.diag(np.diag(hessian))
            try:
                delta = np.linalg.solve(lhs, -gradient)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            cand_a, cand_shape = a + float(delta[0]), shape + float(delta[1])
            if cand_shape <= 0.0 or not np.isfinite(cand_a) or not np.isfinite(cand_shape):
                damping *= 10.0
                continue
            cand_sse = sse_of(cand_a, cand_shape)
            if cand_sse <= sse:
                relative_drop = (sse - cand_sse) / sse if sse > 0 else 0.0
                a, shape, sse = cand_a, cand_shape, cand_sse
                damping = max(damping / 10.0, 1e-12)
                if relative_drop < SSE_RELATIVE_TOLERANCE or sse == 0.0:
                    converged = True
                stepped = True
                break
            damping *= 10.0
        if not stepped:
            # no downhill step exists at any damping: stationary point
            converged = True

    total = float(np.sum((p - p.mean()) ** 2))
    r_squared = 1.0 - sse / total if total > 0 else 1.0
    result = FitResult(model, a, shape, sse, r_squared)
    if not converged:
        raise FitNotConverged(
            f"{model} fit did not converge in {MAX_ITERATIONS} iterations (sse={sse:.6g})", result
        )
    return result


# ---------------------------------------------------------------------------
# grid log


@dataclass(frozen=True)
class ReferenceNodeRecord:
    id: str
    name: str
    kind: str
    commissioned: int
    decommissioned: int | None
    domestic: bool


@dataclass(frozen=True)
class ReferenceEdgeRecord:
    id: str
    node_a: str
    node_b: str
    voltage_kv: int
    commissioned: int
    decommissioned: int | None
    domestic: bool

    @property
    def endpoints(self) -> tuple[str, str]:
        """Unordered endpoint pair in canonical (sorted) order."""
        if self.node_a <= self.node_b:
            return (self.node_a, self.node_b)
        return (self.node_b, self.node_a)


def _rows(source: str | TextIO, label: str, columns: tuple[str, ...]) -> Iterator[tuple[int, str, list[str]]]:
    """Checked data rows of one table as (row number, stripped id, fields).

    The header is row 1 and must name ``columns``.  Blank rows are
    skipped; a row with the wrong field count, an empty id or an id seen
    before is an error.  CSV syntax errors name the row.  Text is read
    with ``newline=""``, like a file, so a lone carriage return ends a row.
    One leading byte-order mark (U+FEFF) is dropped, so BOM-prefixed text
    and files parse like the plain originals.
    """
    lines = iter(io.StringIO(source, newline="") if isinstance(source, str) else source)
    first = next(lines, "").removeprefix("\ufeff")
    reader = csv.reader(itertools.chain((first,), lines))
    seen: set[str] = set()
    row_num = 0  # the last row read, so a CSV syntax error names the next one
    try:
        header = next(reader, None)
        row_num = 1
        if header is None or tuple(cell.strip() for cell in header) != columns:
            raise GridLogError(f"{label}: expected header {','.join(columns)!r}")
        for row_num, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(columns):
                raise GridLogError(f"{label} row {row_num}: expected {len(columns)} fields, got {len(row)}")
            row_id = row[0].strip()
            if not row_id:
                raise GridLogError(f"{label} row {row_num}: empty id")
            if row_id in seen:
                raise GridLogError(f"{label} row {row_num}: duplicate {label[:-1]} id {row_id!r}")
            seen.add(row_id)
            yield row_num, row_id, row
    except csv.Error as exc:
        raise GridLogError(f"{label} row {row_num + 1}: {exc}") from None


def _parse_year(text: str, label: str, row_num: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise GridLogError(f"{label} row {row_num}: invalid year {text!r}") from None


def _parse_opt_year(text: str, label: str, row_num: int) -> int | None:
    text = text.strip()
    if not text:
        return None
    return _parse_year(text, label, row_num)


def _parse_bool(text: str, label: str, row_num: int) -> bool:
    value = text.strip().lower()
    if value == "true":
        return True
    if value == "false":
        return False
    raise GridLogError(f"{label} row {row_num}: domestic must be true or false, got {text!r}")


def _parse_nodes(source: str | TextIO) -> list[ReferenceNodeRecord]:
    records: list[ReferenceNodeRecord] = []
    for row_num, node_id, row in _rows(source, "nodes", NODES_COLUMNS):
        kind = row[2].strip()
        if kind not in NODE_KINDS:
            raise GridLogError(f"nodes row {row_num}: unknown kind {kind!r}")
        commissioned = _parse_year(row[3], "nodes", row_num)
        decommissioned = _parse_opt_year(row[4], "nodes", row_num)
        if decommissioned is not None and decommissioned < commissioned:
            raise GridLogError(
                f"nodes row {row_num}: node {node_id!r} decommissioned {decommissioned} "
                f"before commissioned {commissioned}"
            )
        records.append(
            ReferenceNodeRecord(
                id=node_id,
                name=row[1].strip(),
                kind=kind,
                commissioned=commissioned,
                decommissioned=decommissioned,
                domestic=_parse_bool(row[5], "nodes", row_num),
            )
        )
    return records


def _parse_edges(
    source: str | TextIO, nodes_by_id: dict[str, ReferenceNodeRecord]
) -> list[ReferenceEdgeRecord]:
    records: list[ReferenceEdgeRecord] = []
    for row_num, edge_id, row in _rows(source, "edges", EDGES_COLUMNS):
        node_a, node_b = row[1].strip(), row[2].strip()
        for endpoint in (node_a, node_b):
            if endpoint not in nodes_by_id:
                raise GridLogError(f"edges row {row_num}: unknown endpoint id {endpoint!r}")
        if node_a == node_b:
            raise GridLogError(f"edges row {row_num}: self-loop on {node_a!r}")
        try:
            voltage = int(row[3].strip())
        except ValueError:
            raise GridLogError(f"edges row {row_num}: invalid voltage {row[3]!r}") from None
        if voltage <= 0:
            raise GridLogError(f"edges row {row_num}: voltage must be positive, got {voltage}")
        commissioned = _parse_year(row[4], "edges", row_num)
        decommissioned = _parse_opt_year(row[5], "edges", row_num)
        if decommissioned is not None and decommissioned < commissioned:
            raise GridLogError(
                f"edges row {row_num}: edge {edge_id!r} decommissioned {decommissioned} "
                f"before commissioned {commissioned}"
            )
        record = ReferenceEdgeRecord(
            id=edge_id,
            node_a=node_a,
            node_b=node_b,
            voltage_kv=voltage,
            commissioned=commissioned,
            decommissioned=decommissioned,
            domestic=_parse_bool(row[6], "edges", row_num),
        )
        _check_edge_within_endpoints(record, nodes_by_id, row_num)
        records.append(record)
    return records


def _check_edge_within_endpoints(
    edge: ReferenceEdgeRecord, nodes_by_id: dict[str, ReferenceNodeRecord], row_num: int
) -> None:
    """An edge may only be active while both endpoints are."""
    if edge.decommissioned is not None and edge.decommissioned <= edge.commissioned:
        return  # empty lifetime, never active
    for endpoint_id in (edge.node_a, edge.node_b):
        node = nodes_by_id[endpoint_id]
        if edge.commissioned < node.commissioned:
            raise GridLogError(
                f"edges row {row_num}: edge {edge.id!r} commissioned {edge.commissioned} "
                f"before endpoint {endpoint_id!r} ({node.commissioned})"
            )
        if node.decommissioned is not None and (
            edge.decommissioned is None or edge.decommissioned > node.decommissioned
        ):
            raise GridLogError(
                f"edges row {row_num}: edge {edge.id!r} outlives endpoint {endpoint_id!r} "
                f"(decommissioned {node.decommissioned})"
            )


def _merge_parallel(edges: list[ReferenceEdgeRecord]) -> tuple[list[ReferenceEdgeRecord], list[CircuitMerge]]:
    """Collapse same-pair records with overlapping lifetimes into one.

    The surviving record keeps the earliest commission, latest
    decommission (open end wins), highest voltage, and is domestic only
    when every constituent circuit is.  Records with empty lifetimes are
    never active and pass through untouched.
    """
    by_pair: dict[tuple[str, str], list[ReferenceEdgeRecord]] = defaultdict(list)
    inert: list[ReferenceEdgeRecord] = []
    for edge in edges:
        if edge.decommissioned is not None and edge.decommissioned <= edge.commissioned:
            inert.append(edge)
        else:
            by_pair[edge.endpoints].append(edge)

    merged: list[ReferenceEdgeRecord] = list(inert)
    notes: list[CircuitMerge] = []

    def flush(cluster: list[ReferenceEdgeRecord], end: int | None) -> None:
        if len(cluster) == 1:
            merged.append(cluster[0])
            return
        first = cluster[0]
        combined = replace(
            first,
            decommissioned=end,
            voltage_kv=max(e.voltage_kv for e in cluster),
            domestic=all(e.domestic for e in cluster),
        )
        merged.append(combined)
        notes.append(
            CircuitMerge(
                kept_id=first.id,
                merged_ids=tuple(e.id for e in cluster),
                node_a=first.endpoints[0],
                node_b=first.endpoints[1],
                commissioned=combined.commissioned,
                decommissioned=combined.decommissioned,
            )
        )

    for pair in sorted(by_pair):
        group = sorted(by_pair[pair], key=lambda e: (e.commissioned, e.id))
        cluster = [group[0]]
        end = group[0].decommissioned
        for edge in group[1:]:
            if end is None or edge.commissioned < end:
                cluster.append(edge)
                if end is not None:
                    end = None if edge.decommissioned is None else max(end, edge.decommissioned)
            else:
                flush(cluster, end)
                cluster = [edge]
                end = edge.decommissioned
        flush(cluster, end)

    merged.sort(key=lambda e: e.id)
    return merged, notes


def reference_parse_log(nodes_source: str | TextIO, edges_source: str | TextIO) -> TemporalGridLog:
    """``parse_log`` as the row-by-row parser it replaced: a generator of
    checked rows, one helper per field and frozen-dataclass records.

    Sources are CSV text (or open text streams) following the documented
    schemas.  Raises GridLogError naming the offending row on any
    malformed or inconsistent input.
    """
    nodes = _parse_nodes(nodes_source)
    nodes_by_id = {n.id: n for n in nodes}
    edges = _parse_edges(edges_source, nodes_by_id)
    merged, notes = _merge_parallel(edges)
    nodes.sort(key=lambda n: n.id)
    return TemporalGridLog(nodes=tuple(nodes), edges=tuple(merged), merges=tuple(notes))
