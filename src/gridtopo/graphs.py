"""Immutable per-year graph snapshots and basic graph primitives."""

from __future__ import annotations

from bisect import bisect_left
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

from .grid_log import TemporalGridLog, _service_intervals, active_elements


class GraphSnapshot:
    """Simple undirected graph for one year.

    Nodes are indexed 0..N-1 in sorted label order so that all derived
    results are reproducible.  Instances are immutable after construction.
    """

    __slots__ = ("year", "labels", "_neighbors", "_num_edges")

    def __init__(self, labels: Iterable[Hashable], edges: Iterable[tuple], year: int | None = None):
        ordered = tuple(sorted(labels))
        if len(set(ordered)) != len(ordered):
            raise ValueError("duplicate node labels")
        index = {label: i for i, label in enumerate(ordered)}
        adjacency: list[set[int]] = [set() for _ in ordered]
        for a, b in edges:
            if a not in index or b not in index:
                missing = a if a not in index else b
                raise ValueError(f"edge endpoint {missing!r} not in node set")
            ia, ib = index[a], index[b]
            if ia == ib:
                raise ValueError(f"self-loop on {a!r}")
            adjacency[ia].add(ib)
            adjacency[ib].add(ia)
        self.year = year
        self.labels = ordered
        self._neighbors = tuple(tuple(sorted(s)) for s in adjacency)
        self._num_edges = sum(len(s) for s in adjacency) // 2

    @classmethod
    def _of(cls, labels: tuple, neighbors: tuple[tuple[int, ...], ...], num_edges: int, year: int):
        """A snapshot from parts that already hold its invariants: sorted labels, sorted neighbour tuples."""
        snapshot = object.__new__(cls)
        snapshot.year = year
        snapshot.labels = labels
        snapshot._neighbors = neighbors
        snapshot._num_edges = num_edges
        return snapshot

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._neighbors[i]

    def degree(self, i: int) -> int:
        return len(self._neighbors[i])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self._neighbors)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as an (i, j) index pair with i < j."""
        for i, nbrs in enumerate(self._neighbors):
            for j in nbrs:
                if i < j:
                    yield (i, j)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphSnapshot):
            return NotImplemented
        return self.year == other.year and self.labels == other.labels and self._neighbors == other._neighbors

    def __repr__(self) -> str:
        return f"GraphSnapshot(year={self.year}, N={self.num_nodes}, E={self.num_edges})"


class ComponentPartition(NamedTuple):
    """Connected components of a snapshot.

    ``component_of`` maps node index to a component id assigned in order
    of each component's smallest node index.  ``largest`` is the node set
    of the largest component; ties go to the component containing the
    smallest node index.
    """

    component_of: tuple[int, ...]
    sizes: tuple[int, ...]
    largest: frozenset[int]

    @property
    def num_components(self) -> int:
        return len(self.sizes)


def build_snapshot(log: TemporalGridLog, year: int) -> GraphSnapshot:
    """Materialize the simple graph of elements in service during ``year``."""
    node_ids, edges = active_elements(log, year)
    return GraphSnapshot(node_ids, ((e.node_a, e.node_b) for e in edges), year=year)


def yearly_snapshots(log: TemporalGridLog, years: Sequence[int]) -> tuple[list[GraphSnapshot], list[int]]:
    """The distinct graphs of non-empty, strictly increasing ``years``, and the index of each year's graph.

    Any other ``years`` raise ValueError before any event is filed.  The sweep
    starts from an empty graph.  The first year applies every commission and
    decommission event up to it, and every later year the events since the year
    before, each summed per node and per node pair: a pair is an edge while its
    count of in-service records is positive, so the order of events within a
    year, a line that ends in the year another starts on the same pair, a
    lifetime that ends before the first year and unmerged overlapping records do
    not matter.  A later year in which no node and no pair flips reuses the
    previous graph, whose year is the first year it was seen.

    Let p be the length of the common prefix of the old and new sorted
    labels; no index below p moves.  A new graph keeps the neighbour tuple
    (the same object) of every node below p whose edges did not flip and
    whose neighbours all sit below p.  Every other node's tuple is rebuilt
    from the adjacency.
    """
    years = list(years)
    if not years:
        raise ValueError("year range must not be empty")
    if any(b <= a for a, b in zip(years, years[1:])):
        raise ValueError("years must be strictly increasing")
    last = years[-1]
    # per year, the net change in service of each node and pair over the year's events
    node_delta: list[dict] = [{} for _ in years]
    pair_delta: list[dict] = [{} for _ in years]

    def events(key, start: int, end: int | None, deltas: list[dict]) -> None:
        if end is not None and end <= start:
            return  # never in service, and its -1 would come before or with its +1
        if start <= last:
            delta = deltas[bisect_left(years, start)]
            delta[key] = delta.get(key, 0) + 1
        if end is not None and end <= last:
            delta = deltas[bisect_left(years, end)]
            delta[key] = delta.get(key, 0) - 1

    for n in log.nodes:
        events(n.id, n.commissioned, n.decommissioned, node_delta)
    for e, start, end in _service_intervals(log, log.edges):
        events((e.node_a, e.node_b) if e.node_a <= e.node_b else (e.node_b, e.node_a), start, end, pair_delta)

    count: dict[tuple, int] = {}  # in-service records per node pair
    adjacent: dict = {}  # the neighbour labels of each label
    labels, neighbors, num_edges = (), (), 0
    index: dict = {}  # the index of each label
    snapshots: list[GraphSnapshot] = []
    graph_of_year: list[int] = []
    for k in range(len(years)):
        touched = set()  # the nodes an edge was added to or removed from
        for pair, delta in pair_delta[k].items():
            before = count.get(pair, 0)
            after = before + delta
            count[pair] = after
            if (before > 0) != (after > 0):
                a, b = pair
                if a == b:
                    raise ValueError(f"self-loop on {a!r}")
                if after:
                    adjacent.setdefault(a, set()).add(b)
                    adjacent.setdefault(b, set()).add(a)
                else:
                    adjacent[a].discard(b)
                    adjacent[b].discard(a)
                touched.update(pair)
                num_edges += 1 if after else -1
        added = sorted(node for node, delta in node_delta[k].items() if delta > 0)
        removed = {node for node, delta in node_delta[k].items() if delta < 0}
        if snapshots and not (touched or added or removed):
            graph_of_year.append(len(snapshots) - 1)
            continue

        size = len(labels)
        prefix = size
        if removed:
            prefix = min(index[node] for node in removed)
        if added:
            prefix = min(prefix, bisect_left(labels, added[0]))
        new_labels = labels
        if prefix < size or added:
            moved = [node for node in labels[prefix:] if node not in removed]
            new_labels = labels[:prefix] + tuple(sorted(moved + added))
            for node in removed:
                del index[node]
            for i in range(prefix, len(new_labels)):
                index[new_labels[i]] = i

        new_neighbors = list(neighbors[:prefix]) + [()] * (len(new_labels) - prefix)
        rebuilt = (touched - removed).union(new_labels[prefix:])
        if prefix < size:
            rebuilt.update(labels[i] for i, nbrs in enumerate(neighbors[:prefix]) if nbrs and nbrs[-1] >= prefix)
        for node in rebuilt:
            new_neighbors[index[node]] = tuple(sorted([index[other] for other in adjacent.get(node, ())]))

        labels, neighbors = new_labels, tuple(new_neighbors)
        snapshots.append(GraphSnapshot._of(labels, neighbors, num_edges, years[k]))
        graph_of_year.append(len(snapshots) - 1)
    return snapshots, graph_of_year


def connected_components(snapshot: GraphSnapshot) -> ComponentPartition:
    n = snapshot.num_nodes
    component_of = [-1] * n
    sizes: list[int] = []
    for start in range(n):
        if component_of[start] != -1:
            continue
        comp_id = len(sizes)
        component_of[start] = comp_id
        stack = [start]
        size = 0
        while stack:
            u = stack.pop()
            size += 1
            for v in snapshot._neighbors[u]:
                if component_of[v] == -1:
                    component_of[v] = comp_id
                    stack.append(v)
        sizes.append(size)
    if not sizes:
        return ComponentPartition((), (), frozenset())
    # components are numbered by smallest contained node index, so the
    # first component with maximal size wins ties
    best = max(range(len(sizes)), key=lambda c: (sizes[c], -c))
    largest = frozenset(i for i in range(n) if component_of[i] == best)
    return ComponentPartition(tuple(component_of), tuple(sizes), largest)


def to_edgelist(snapshot: GraphSnapshot) -> str:
    """Debug export: one sorted "label_a label_b" pair per line."""
    lines = []
    for i, j in snapshot.edges():
        a, b = snapshot.labels[i], snapshot.labels[j]
        lines.append(f"{a} {b}")
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")
