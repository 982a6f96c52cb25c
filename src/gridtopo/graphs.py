"""Immutable per-year graph snapshots and basic graph primitives."""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, NamedTuple

from .grid_log import TemporalGridLog, active_elements


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

    def same_graph(self, other: GraphSnapshot) -> bool:
        """Same labelled nodes and edges, whatever the years."""
        return self.labels == other.labels and self._neighbors == other._neighbors

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphSnapshot):
            return NotImplemented
        return self.year == other.year and self.same_graph(other)

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
