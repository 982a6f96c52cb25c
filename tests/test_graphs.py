from __future__ import annotations

import numpy as np
import pytest

from gridtopo.graphs import (
    UNREACHABLE,
    GraphSnapshot,
    build_snapshot,
    connected_components,
    shortest_path_lengths,
    to_edgelist,
)

import properties
from conftest import random_graph
from oracles import floyd_warshall, union_find_components


def path_graph(n):
    return GraphSnapshot(range(n), [(i, i + 1) for i in range(n - 1)])


def test_bfs_on_path_graph():
    assert shortest_path_lengths(path_graph(4), 0) == [0, 1, 2, 3]


def test_bfs_marks_unreachable_distinctly():
    snap = GraphSnapshot(range(5), [(0, 1), (1, 2), (3, 4)])
    dist = shortest_path_lengths(snap, 0)
    assert dist[:3] == [0, 1, 2]
    assert dist[3] == dist[4] == UNREACHABLE


def test_bfs_invalid_source():
    with pytest.raises(ValueError):
        shortest_path_lengths(path_graph(3), 3)
    with pytest.raises(ValueError):
        shortest_path_lengths(path_graph(3), -1)


def test_bfs_matches_relaxation_oracle_sample():
    for i in range(20):
        snap = random_graph(4 + i * 2, 0.15, 90 + i)
        expected = floyd_warshall(snap)
        for source in range(snap.num_nodes):
            got = shortest_path_lengths(snap, source)
            for target in range(snap.num_nodes):
                if np.isinf(expected[source, target]):
                    assert got[target] == UNREACHABLE
                else:
                    assert got[target] == int(expected[source, target])


def test_components_two_triangles():
    snap = GraphSnapshot(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    parts = connected_components(snap)
    assert parts.num_components == 2
    assert parts.sizes == (3, 3)
    assert parts.largest == frozenset({0, 1, 2})  # tie broken by smallest node


def test_components_empty_graph():
    parts = connected_components(GraphSnapshot([], []))
    assert parts.num_components == 0
    assert parts.largest == frozenset()


def test_components_match_union_find_oracle():
    for i in range(25):
        snap = random_graph(3 + i, 0.12, 700 + i)
        parts = connected_components(snap)
        expected = union_find_components(snap)
        got = {}
        for node, comp in enumerate(parts.component_of):
            got.setdefault(comp, set()).add(node)
        assert sorted(map(frozenset, got.values()), key=lambda g: (-len(g), min(g))) == expected
        assert parts.largest == expected[0]


def test_snapshot_rejects_self_loops_and_unknown_labels():
    with pytest.raises(ValueError):
        GraphSnapshot(range(3), [(0, 0)])
    with pytest.raises(ValueError):
        GraphSnapshot(range(3), [(0, 5)])
    with pytest.raises(ValueError):
        GraphSnapshot([1, 1, 2], [])


def test_snapshot_deduplicates_parallel_pairs():
    snap = GraphSnapshot(range(3), [(0, 1), (1, 0), (0, 1)])
    assert snap.num_edges == 1
    assert sum(snap.degrees()) == 2


def test_build_snapshot_counts_merged_circuit_once(fixture_log):
    snap = build_snapshot(fixture_log, 1958)
    assert snap.num_nodes == 6
    assert snap.num_edges == 5  # the n02-n04 double circuit is one edge


def test_build_snapshot_empty_year(fixture_log):
    snap = build_snapshot(fixture_log, 1900)
    assert snap.num_nodes == 0
    assert snap.num_edges == 0


def test_build_snapshot_hand_counted_year(fixture_log):
    snap = build_snapshot(fixture_log, 1975)
    assert snap.num_nodes == 12
    assert snap.num_edges == 16


def test_snapshot_indexing_is_sorted_and_deterministic(fixture_log):
    snap = build_snapshot(fixture_log, 1970)
    assert list(snap.labels) == sorted(snap.labels)


def test_edgelist_export():
    snap = GraphSnapshot(["b", "a", "c"], [("b", "a"), ("c", "b")])
    assert to_edgelist(snap) == "a b\nb c\n"
    assert to_edgelist(GraphSnapshot([], [])) == ""


def test_invariant_degree_sum():
    properties.check_degree_sum_is_twice_edges()


def test_invariant_bfs_distance_bound():
    properties.check_bfs_distance_bound()


def test_invariant_triangle_inequality():
    properties.check_hop_distance_triangle_inequality()


def test_invariant_build_snapshot_pure():
    properties.check_build_snapshot_pure()
