from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtopo.communities import (
    _greedy_pass,
    assignment_to_csv,
    detect_communities,
    exhaustive_best_partition,
)
from gridtopo.generators import watts_strogatz
from gridtopo.graphs import GraphSnapshot, build_snapshot
from gridtopo.metrics import modularity

import properties
from conftest import clique_union, random_graph
from oracles import reference_greedy_pass


def test_two_triangles_recovered_as_communities():
    snap = clique_union([3, 3])
    assignment = detect_communities(snap, seed=1)
    assert assignment.membership == (0, 0, 0, 1, 1, 1)
    assert assignment.achieved_q == 0.5


def test_complete_graph_stays_single_community():
    assignment = detect_communities(clique_union([5]), seed=1)
    assert assignment.num_communities == 1
    assert assignment.achieved_q == 0.0


def test_achieved_q_equals_modularity_exactly():
    for i in range(10):
        snap = random_graph(5 + i, 0.35, 60 + i)
        if snap.num_edges == 0:
            continue
        assignment = detect_communities(snap, seed=3)
        assert assignment.achieved_q == modularity(snap, assignment.membership)


def test_greedy_never_beats_exhaustive_on_small_graphs():
    checked = 0
    for i in range(25):
        snap = random_graph(3 + (i % 6), 0.4, 150 + i)
        if snap.num_edges == 0:
            continue
        greedy = detect_communities(snap, seed=1)
        best = exhaustive_best_partition(snap)
        assert greedy.achieved_q <= best.achieved_q + 1e-12, i
        checked += 1
    assert checked >= 15


def test_exhaustive_two_triangles():
    best = exhaustive_best_partition(clique_union([3, 3]))
    assert best.membership == (0, 0, 0, 1, 1, 1)
    assert best.achieved_q == 0.5


def test_exhaustive_single_edge_prefers_single_community():
    snap = GraphSnapshot(range(2), [(0, 1)])
    best = exhaustive_best_partition(snap)
    assert best.membership == (0, 0)
    assert best.achieved_q == 0.0
    # the only other partition scores -0.5
    assert modularity(snap, (0, 1)) == -0.5


def test_exhaustive_triangle_single_community():
    best = exhaustive_best_partition(clique_union([3]))
    assert best.num_communities == 1


def test_exhaustive_guard():
    with pytest.raises(ValueError, match="refused"):
        exhaustive_best_partition(clique_union([13]))


def test_empty_graph_rejected():
    edgeless = GraphSnapshot(range(4), [])
    with pytest.raises(ValueError, match="no edges"):
        detect_communities(edgeless)
    with pytest.raises(ValueError, match="no edges"):
        exhaustive_best_partition(edgeless)
    with pytest.raises(ValueError):
        detect_communities(clique_union([3]), restarts=0)


def test_restarts_never_lower_quality():
    for i in range(8):
        snap = random_graph(10, 0.3, 500 + i)
        if snap.num_edges == 0:
            continue
        base = detect_communities(snap, seed=7)
        more = detect_communities(snap, seed=7, restarts=5)
        assert more.achieved_q >= base.achieved_q


def test_assignment_csv_export():
    snap = GraphSnapshot(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])
    assignment = detect_communities(snap, seed=1)
    text = assignment_to_csv(snap, assignment)
    assert text.splitlines()[0] == "node_id,community_id"
    assert text.splitlines()[1:] == ["x,0", "y,0", "z,0"]


def test_invariant_detection_deterministic():
    properties.check_detection_deterministic()


def test_invariant_merge_local_optimum():
    properties.check_greedy_stops_at_merge_local_optimum()


def test_invariant_clique_union_recovery():
    properties.check_clique_union_recovery()


@st.composite
def graphs_with_ids(draw):
    """A simple graph on at most 40 nodes and a permutation of its node ids."""
    n = draw(st.integers(min_value=1, max_value=40))
    pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    density = draw(st.sampled_from((0.05, 0.1, 0.2, 0.5)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    edges = [pair for pair in pairs if rng.random() < density]
    ids = draw(st.permutations(range(n)))
    return GraphSnapshot(range(n), edges), tuple(ids)


@settings(max_examples=150, deadline=None)
@given(graphs_with_ids())
def test_greedy_pass_equals_reference(case):
    snap, shuffled = case
    identity = tuple(range(snap.num_nodes))
    assert _greedy_pass(snap, identity) == reference_greedy_pass(snap, identity)
    assert _greedy_pass(snap, shuffled) == reference_greedy_pass(snap, shuffled)


def test_greedy_pass_equals_reference_on_fixture_years(fixture_log):
    rng = random.Random(1950)
    for year in range(1950, 1981):
        snap = build_snapshot(fixture_log, year)
        ids = list(range(snap.num_nodes))
        assert _greedy_pass(snap, tuple(ids)) == reference_greedy_pass(snap, tuple(ids)), year
        rng.shuffle(ids)
        assert _greedy_pass(snap, tuple(ids)) == reference_greedy_pass(snap, tuple(ids)), year


def _reference_detect(snap, seed, restarts):
    """The restart loop of ``detect_communities`` driven by the reference pass."""
    n = snap.num_nodes
    best = reference_greedy_pass(snap, tuple(range(n)))
    best_q = modularity(snap, best)
    rng = random.Random(seed)
    for _ in range(1, restarts):
        ids = list(range(n))
        rng.shuffle(ids)
        membership = reference_greedy_pass(snap, tuple(ids))
        q = modularity(snap, membership)
        if q > best_q:
            best, best_q = membership, q
    return best, best_q


def test_restarts_equal_reference_restart_loop():
    for seed in range(12):
        snap = watts_strogatz(40, 4, 0.2, seed)
        assignment = detect_communities(snap, seed=seed, restarts=5)
        assert (assignment.membership, assignment.achieved_q) == _reference_detect(snap, seed, 5), seed
