from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridtopo import metrics
from gridtopo.communities import modularity
from gridtopo.generators import barabasi_albert, erdos_renyi, watts_strogatz
from gridtopo.graphs import GraphSnapshot, build_snapshot
from gridtopo.metrics import (
    METRICS_CSV_HEADER,
    MetricsRecord,
    average_path_length,
    clustering_coefficient,
    degree_stats,
    diameter,
    path_stats,
    random_baselines,
    records_to_csv,
    small_world_sigma,
)

import properties
from conftest import clique_union, random_graph
from oracles import brute_modularity, floyd_warshall, reference_path_stats


def path_graph(n):
    return GraphSnapshot(range(n), [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# degree statistics


def test_degree_stats_triangle():
    stats = degree_stats(clique_union([3]))
    assert stats.degrees == (2, 2, 2)
    assert stats.average == 2.0
    assert stats.histogram == (0, 0, 3)


def test_degree_stats_star():
    star = GraphSnapshot(range(4), [(0, 1), (0, 2), (0, 3)])
    assert degree_stats(star).average == 1.5


def test_degree_stats_published_1008_over_385():
    # ring of 385 plus 119 chords: N=385, E=504
    edges = [(i, (i + 1) % 385) for i in range(385)]
    edges += [(i, i + 5) for i in range(119)]
    snap = GraphSnapshot(range(385), edges)
    assert snap.num_edges == 504
    avg = degree_stats(snap).average
    assert avg == 2 * 504 / 385
    assert abs(avg - 2.618) < 1e-3
    assert abs(avg - 2.61) < 0.01  # the published endpoint, after rounding


def test_degree_stats_empty_graph():
    with pytest.raises(ValueError, match="no nodes"):
        degree_stats(GraphSnapshot([], []))


def test_clustering_empty_graph():
    with pytest.raises(ValueError, match="^clustering undefined: graph has no nodes$"):
        clustering_coefficient(GraphSnapshot([], []))


# ---------------------------------------------------------------------------
# path metrics


def test_path_length_triangle():
    assert average_path_length(clique_union([3])) == 1.0


def test_path_length_p3():
    assert average_path_length(path_graph(3)) == pytest.approx(4 / 3, rel=1e-15)


def test_path_length_matches_oracle_on_seeded_graphs():
    for i in range(15):
        snap = random_graph(5 + 3 * i, 0.25, 40 + i)
        dist = floyd_warshall(snap)
        finite = dist[~(dist == float("inf"))]
        # oracle restricted to the largest component
        import numpy as np

        comps = []
        seen = set()
        for v in range(snap.num_nodes):
            if v in seen:
                continue
            comp = {u for u in range(snap.num_nodes) if np.isfinite(dist[v, u])}
            seen |= comp
            comps.append(comp)
        comps.sort(key=lambda c: (-len(c), min(c)))
        members = sorted(comps[0])
        if len(members) < 2:
            continue
        sub = dist[np.ix_(members, members)]
        expected_l = sub.sum() / (len(members) * (len(members) - 1))
        assert average_path_length(snap) == pytest.approx(expected_l, rel=1e-12)
        assert diameter(snap) == int(sub.max())


def test_diameter_small_cases():
    assert diameter(path_graph(4)) == 3
    assert diameter(clique_union([5])) == 1


def test_path_metrics_need_two_connected_nodes():
    isolated = GraphSnapshot(range(3), [])
    with pytest.raises(ValueError, match="fewer than 2"):
        average_path_length(isolated)
    with pytest.raises(ValueError, match="fewer than 2"):
        diameter(isolated)


def test_path_stats_and_clustering_match_networkx():
    nx = pytest.importorskip("networkx")
    snaps = [
        watts_strogatz(120, 4, 0.0, 1),
        watts_strogatz(200, 4, 0.1, 2),
        watts_strogatz(300, 2, 0.3, 3),  # disconnected: L and d over the LCC only
        barabasi_albert(150, 1, 4),
        barabasi_albert(400, 3, 6),  # hubs of degree > 40
    ]
    for snap in snaps:
        graph = nx.Graph()
        graph.add_nodes_from(range(snap.num_nodes))
        graph.add_edges_from(snap.edges())
        components = sorted(nx.connected_components(graph), key=len, reverse=True)
        assert len(components) == 1 or len(components[0]) > len(components[1])  # a unique LCC
        lcc = graph.subgraph(components[0])
        parts, distance_sum, longest = path_stats(snap)
        assert (parts.num_components, parts.largest) == (len(components), components[0])
        size = len(parts.largest)
        assert distance_sum / (size * (size - 1)) == pytest.approx(
            nx.average_shortest_path_length(lcc), rel=1e-12
        )
        assert longest == nx.diameter(lcc)
        assert clustering_coefficient(snap) == pytest.approx(nx.average_clustering(graph), rel=1e-12)


# path_stats sweeps the sources in blocks; these sizes cover one source per
# block, blocks that split the LCC unevenly, and the shipped single block
SOURCE_BLOCKS = (1, 3, 64, 4096)


def _assert_path_stats_equal_reference(snap):
    expected = reference_path_stats(snap)
    for block in SOURCE_BLOCKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "SOURCE_BLOCK", block)
            assert path_stats(snap) == expected, block


@st.composite
def small_graphs(draw):
    """A simple graph on at most 30 nodes; sparse draws leave isolated nodes."""
    n = draw(st.integers(min_value=0, max_value=30))
    density = draw(st.sampled_from((0.0, 0.05, 0.1, 0.2, 0.5)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    edges = [(i, j) for i in range(n - 1) for j in range(i + 1, n) if rng.random() < density]
    return GraphSnapshot(range(n), edges)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
@example(GraphSnapshot([], []))
@example(GraphSnapshot([0], []))
@example(GraphSnapshot(range(4), [(0, 1), (2, 3)]))
def test_path_stats_equals_reference_on_any_graph(snap):
    _assert_path_stats_equal_reference(snap)


def test_path_stats_equals_reference_on_fixture_years(fixture_log):
    for year in range(1950, 1981):
        _assert_path_stats_equal_reference(build_snapshot(fixture_log, year))


def test_path_stats_equals_reference_on_seeded_graphs():
    for seed in (1, 2, 3):
        for snap in (
            watts_strogatz(200, 4, 0.1, seed),
            erdos_renyi(150, 0.012, seed),  # several components
            barabasi_albert(250, 2, seed),
        ):
            _assert_path_stats_equal_reference(snap)


# ---------------------------------------------------------------------------
# clustering


def test_clustering_triangle():
    assert clustering_coefficient(clique_union([3])) == 1.0


def test_clustering_tree_is_zero():
    assert clustering_coefficient(path_graph(6)) == 0.0


def test_clustering_k4_minus_edge():
    snap = GraphSnapshot(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert clustering_coefficient(snap) == pytest.approx(5 / 6, rel=1e-15)


def test_clustering_counts_low_degree_nodes_as_zero():
    # triangle plus a pendant: the pendant contributes 0 to the mean
    snap = GraphSnapshot(range(4), [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert clustering_coefficient(snap) == pytest.approx((1.0 + 1.0 + 1 / 3 + 0.0) / 4)


# ---------------------------------------------------------------------------
# random baselines and sigma


def test_random_baselines_frozen_values():
    l_r, c_r = random_baselines(314, 2.54)
    assert l_r == pytest.approx((math.log(314) - 0.5772) / math.log(2.54) + 0.5, rel=1e-14)
    assert l_r == pytest.approx(6.048586446487767, rel=1e-12)
    assert c_r == pytest.approx(0.008089171974522294, rel=1e-12)
    assert round(l_r, 3) == 6.049 and round(c_r, 6) == 0.008089


def test_random_baselines_reject_avg_degree_at_most_one():
    with pytest.raises(ValueError, match="undefined"):
        random_baselines(10, 1.0)
    with pytest.raises(ValueError, match="undefined"):
        random_baselines(10, 0.5)
    with pytest.raises(ValueError):
        random_baselines(1, 3.0)


def test_random_clustering_simple_case():
    _, c_r = random_baselines(100, 10.0)
    assert c_r == 0.1


def test_sigma_boundary_is_not_small_world():
    sigma, small = small_world_sigma(0.3, 0.3, 2.0, 2.0)
    assert sigma == 1.0
    assert not small


def test_sigma_published_1999_inputs():
    l_r, c_r = random_baselines(314, 2.54)
    sigma, small = small_world_sigma(0.063, c_r, 6.64, l_r)
    assert 7.0 <= sigma <= 7.2  # published value: 7.11
    assert small


def test_sigma_zero_clustering():
    sigma, small = small_world_sigma(0.0, 0.1, 2.0, 2.5)
    assert sigma == 0.0
    assert not small


def test_sigma_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        small_world_sigma(-0.1, 0.1, 2.0, 2.0)
    with pytest.raises(ValueError):
        small_world_sigma(0.1, 0.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        small_world_sigma(0.1, 0.1, 0.0, 2.0)
    with pytest.raises(ValueError):
        small_world_sigma(0.1, 0.1, 2.0, -1.0)


# ---------------------------------------------------------------------------
# modularity


def test_modularity_single_community_is_exactly_zero():
    for i in range(10):
        snap = random_graph(4 + i, 0.4, 10 + i)
        if snap.num_edges == 0:
            continue
        assert modularity(snap, [0] * snap.num_nodes) == 0.0


def test_modularity_two_triangles():
    snap = clique_union([3, 3])
    assert modularity(snap, [0, 0, 0, 1, 1, 1]) == 0.5


def test_modularity_matches_brute_oracle():
    import random as _random

    for i in range(20):
        snap = random_graph(4 + (i % 7), 0.5, 300 + i)
        if snap.num_edges == 0:
            continue
        rng = _random.Random(i)
        membership = [rng.randrange(3) for _ in range(snap.num_nodes)]
        assert modularity(snap, membership) == pytest.approx(
            brute_modularity(snap, membership), abs=1e-12
        )


def test_modularity_errors():
    snap = clique_union([3])
    with pytest.raises(ValueError, match="no edges"):
        modularity(GraphSnapshot(range(3), []), [0, 0, 0])
    with pytest.raises(ValueError, match="cover"):
        modularity(snap, [0, 0])
    with pytest.raises(ValueError, match="cover"):
        modularity(snap, [0, 0, None])


def test_modularity_intra_edge_addition_can_lower_q():
    """Counterexample to the tempting monotonicity claim.

    For two balanced components partitioned by component, Q = 0.5; adding
    an edge inside one community unbalances the degree split and lowers Q
    to 0.48.  The unnormalized sum 2E*Q is what never decreases.
    """
    before = GraphSnapshot(range(6), [(0, 1), (1, 2), (3, 4), (4, 5)])
    after = GraphSnapshot(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
    membership = [0, 0, 0, 1, 1, 1]
    q_before = modularity(before, membership)
    q_after = modularity(after, membership)
    assert q_before == 0.5
    assert q_after == pytest.approx(0.48, abs=1e-12)
    assert q_after < q_before
    # the unnormalized quantity does increase
    assert 2 * after.num_edges * q_after > 2 * before.num_edges * q_before


def test_metrics_record_csv_formatting():
    record = MetricsRecord(
        year=1999,
        num_nodes=314,
        num_edges=399,
        avg_degree=2.5414012738853504,
        diameter=14,
        avg_path_length=6.64,
        clustering=0.063,
        random_path_length=6.048586446487767,
        random_clustering=0.008089171974522294,
        sigma=7.0945081754827,
        modularity_q=None,
        component_count=1,
        largest_component_size=314,
    )
    text = records_to_csv([record])
    row = "1999,314,399,2.5414,14,6.64,0.063,6.04859,0.00808917,7.09451,NA,1,314"
    assert text == METRICS_CSV_HEADER + "\n" + row + "\n"
    assert len(row.split(",")) == len(METRICS_CSV_HEADER.split(","))


def test_invariant_modularity_intra_edge_monotonicity():
    properties.check_modularity_intra_edge_monotonicity()


def test_invariant_modularity_bounds():
    properties.check_modularity_bounds()


def test_invariant_relabeling_invariance():
    properties.check_metric_relabeling_invariance()


def test_invariant_sigma_scale_consistency():
    properties.check_sigma_scale_consistency()


def test_invariant_complete_graph_values():
    properties.check_complete_graph_metrics()


def test_invariant_record_fields():
    properties.check_metrics_record_fields()


def test_invariant_modularity_brute_oracle():
    properties.check_modularity_against_brute_oracle()
