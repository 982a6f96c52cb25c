"""Registry of module invariants, checked as seeded property functions.

Each entry is a zero-argument callable that raises AssertionError on
violation.  The per-module test files exercise individual entries; the
acceptance suite runs the whole registry.
"""

from __future__ import annotations

import functools
import json
import math
import random

from gridtopo import (
    GraphSnapshot,
    average_path_length,
    barabasi_albert,
    build_ccdf,
    build_snapshot,
    clustering_coefficient,
    compare_fits,
    compute_timeseries,
    connected_components,
    degree_stats,
    detect_communities,
    diameter,
    erdos_renyi,
    fit_model,
    modularity,
    parse_log,
    pearson,
    random_baselines,
    small_world_sigma,
    to_edgelist,
    watts_strogatz,
)
from gridtopo.degree_fit import Ccdf
from gridtopo.grid_log import active_elements
from gridtopo.metrics import path_stats

from conftest import clique_union, demo_log, random_graph
from oracles import brute_modularity, floyd_warshall, has_edge, shortest_path_lengths, to_csv, union_find_components


def _sample_graphs(count: int, max_n: int, seed0: int) -> list[GraphSnapshot]:
    graphs = []
    for i in range(count):
        rng = random.Random(seed0 + i)
        n = rng.randrange(3, max_n + 1)
        p = rng.uniform(0.05, 0.7)
        graphs.append(random_graph(n, p, seed0 + 1000 + i))
    return graphs


def _random_membership(n: int, seed: int) -> tuple[int, ...]:
    rng = random.Random(seed)
    k = rng.randrange(1, n + 1)
    return tuple(rng.randrange(k) for _ in range(n))


@functools.lru_cache(maxsize=1)
def ws_small_world_stats() -> tuple[float, bool, float]:
    """(sigma, is_small_world, clustering) for the pinned WS configuration."""
    snap = watts_strogatz(1000, 10, 0.01, 42)
    c = clustering_coefficient(snap)
    stats = degree_stats(snap)
    l = average_path_length(snap)
    l_r, c_r = random_baselines(snap.num_nodes, stats.average)
    sigma, small = small_world_sigma(c, c_r, l, l_r)
    return sigma, small, c


# ---------------------------------------------------------------------------
# grid_log


def check_active_edge_endpoints_subset() -> None:
    log = demo_log()
    for year in range(1945, 1986):
        node_ids, edges = active_elements(log, year)
        for edge in edges:
            assert edge.node_a in node_ids and edge.node_b in node_ids, (year, edge.id)


def check_activity_monotone_under_extension() -> None:
    log = demo_log()
    nodes_csv, edges_csv = to_csv(log)
    extended = parse_log(
        nodes_csv + "zz1,Extra Station,substation,1940,,true\n",
        edges_csv + "zz9,zz1,n01,120,1950,,true\n",
    )
    for year in range(1945, 1986):
        before_nodes, before_edges = active_elements(log, year)
        after_nodes, after_edges = active_elements(extended, year)
        assert before_nodes <= after_nodes, year
        assert set(before_edges) <= set(after_edges), year


def check_parallel_merge_idempotent() -> None:
    log = demo_log()
    assert log.merges, "fixture should contain a parallel circuit"
    reparsed = parse_log(*to_csv(log))
    assert reparsed == log
    assert not reparsed.merges


# ---------------------------------------------------------------------------
# graphs


def check_degree_sum_is_twice_edges() -> None:
    graphs = _sample_graphs(20, 30, seed0=100)
    graphs += [barabasi_albert(200, 2, 5), watts_strogatz(60, 4, 0.2, 5)]
    graphs += [build_snapshot(demo_log(), y) for y in (1955, 1970, 1980)]
    for snap in graphs:
        assert sum(snap.degrees()) == 2 * snap.num_edges


def check_bfs_distance_bound() -> None:
    for snap in _sample_graphs(20, 30, seed0=200):
        for source in range(snap.num_nodes):
            dist = shortest_path_lengths(snap, source)
            assert max(dist) <= snap.num_nodes - 1


def check_hop_distance_triangle_inequality() -> None:
    for snap in _sample_graphs(15, 20, seed0=300):
        n = snap.num_nodes
        dist = [shortest_path_lengths(snap, s) for s in range(n)]
        for i in range(n):
            for j in range(n):
                if dist[i][j] < 0:
                    continue
                for k in range(n):
                    if dist[j][k] < 0 or dist[i][k] < 0:
                        continue
                    assert dist[i][k] <= dist[i][j] + dist[j][k]


def check_build_snapshot_pure() -> None:
    log = demo_log()
    for year in (1950, 1961, 1970, 1976):
        assert build_snapshot(log, year) == build_snapshot(log, year)
        assert to_edgelist(build_snapshot(log, year)) == to_edgelist(build_snapshot(log, year))


# ---------------------------------------------------------------------------
# metrics


def check_modularity_intra_edge_monotonicity() -> None:
    """Adding an edge inside one community never lowers the unnormalised sum 2E*Q.

    Q itself can drop (the normalisation 2E grows; see the path-pair case
    appended below), but 2E*Q = sum_c [2e_c - D_c^2/2E] cannot.  Proof: with
    M = 2E and x <= M the edited community's degree sum, its null-model term
    grows by [4Mx + 4M - 2x^2]/(M(M+2)) <= 2 since 2(M - x)^2 >= 0, and 2 is
    exactly the gain in 2e_c; every other community's term D_c^2/M shrinks.

    Checked over seeded graphs (n <= 8) with component-based and random
    partitions, trying every addable same-community edge.
    """
    cases = _sample_graphs(12, 8, seed0=400)
    cases.append(GraphSnapshot(range(6), [(0, 1), (1, 2), (3, 4), (4, 5)]))
    for base_index, snap in enumerate(cases):
        if snap.num_edges == 0:
            continue
        n = snap.num_nodes
        parts = connected_components(snap)
        memberships = [parts.component_of, _random_membership(n, 4000 + base_index)]
        for membership in memberships:
            sum_before = 2 * snap.num_edges * modularity(snap, membership)
            for i in range(n - 1):
                for j in range(i + 1, n):
                    if membership[i] != membership[j] or has_edge(snap, i, j):
                        continue
                    extended = GraphSnapshot(range(n), list(snap.edges()) + [(i, j)])
                    sum_after = 2 * extended.num_edges * modularity(extended, membership)
                    assert sum_after >= sum_before - 1e-9, (
                        f"adding intra-community edge ({i},{j}) lowered 2E*Q: "
                        f"{sum_before} -> {sum_after} (graph #{base_index}, membership {tuple(membership)})"
                    )


def check_modularity_bounds() -> None:
    for idx, snap in enumerate(_sample_graphs(15, 10, seed0=500)):
        if snap.num_edges == 0:
            continue
        single = modularity(snap, [0] * snap.num_nodes)
        assert single == 0.0
        for s in range(3):
            q = modularity(snap, _random_membership(snap.num_nodes, 900 + 10 * idx + s))
            assert q < 1.0


def check_metric_relabeling_invariance() -> None:
    for idx, snap in enumerate(_sample_graphs(10, 15, seed0=600)):
        if len(connected_components(snap).largest) < 2:
            continue
        rng = random.Random(idx)
        relabel = list(range(snap.num_nodes))
        rng.shuffle(relabel)
        remapped = GraphSnapshot(
            range(snap.num_nodes), [(relabel[i], relabel[j]) for i, j in snap.edges()]
        )
        assert average_path_length(remapped) == average_path_length(snap)
        assert diameter(remapped) == diameter(snap)
        c_a = clustering_coefficient(snap)
        c_b = clustering_coefficient(remapped)
        assert math.isclose(c_a, c_b, rel_tol=1e-12, abs_tol=1e-15)


def check_sigma_scale_consistency() -> None:
    sigma_base, _ = small_world_sigma(0.3, 0.05, 2.5, 3.1)
    for factor in (0.25, 2.0, 7.5, 1000.0):
        sigma_scaled, _ = small_world_sigma(0.3 * factor, 0.05 * factor, 2.5, 3.1)
        assert math.isclose(sigma_base, sigma_scaled, rel_tol=1e-12)


def check_complete_graph_metrics() -> None:
    for n in range(3, 9):
        snap = clique_union([n])
        assert clustering_coefficient(snap) == 1.0
        assert average_path_length(snap) == 1.0
        assert diameter(snap) == 1


def check_metrics_record_fields() -> None:
    for rec in compute_timeseries(demo_log(), range(1950, 1981)):
        if rec.num_nodes > 0:
            assert rec.avg_degree == 2 * rec.num_edges / rec.num_nodes
        if rec.clustering is not None:
            assert 0.0 <= rec.clustering <= 1.0
        if rec.num_edges >= 1 and rec.diameter is not None:
            assert rec.diameter >= 1
        if rec.sigma is not None:
            assert rec.sigma >= 0.0
        assert rec.largest_component_size <= rec.num_nodes


# ---------------------------------------------------------------------------
# communities


def check_detection_deterministic() -> None:
    for snap in _sample_graphs(8, 12, seed0=700):
        if snap.num_edges == 0:
            continue
        first = detect_communities(snap, seed=9)
        second = detect_communities(snap, seed=9)
        assert first == second
        with_restarts = detect_communities(snap, seed=9, restarts=4)
        assert with_restarts == detect_communities(snap, seed=9, restarts=4)


def check_greedy_stops_at_merge_local_optimum() -> None:
    for snap in _sample_graphs(10, 12, seed0=800):
        if snap.num_edges == 0:
            continue
        assignment = detect_communities(snap)
        two_e = 2.0 * snap.num_edges
        degrees = snap.degrees()
        labels = sorted(set(assignment.membership))
        degree_sum = {
            c: sum(degrees[i] for i in range(snap.num_nodes) if assignment.membership[i] == c)
            for c in labels
        }
        between: dict[tuple[int, int], int] = {}
        for i, j in snap.edges():
            a, b = sorted((assignment.membership[i], assignment.membership[j]))
            if a != b:
                between[(a, b)] = between.get((a, b), 0) + 1
        for (a, b), e_ab in between.items():
            gain = 2.0 * (e_ab / two_e - degree_sum[a] * degree_sum[b] / (two_e * two_e))
            assert gain <= 1e-12, (a, b, gain)
        singles = modularity(snap, tuple(range(snap.num_nodes)))
        assert assignment.achieved_q >= singles - 1e-12
        assert assignment.achieved_q >= -1e-12


def check_clique_union_recovery() -> None:
    for sizes in ([3, 3], [4, 4], [5, 5], [3, 3, 3], [4, 4, 4], [5, 5, 5, 5]):
        snap = clique_union(sizes)
        assignment = detect_communities(snap)
        expected = []
        for community, size in enumerate(sizes):
            expected.extend([community] * size)
        assert assignment.membership == tuple(expected), sizes


# ---------------------------------------------------------------------------
# degree_fit


def check_ccdf_shape_and_reconstruction() -> None:
    rng = random.Random(4242)
    for _ in range(25):
        degrees = [rng.randrange(0, 9) for _ in range(rng.randrange(3, 40))]
        if not any(d >= 1 for d in degrees):
            continue
        histogram = [0] * (max(degrees) + 1)
        for d in degrees:
            histogram[d] += 1
        ccdf = build_ccdf(histogram)
        ps = [p for _, p in ccdf.points]
        assert all(0.0 < p <= 1.0 for p in ps)
        assert all(a > b for a, b in zip(ps, ps[1:]))
        assert ccdf.points[0][1] == 1.0
        # reconstruct per-degree counts from consecutive tail differences
        base = sum(histogram[1:])
        for idx, (k, p) in enumerate(ccdf.points):
            next_p = ccdf.points[idx + 1][1] if idx + 1 < len(ccdf.points) else 0.0
            count = round((p - next_p) * base)
            assert count == histogram[k], (k, count, histogram[k])


def check_fit_exact_recovery() -> None:
    exp_points = tuple((k, 1.0 * math.exp(-k / 2.5)) for k in range(1, 11))
    fit = fit_model(Ccdf(exp_points), "exponential")
    assert abs(fit.gamma_or_kappa - 2.5) < 1e-6
    assert abs(fit.a - 1.0) < 1e-6
    assert fit.sse < 1e-20
    pow_points = tuple((k, float(k) ** -2.0) for k in range(1, 11))
    fit = fit_model(Ccdf(pow_points), "power_law")
    assert abs(fit.gamma_or_kappa - 2.0) < 1e-6
    assert abs(fit.a - 1.0) < 1e-6
    assert fit.sse < 1e-20


def check_fit_order_invariance() -> None:
    rng = random.Random(11)
    points = [(k, 0.9 * math.exp(-k / 3.1) + 0.001 * (k % 3)) for k in range(1, 12)]
    reference = fit_model(Ccdf(tuple(points)), "exponential")
    for _ in range(5):
        shuffled = points[:]
        rng.shuffle(shuffled)
        assert fit_model(Ccdf(tuple(shuffled)), "exponential") == reference
        assert fit_model(Ccdf(tuple(shuffled)), "power_law") == fit_model(
            Ccdf(tuple(points)), "power_law"
        )


def check_directional_fit_preference() -> None:
    ba = barabasi_albert(5000, 2, 42)
    ba_cmp = compare_fits(build_ccdf(degree_stats(ba).histogram))
    assert ba_cmp.preferred == "power_law"
    ws = watts_strogatz(5000, 4, 0.1, 42)
    ws_cmp = compare_fits(build_ccdf(degree_stats(ws).histogram))
    assert ws_cmp.preferred == "exponential"


# ---------------------------------------------------------------------------
# evolution


def check_pearson_symmetry_and_affine_invariance() -> None:
    rng = random.Random(31)
    a = [rng.uniform(-5, 5) for _ in range(25)]
    b = [rng.uniform(-5, 5) for _ in range(25)]
    assert pearson(a, b) == pearson(b, a)
    r = pearson(a, b)
    for scale, shift in ((2.0, 0.0), (0.5, 3.0), (10.0, -7.0)):
        transformed = [scale * x + shift for x in a]
        assert math.isclose(pearson(transformed, b), r, rel_tol=1e-12, abs_tol=1e-12)
    assert pearson(a, a) == 1.0
    assert pearson(a, [-x for x in a]) == -1.0


def check_timeseries_slice_consistency() -> None:
    log = demo_log()
    full = compute_timeseries(log, range(1950, 1981))
    sliced = compute_timeseries(log, range(1960, 1971))
    offset = [rec.year for rec in full].index(1960)
    assert sliced == full[offset : offset + len(sliced)]


# ---------------------------------------------------------------------------
# generators


def check_generator_determinism() -> None:
    assert erdos_renyi(50, 0.1, 3) == erdos_renyi(50, 0.1, 3)
    assert watts_strogatz(50, 4, 0.3, 3) == watts_strogatz(50, 4, 0.3, 3)
    assert barabasi_albert(50, 2, 3) == barabasi_albert(50, 2, 3)


def check_generator_outputs_are_simple() -> None:
    snaps = [
        erdos_renyi(40, 0.0, 1),
        erdos_renyi(40, 1.0, 1),
        erdos_renyi(40, 0.2, 2),
        watts_strogatz(40, 6, 0.4, 2),
        barabasi_albert(40, 3, 2),
    ]
    assert snaps[0].num_edges == 0
    assert snaps[1].num_edges == 40 * 39 // 2
    assert snaps[3].num_edges == 40 * 6 // 2
    assert snaps[4].num_edges == 4 * 3 // 2 + 3 * (40 - 4)
    for snap in snaps:
        assert sum(snap.degrees()) == 2 * snap.num_edges
        for i, j in snap.edges():
            assert i != j
            assert has_edge(snap, j, i)


def check_ws_small_world_regime() -> None:
    sigma, small, _ = ws_small_world_stats()
    assert sigma > 5
    assert small


def check_er_clustering_near_baseline() -> None:
    n, k_target = 1000, 10.0
    snap = erdos_renyi(n, k_target / (n - 1), 99)
    stats = degree_stats(snap)
    measured_c = clustering_coefficient(snap)
    baseline = stats.average / n
    assert baseline / 2 < measured_c < baseline * 2


# ---------------------------------------------------------------------------
# cli


def _run_cli_to_file(argv_tail: list[str], out_path) -> bytes:
    from gridtopo.cli import main as cli_main

    code = cli_main(argv_tail + ["--out", str(out_path)])
    assert code == 0, argv_tail
    return out_path.read_bytes()


def check_cli_reproducible_outputs() -> None:
    import tempfile
    from pathlib import Path

    from gridtopo.data import fixture_paths

    nodes, edges = fixture_paths()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        series_args = [
            "timeseries", "--nodes", str(nodes), "--edges", str(edges),
            "--from", "1950", "--to", "1980",
        ]
        assert _run_cli_to_file(series_args, tmp / "a.csv") == _run_cli_to_file(series_args, tmp / "b.csv")
        gen_args = ["generate", "--kind", "barabasi_albert", "--n", "80", "--m", "2", "--seed", "7"]
        assert _run_cli_to_file(gen_args, tmp / "g1.txt") == _run_cli_to_file(gen_args, tmp / "g2.txt")


def check_cli_fit_round_trip() -> None:
    import tempfile
    from pathlib import Path

    from gridtopo.data import fixture_paths
    from gridtopo.degree_fit import FitResult

    nodes, edges = fixture_paths()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "fit.json"
        text = _run_cli_to_file(
            [
                "fit", "--nodes", str(nodes), "--edges", str(edges),
                "--year", "1980", "--model", "exponential", "--format", "json",
            ],
            out,
        ).decode()
        result = FitResult(**json.loads(text))
        assert result.to_json() == text


# ---------------------------------------------------------------------------
# shortest-path oracle agreement (shared with the acceptance suite)


def check_path_stats_matches_relaxation_oracle(num_graphs: int = 100) -> None:
    """``path_stats``'s LCC, distance sum and diameter equal Floyd-Warshall's."""
    for i in range(num_graphs):
        rng = random.Random(5000 + i)
        n = rng.randrange(2, 51)
        p = rng.uniform(0.02, 0.5)
        snap = random_graph(n, p, 6000 + i)
        expected = floyd_warshall(snap)
        largest = union_find_components(snap)[0]
        distances = [int(expected[a, b]) for a in largest for b in largest]
        parts, distance_sum, longest = path_stats(snap)
        assert parts.largest == largest
        assert (distance_sum, longest) == (sum(distances), max(distances))


def check_modularity_against_brute_oracle() -> None:
    single_ok = 0
    for idx, snap in enumerate(_sample_graphs(50, 10, seed0=7700)):
        if snap.num_edges == 0:
            continue
        assert modularity(snap, [0] * snap.num_nodes) == 0.0
        single_ok += 1
        for s in range(4):
            membership = _random_membership(snap.num_nodes, 50_000 + 100 * idx + s)
            assert abs(modularity(snap, membership) - brute_modularity(snap, membership)) < 1e-12
    assert single_ok >= 40


INVARIANTS: tuple[tuple[str, object], ...] = (
    ("grid_log.active_edge_endpoints_subset", check_active_edge_endpoints_subset),
    ("grid_log.activity_monotone_under_extension", check_activity_monotone_under_extension),
    ("grid_log.parallel_merge_idempotent", check_parallel_merge_idempotent),
    ("graphs.degree_sum_is_twice_edges", check_degree_sum_is_twice_edges),
    ("graphs.bfs_distance_bound", check_bfs_distance_bound),
    ("graphs.hop_distance_triangle_inequality", check_hop_distance_triangle_inequality),
    ("graphs.build_snapshot_pure", check_build_snapshot_pure),
    ("communities.modularity_intra_edge_monotonicity", check_modularity_intra_edge_monotonicity),
    ("communities.modularity_bounds", check_modularity_bounds),
    ("metrics.relabeling_invariance", check_metric_relabeling_invariance),
    ("metrics.sigma_scale_consistency", check_sigma_scale_consistency),
    ("metrics.complete_graph_values", check_complete_graph_metrics),
    ("metrics.record_field_invariants", check_metrics_record_fields),
    ("communities.detection_deterministic", check_detection_deterministic),
    ("communities.merge_local_optimum", check_greedy_stops_at_merge_local_optimum),
    ("communities.clique_union_recovery", check_clique_union_recovery),
    ("degree_fit.ccdf_shape_and_reconstruction", check_ccdf_shape_and_reconstruction),
    ("degree_fit.exact_recovery", check_fit_exact_recovery),
    ("degree_fit.order_invariance", check_fit_order_invariance),
    ("degree_fit.directional_preference", check_directional_fit_preference),
    ("evolution.pearson_symmetry_affine", check_pearson_symmetry_and_affine_invariance),
    ("evolution.timeseries_slice_consistency", check_timeseries_slice_consistency),
    ("generators.determinism", check_generator_determinism),
    ("generators.simple_graph_outputs", check_generator_outputs_are_simple),
    ("generators.ws_small_world_regime", check_ws_small_world_regime),
    ("generators.er_clustering_baseline", check_er_clustering_near_baseline),
    ("cli.reproducible_outputs", check_cli_reproducible_outputs),
    ("cli.fit_round_trip", check_cli_fit_round_trip),
)
