from __future__ import annotations

import numpy as np
import pytest

from gridtopo import graphs
from gridtopo.evolution import compute_timeseries, correlate_with_line_count
from gridtopo.graphs import GraphSnapshot, build_snapshot, connected_components, to_edgelist, yearly_snapshots
from gridtopo.grid_log import (
    EdgeRecord,
    GridLogError,
    NodeRecord,
    TemporalGridLog,
    active_elements,
    line_count_series,
    parse_log,
)

import properties
from conftest import bench_log_csv, churn_csv, random_graph
from oracles import UNREACHABLE, floyd_warshall, shortest_path_lengths, union_find_components
from test_grid_log import mutation_corpus


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


# ---------------------------------------------------------------------------
# the event sweep over a year range


def graph_of(snapshot):
    """Labels, neighbour tuples and edge count: the graph, whatever its year."""
    return snapshot.labels, tuple(snapshot.neighbors(i) for i in range(snapshot.num_nodes)), snapshot.num_edges


def assert_sweep_matches_one_year_builds(log, years):
    """Each year's graph from the sweep is build_snapshot's, on active_elements' nodes and lines, and a
    new graph starts exactly in the years whose graph differs from the year before's.  Returns the sweep."""
    years = list(years)
    snapshots, graph_of_year = yearly_snapshots(log, years)
    built = [graph_of(build_snapshot(log, year)) for year in years]
    assert [graph_of(snapshots[i]) for i in graph_of_year] == built
    for year, i in zip(years, graph_of_year):
        labels = snapshots[i].labels
        node_ids, edges = active_elements(log, year)
        assert set(labels) == node_ids, year
        pairs = {frozenset((labels[a], labels[b])) for a, b in snapshots[i].edges()}
        assert pairs == {frozenset((e.node_a, e.node_b)) for e in edges}, year
    changed = [k for k in range(len(years)) if k == 0 or built[k] != built[k - 1]]
    assert [s.year for s in snapshots] == [years[k] for k in changed]
    assert graph_of_year == [sum(1 for c in changed if c <= k) - 1 for k in range(len(years))]
    return snapshots, graph_of_year


def bench_log(name):
    kind, size, seed = name.split("-")
    return parse_log(*bench_log_csv(int(size), int(seed), kind == "churn"))


@pytest.mark.parametrize(
    "source, years, distinct",
    [
        ("fixture", range(1940, 1991), None),
        ("churn-400-1", range(1945, 2025), 35),
        ("churn-400-2", range(1945, 2025), 35),
        ("churn-400-3", range(1945, 2025), 35),
        ("growth-350-1", range(1945, 2025), 70),
        ("growth-4000-1", range(1950, 2020), 70),
    ],
)
def test_the_sweep_builds_every_year_as_a_one_year_build_does(fixture_log, source, years, distinct):
    log = fixture_log if source == "fixture" else bench_log(source)
    _, graph_of_year = assert_sweep_matches_one_year_builds(log, years)
    if distinct is not None:
        # the series-growth and correlate-churn range, 1950-2019: the helper finds the changed years
        # by comparing consecutive one-year builds
        assert len({graph_of_year[years.index(year)] for year in range(1950, 2020)}) == distinct
    assert_sweep_matches_one_year_builds(log, [1950, 1960, 1961, 1975, 2019])


@pytest.mark.parametrize("source", ["fixture", "churn-400 seed 1"])
def test_the_sweep_builds_every_year_of_the_parsed_mutants(fixture_csv_paths, source):
    if source == "fixture":
        texts = [path.read_text(encoding="utf-8") for path in fixture_csv_paths]
        cases, years = 400, range(1940, 1991)
    else:
        texts, cases, years = churn_csv(1), 40, range(1948, 2022, 3)
    parsed = 0
    for nodes_csv, edges_csv in mutation_corpus(*texts, cases=cases):
        try:
            log = parse_log(nodes_csv, edges_csv)
        except GridLogError:
            continue
        assert_sweep_matches_one_year_builds(log, years)
        parsed += 1
    assert parsed >= cases // 10


def node(node_id, start, end=None):
    return NodeRecord(node_id, node_id, "substation", start, end, True)


def edge(edge_id, a, b, start, end=None):
    return EdgeRecord(edge_id, a, b, 220, start, end, True)


# built directly: the parser would merge, reject or drop several of these records
HAND_BUILT = {
    "overlapping records on one pair": (
        [node("A", 1950), node("B", 1950)],
        [edge("e1", "A", "B", 1952, 1962), edge("e2", "B", "A", 1956, 1970), edge("e3", "A", "B", 1960, 1965)],
    ),
    "a line ends in the year another starts on the same pair": (
        [node("A", 1950), node("B", 1950), node("C", 1950)],
        [edge("e1", "A", "B", 1952, 1960), edge("e2", "B", "A", 1960, 1968), edge("e3", "B", "C", 1960, 1961)],
    ),
    "a node and its line retire in the same year": (
        [node("A", 1950), node("B", 1952, 1966), node("C", 1955, 1966)],
        [edge("e1", "A", "B", 1952, 1966), edge("e2", "B", "C", 1955, 1966), edge("e3", "A", "C", 1958)],
    ),
    "empty lifetimes": (
        [node("A", 1950), node("B", 1950), node("C", 1958, 1958), node("D", 1962, 1956)],
        [edge("e1", "A", "B", 1958, 1958), edge("e2", "A", "C", 1958, 1958), edge("e3", "A", "B", 1961, 1960),
         edge("e4", "A", "D", 1950)],
    ),
    "a new id sorts before the existing ids": (
        [node("m", 1950), node("n", 1950), node("p", 1951), node("q", 1952), node("a", 1960),
         node("b", 1962, 1966)],
        [edge("e1", "m", "n", 1950), edge("e2", "n", "p", 1951), edge("e3", "m", "q", 1952),
         edge("e4", "a", "p", 1960), edge("e5", "b", "m", 1962), edge("e6", "a", "b", 1963)],
    ),
    "lines outlive their endpoints or name none": (
        [node("A", 1950, 1970), node("B", 1955), node("C", 1940, 1960)],
        [edge("ab", "A", "B", 1945, 1980), edge("bc", "B", "C", 1950), edge("cb", "C", "B", 1962),
         edge("az", "A", "Z", 1950)],
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
@pytest.mark.parametrize("years", [range(1940, 1985), [1950, 1960, 1961], [1962, 1966], [1930], [2030, 2031]])
def test_the_sweep_builds_every_year_of_hand_built_logs(case, years):
    nodes, edges = HAND_BUILT[case]
    assert_sweep_matches_one_year_builds(TemporalGridLog(tuple(nodes), tuple(edges)), years)


def test_a_line_that_ends_as_another_starts_on_its_pair_repeats_the_graph():
    log = TemporalGridLog(*map(tuple, HAND_BUILT["a line ends in the year another starts on the same pair"]))
    snapshots, graph_of_year = yearly_snapshots(log, range(1958, 1963))
    assert [s.year for s in snapshots] == [1958, 1960, 1961]
    assert graph_of_year == [0, 0, 1, 2, 2]


def test_the_sweep_rejects_a_self_loop_in_service_and_repeated_node_ids():
    nodes = (node("A", 1950), node("B", 1950))
    log = TemporalGridLog(nodes, (edge("e1", "A", "B", 1950), edge("e2", "A", "A", 1960, 1970)))
    for years in (range(1950, 1980), [1965]):
        with pytest.raises(ValueError, match="^self-loop on 'A'$"):
            yearly_snapshots(log, years)
    assert_sweep_matches_one_year_builds(log, range(1970, 1980))
    with pytest.raises(ValueError, match="^self-loop on 'A'$"):
        build_snapshot(log, 1965)
    # one year and a range fail alike, whichever path builds them
    twice = TemporalGridLog((node("A", 1950), node("A", 1960)), ())
    for build in (
        lambda: active_elements(twice, 1965),
        lambda: build_snapshot(twice, 1965),
        lambda: yearly_snapshots(twice, range(1950, 1970)),
        lambda: line_count_series(twice, [220], False, range(1950, 1970)),
    ):
        with pytest.raises(GridLogError, match="^duplicate node ids$"):
            build()


@pytest.mark.parametrize(
    "years, message",
    [
        ([], "year range must not be empty"),
        ([1980, 1970], "years must be strictly increasing"),
        ([1970, 1970], "years must be strictly increasing"),
    ],
)
def test_the_sweep_checks_its_years_for_every_range_command(fixture_log, years, message):
    # the line counts answer any list of years, so the sweep alone checks a range
    assert line_count_series(fixture_log, [220, 400], False, []) == []
    for run in (
        lambda rng: yearly_snapshots(fixture_log, rng),
        lambda rng: compute_timeseries(fixture_log, rng),
        lambda rng: correlate_with_line_count(fixture_log, "sigma", [220, 400], False, rng),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(years)
    # a one-shot iterator is read once, though the years are read again after the sweep
    expected = compute_timeseries(fixture_log, list(range(1950, 1981)))
    assert compute_timeseries(fixture_log, iter(range(1950, 1981))) == expected
    report = correlate_with_line_count(fixture_log, "sigma", [220, 400], False, iter(range(1950, 1981)))
    assert report == correlate_with_line_count(fixture_log, "sigma", [220, 400], False, range(1950, 1981))


@pytest.mark.parametrize("source", ["growth-350-1", "growth-4000-1"])
def test_a_growing_log_shares_every_neighbour_tuple_a_year_leaves_unchanged(source):
    # growth ids sort in commission order, so no node's index moves
    snapshots, _ = yearly_snapshots(bench_log(source), range(1950, 2020))
    for old, new in zip(snapshots, snapshots[1:]):
        assert new.labels[: old.num_nodes] == old.labels
        for i in range(old.num_nodes):
            assert (new.neighbors(i) is old.neighbors(i)) == (new.neighbors(i) == old.neighbors(i))


def test_a_new_first_id_shifts_every_index_and_keeps_the_tuples_below_it():
    log = TemporalGridLog(*map(tuple, HAND_BUILT["a new id sorts before the existing ids"]))
    (before, after), _ = yearly_snapshots(log, [1952, 1960])
    assert before.labels == ("m", "n", "p", "q") and after.labels == ("a", "m", "n", "p", "q")
    # every old index moved up one; p gained a, and q's only neighbour m was the first node to move
    assert [after.neighbors(i) for i in range(5)] == [(3,), (2, 4), (1, 3), (0, 2), (1,)]
    (before, after), _ = yearly_snapshots(log, [1950, 1951])
    assert after.neighbors(0) is before.neighbors(0)  # m links only n, which sits below the new node p


def refuse(*args, **kwargs):
    raise AssertionError("the other build path ran")


def test_the_sweep_builds_a_range_without_a_one_year_build(monkeypatch, fixture_log):
    cases = [(fixture_log, range(1940, 1991)), (bench_log("churn-400-1"), range(1950, 2020))]
    expected = [[graph_of(build_snapshot(log, year)) for year in years] for log, years in cases]
    monkeypatch.setattr(graphs, "active_elements", refuse)
    monkeypatch.setattr(GraphSnapshot, "__init__", refuse)
    for (log, years), built in zip(cases, expected):
        snapshots, graph_of_year = yearly_snapshots(log, years)
        assert [graph_of(snapshots[i]) for i in graph_of_year] == built


def test_a_one_year_build_never_enters_the_sweep(monkeypatch, fixture_log):
    expected = build_snapshot(fixture_log, 1975)
    monkeypatch.setattr(graphs, "yearly_snapshots", refuse)
    assert build_snapshot(fixture_log, 1975) == expected
