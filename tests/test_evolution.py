from __future__ import annotations

import errno
import functools
import math
import os
import random
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtopo import cli, communities, evolution, graphs, metrics
from gridtopo.evolution import (
    compute_metrics_record,
    compute_timeseries,
    correlate_with_line_count,
    pearson,
)
from gridtopo.graphs import GraphSnapshot, build_snapshot
from gridtopo.grid_log import parse_log
from gridtopo.metrics import METRICS_CSV_HEADER, MetricsRecord, records_to_csv

import properties
from conftest import bench_log_csv, churn_csv, forced_workers
from oracles import reference_timeseries, small_world_transition

CHURN_YEARS = range(1950, 2020)


def sigma_series(start_year, sigmas):
    return tuple(
        MetricsRecord(
            year=start_year + i,
            num_nodes=10,
            num_edges=10,
            avg_degree=2.0,
            diameter=3,
            avg_path_length=2.0,
            clustering=0.2,
            random_path_length=2.5,
            random_clustering=0.2,
            sigma=s,
            modularity_q=0.3,
            component_count=1,
            largest_component_size=10,
        )
        for i, s in enumerate(sigmas)
    )


GROWTH_NODES = """id,name,kind,commissioned,decommissioned,domestic
a,a,substation,1950,,true
b,b,substation,1951,,true
c,c,substation,1952,,true
d,d,substation,1953,,true
"""
GROWTH_EDGES = """id,node_a,node_b,voltage_kv,commissioned,decommissioned,domestic
e1,a,b,120,1951,,true
e2,b,c,120,1952,,true
e3,c,d,120,1953,,true
e4,a,c,220,1954,,true
"""


def test_record_makes_one_components_pass_and_no_single_source_bfs(monkeypatch, fixture_log):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    components = counted("components", graphs.connected_components)
    monkeypatch.setattr(metrics, "connected_components", components)
    monkeypatch.setattr(evolution, "connected_components", components, raising=False)
    record = compute_metrics_record(build_snapshot(fixture_log, 1970))
    # 1970 has two components; L and d of the 11-node LCC come from one
    # multi-source sweep, not from a single-source BFS per LCC node: that
    # BFS is only an oracle (tests/oracles.py), and no package module has one
    assert (record.component_count, record.largest_component_size, record.num_nodes) == (2, 11, 12)
    assert calls["components"] == 1
    assert not any(hasattr(module, "shortest_path_lengths") for module in (graphs, metrics, evolution))


def test_a_record_needs_the_snapshot_year():
    with pytest.raises(ValueError, match="^snapshot carries no year$"):
        compute_metrics_record(GraphSnapshot(range(3), [(0, 1), (1, 2)]))


def test_timeseries_monotone_growth_without_decommissions():
    log = parse_log(GROWTH_NODES, GROWTH_EDGES)
    series = compute_timeseries(log, range(1949, 1960))
    node_counts = [r.num_nodes for r in series]
    assert node_counts == sorted(node_counts)
    edge_counts = [r.num_edges for r in series]
    assert edge_counts == sorted(edge_counts)


def test_timeseries_row_count():
    log = parse_log(GROWTH_NODES, GROWTH_EDGES)
    series = compute_timeseries(log, range(1950, 1955))
    assert len(series) == 5
    assert tuple(record.year for record in series) == (1950, 1951, 1952, 1953, 1954)


def test_timeseries_matches_single_year_invocations(fixture_log):
    years = range(1950, 1981)
    for year, record in zip(years, compute_timeseries(fixture_log, years), strict=True):
        independent = compute_metrics_record(build_snapshot(fixture_log, year))
        assert record == independent


def counted_calls(monkeypatch, module, name, calls):
    """Count the calls of ``module.name`` in ``calls[name]``."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@functools.cache
def churn_log(seed):
    """The benchmark's 400-node churn log: every odd year repeats the graph of the year before."""
    return parse_log(*churn_csv(seed))


EVENT_YEARS = (1950, 1952, 1955)
END_YEARS = (1952, 1955, 1958)


@st.composite
def few_event_year_logs(draw):
    """A valid log whose records start and end on a few years only, so graphs repeat."""
    nodes = ["id,name,kind,commissioned,decommissioned,domestic"]
    lifetimes = []
    for i in range(draw(st.integers(1, 6))):
        start = draw(st.sampled_from(EVENT_YEARS))
        end = draw(st.none() | st.sampled_from([y for y in END_YEARS if y > start]))
        lifetimes.append((start, end))
        nodes.append(f"n{i},n{i},substation,{start},{'' if end is None else end},true")
    edges = ["id,node_a,node_b,voltage_kv,commissioned,decommissioned,domestic"]
    for j in range(draw(st.integers(0, 8)) if len(lifetimes) > 1 else 0):
        a, b = draw(st.lists(st.integers(0, len(lifetimes) - 1), min_size=2, max_size=2, unique=True))
        low = max(lifetimes[a][0], lifetimes[b][0])
        ends = [end for _, end in (lifetimes[a], lifetimes[b]) if end is not None]
        high = min(ends, default=None)
        if high is not None and low >= high:
            continue
        start = draw(st.sampled_from([y for y in EVENT_YEARS if low <= y and (high is None or y < high)]))
        later = st.sampled_from([y for y in END_YEARS if start < y and (high is None or y <= high)])
        end = draw(later if high is not None else st.none() | later)
        edges.append(f"e{j},n{a},n{b},220,{start},{'' if end is None else end},true")
    return parse_log("\n".join(nodes) + "\n", "\n".join(edges) + "\n")


@settings(max_examples=100, deadline=None)
@given(few_event_year_logs(), st.lists(st.integers(1948, 1960), min_size=1, unique=True).map(sorted))
def test_timeseries_equals_reference_on_logs_with_repeated_years(log, years):
    assert compute_timeseries(log, years) == reference_timeseries(log, years)


def test_timeseries_equals_reference_on_the_fixture(fixture_log):
    years = range(1950, 1981)
    assert compute_timeseries(fixture_log, years) == reference_timeseries(fixture_log, years)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_timeseries_equals_reference_on_churn_logs(seed):
    log = churn_log(seed)
    assert compute_timeseries(log, CHURN_YEARS) == reference_timeseries(log, CHURN_YEARS)


@pytest.mark.parametrize("metric, q_calls", [("sigma", 0), ("Q", 35)])
def test_each_distinct_graph_gets_one_record_and_q_only_when_correlated(monkeypatch, metric, q_calls):
    log = churn_log(1)
    attr = {"sigma": "sigma", "Q": "modularity_q"}[metric]
    expected = [getattr(record, attr) for record in reference_timeseries(log, CHURN_YEARS)]
    # calls made in forked children are not counted here, so compute in process
    monkeypatch.setattr(evolution, "_worker_count", lambda distinct: 1)
    calls = Counter()
    counted_calls(monkeypatch, evolution, "compute_metrics_record", calls)
    counted_calls(monkeypatch, communities, "detect_communities", calls)
    compute_timeseries(log, CHURN_YEARS)
    # half the churn years repeat the graph of the year before
    assert calls == {"compute_metrics_record": 35, "detect_communities": 35}
    calls.clear()
    report = correlate_with_line_count(log, metric, [220, 400], True, CHURN_YEARS)
    assert calls["compute_metrics_record"] == 35
    assert calls["detect_communities"] == q_calls
    assert report.metric_values == tuple(v for v in expected if v is not None)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [2, 3])
def test_forked_records_equal_reference_on_the_fixture(fixture_log, workers):
    years = range(1950, 1981)
    with forced_workers(workers):
        records = compute_timeseries(fixture_log, years)
    assert records == reference_timeseries(fixture_log, years)
    assert_no_child_left()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_forked_records_equal_reference_on_churn_logs(seed):
    log = churn_log(seed)
    with forced_workers(3):
        records = compute_timeseries(log, CHURN_YEARS)
    assert records == reference_timeseries(log, CHURN_YEARS)
    assert_no_child_left()


@settings(max_examples=30, deadline=None)
@given(few_event_year_logs(), st.lists(st.integers(1948, 1960), min_size=1, unique=True).map(sorted))
def test_forked_records_equal_reference_on_logs_with_repeated_years(log, years):
    with forced_workers(2):
        assert compute_timeseries(log, years) == reference_timeseries(log, years)


@pytest.mark.parametrize("metric", ["sigma", "Q"])
def test_forked_correlation_equals_the_in_process_one(metric):
    log = churn_log(2)
    with forced_workers(1):
        expected = correlate_with_line_count(log, metric, [220, 400], True, CHURN_YEARS)
    with forced_workers(3):
        assert correlate_with_line_count(log, metric, [220, 400], True, CHURN_YEARS) == expected
    assert_no_child_left()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10**6)), st.integers(1, 8))
def test_shares_partition_the_indices_costliest_first(costs, workers):
    shares = evolution._shares(costs, workers)
    assert len(shares) == workers
    assert sorted(i for share in shares for i in share) == list(range(len(costs)))
    if costs:
        assert costs[shares[0][0]] == max(costs)


def distinct_cost(log, years):
    """Summed N^2 of the graphs that differ from the year before's: the cost the fork threshold reads."""
    graphs = [(s.labels, tuple(s.edges())) for s in (build_snapshot(log, year) for year in years)]
    return sum(len(graph[0]) ** 2 for i, graph in enumerate(graphs) if i == 0 or graph != graphs[i - 1])


def test_graphs_cheaper_than_a_fork_round_trip_are_computed_in_process(monkeypatch, fixture_log):
    years = range(1950, 1981)
    cost = distinct_cost(fixture_log, years)
    assert cost == 1472 < evolution.MIN_FORK_COST
    fork, forks = os.fork, []

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(evolution, "_worker_count", lambda distinct: min(2, distinct))
    expected = reference_timeseries(fixture_log, years)
    assert compute_timeseries(fixture_log, years) == expected
    assert forks == []
    monkeypatch.setattr(evolution, "MIN_FORK_COST", cost)
    assert compute_timeseries(fixture_log, years) == expected
    assert forks == [os.getpid()]
    assert_no_child_left()


@pytest.mark.parametrize("nodes, churn", [(350, False), (400, True)])
def test_the_benchmark_series_cost_enough_to_fork(nodes, churn):
    # series-growth (350 nodes) and correlate-churn (400 nodes, churn) over 1950-2019, seed 1
    assert distinct_cost(parse_log(*bench_log_csv(nodes, 1, churn)), CHURN_YEARS) > 50 * evolution.MIN_FORK_COST


def test_one_worker_computes_every_graph_in_process(monkeypatch, fixture_log):
    def no_fork():
        raise AssertionError("forked with one worker")

    monkeypatch.setattr(os, "fork", no_fork)
    with forced_workers(1):
        assert compute_timeseries(fixture_log, range(1950, 1981)) == reference_timeseries(
            fixture_log, range(1950, 1981)
        )


class TwoArgumentError(Exception):
    """Pickles, but cannot be rebuilt from its args: unpickling it fails."""

    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


def raising_in(monkeypatch, where, error):
    """Make compute_metrics_record raise what ``error()`` returns, in the parent or the children only."""
    parent = os.getpid()
    compute = evolution.compute_metrics_record

    def raising(snapshot, *args, **kwargs):
        if (os.getpid() == parent) == (where == "parent"):
            raise error()
        return compute(snapshot, *args, **kwargs)

    monkeypatch.setattr(evolution, "compute_metrics_record", raising)


@pytest.mark.parametrize(
    "where, error, expected, message",
    [
        ("child", lambda: ValueError("bad year"), ValueError, "^bad year$"),
        ("child", lambda: KeyError("label"), KeyError, "^'label'$"),
        # pickles, but unpickling fails
        ("child", lambda: TwoArgumentError("not", "rebuilt"), RuntimeError, "^TwoArgumentError: not rebuilt$"),
        # a class no module holds cannot be pickled
        ("child", lambda: type("LocalError", (Exception,), {})("local"), RuntimeError, "^LocalError: local$"),
        # the child ends before it sends anything
        ("child", lambda: os._exit(3), ChildProcessError, "^worker process ended with wait status 768 and sent no"),
        ("parent", lambda: ValueError("bad year"), ValueError, "^bad year$"),
        ("parent", KeyboardInterrupt, KeyboardInterrupt, "^$"),
    ],
)
def test_an_error_in_any_share_is_raised_and_every_child_reaped(
    monkeypatch, fixture_log, where, error, expected, message
):
    raising_in(monkeypatch, where, error)
    with forced_workers(3), pytest.raises(expected, match=message):
        compute_timeseries(fixture_log, range(1950, 1981))
    assert_no_child_left()


def test_a_dead_worker_is_a_one_line_cli_error(capsys, monkeypatch, fixture_csv_paths):
    raising_in(monkeypatch, "child", lambda: os._exit(9))
    nodes, edges = fixture_csv_paths
    with forced_workers(3):
        code = cli.main(["timeseries", "--nodes", str(nodes), "--edges", str(edges), "--from", "1950", "--to", "1980"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: worker process ended with wait status 2304 and sent no records\n"
    assert_no_child_left()


@pytest.mark.parametrize("failing_call", [1, 2])
@pytest.mark.parametrize(
    "command", [["timeseries", "--format", "json"], ["correlate", "--metric", "Q", "--voltages", "120,220"]]
)
def test_a_share_that_cannot_fork_is_computed_in_process(
    capsys, monkeypatch, fixture_csv_paths, command, failing_call
):
    nodes, edges = fixture_csv_paths
    argv = [*command, "--nodes", str(nodes), "--edges", str(edges), "--from", "1950", "--to", "1980"]
    with forced_workers(1):
        assert cli.main(argv) == 0
    expected = capsys.readouterr()
    fork, forks = os.fork, []

    def failing_fork():
        forks.append(os.getpid())
        if len(forks) == failing_call:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    with forced_workers(3):
        assert cli.main(argv) == 0
    assert capsys.readouterr() == expected
    assert expected.out and not expected.err
    assert len(forks) == 2
    assert_no_child_left()


def test_worker_count_is_capped_without_starting_processes(monkeypatch):
    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(10_000)), raising=False)
    assert evolution._worker_count(70) == evolution.MAX_WORKERS
    assert evolution._worker_count(3) == 3
    assert evolution._worker_count(1) == 1
    assert len(evolution._shares([1] * 70, evolution._worker_count(70))) == evolution.MAX_WORKERS
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 10_000)
    assert evolution._worker_count(70) == evolution.MAX_WORKERS
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert evolution._worker_count(70) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 10_000)
    monkeypatch.delattr(os, "fork")
    assert evolution._worker_count(70) == 1


def test_no_fork_while_other_threads_run(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert evolution._worker_count(70) == 2
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        assert evolution._worker_count(70) == 1
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
    assert evolution._worker_count(70) == 2


def test_timeseries_rejects_bad_ranges(fixture_log):
    with pytest.raises(ValueError):
        compute_timeseries(fixture_log, [])
    with pytest.raises(ValueError):
        compute_timeseries(fixture_log, [1950, 1950])
    with pytest.raises(ValueError):
        compute_timeseries(fixture_log, [1960, 1955])


def test_timeseries_undefined_metrics_are_none_not_zero(fixture_log):
    series = compute_timeseries(fixture_log, range(1950, 1953))
    first = series[0]
    assert first.sigma is None
    assert first.random_path_length is None
    lines = records_to_csv(series).splitlines()
    assert lines[0] == METRICS_CSV_HEADER
    assert lines[1].count("NA") == 3


def test_metric_view_and_unknown_name(fixture_log):
    series = compute_timeseries(fixture_log, range(1950, 1953))
    assert [record.num_nodes for record in series] == [2, 2, 3]
    assert series[0].sigma is None
    with pytest.raises(ValueError, match="^unknown metric 'bogus'$"):
        correlate_with_line_count(fixture_log, "bogus", [220], False, range(1950, 1953))


def test_pearson_trivial_cases():
    assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    assert pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == -1.0
    assert pearson([1, 2, 3], [2, 4, 6]) == 1.0


def test_pearson_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="at least 2"):
        pearson([1], [2])
    with pytest.raises(ValueError, match="constant"):
        pearson([1, 1, 1], [1, 2, 3])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400")])
def test_pearson_rejects_non_finite_values(bad):
    # a NaN once passed through the clamp to [-1, 1] as r = 1.0
    for a, b in (([1, bad, 3], [1, 2, 3]), ([1, 2, 3], [1, 2, bad])):
        with pytest.raises(ValueError, match="^undefined correlation: non-finite value$"):
            pearson(a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        ([1e200, -1e200, 0], [1, 2, 3]),  # the squares overflowed
        ([1e-200, -1e-200, 0], [1, 2, 3]),  # the squares underflowed to a constant series
        ([1e90, -1e90, 0], [1e90, 2e90, 3e90]),  # the product of the variances overflowed
        ([1e-90, -1e-90, 0], [1e-90, 2e-90, 3e-90]),  # the product of the variances underflowed
        ([1e-160, -1e-160, 0], [1, 2, 3]),  # the squares lost digits as subnormals
    ],
)
def test_pearson_of_huge_or_tiny_finite_values(a, b):
    assert pearson(a, b) == pearson(b, a) == -0.5


@pytest.mark.parametrize("exponent", [-1000, -400, -7, 7, 400, 900])
def test_pearson_is_unchanged_when_a_series_is_scaled_by_a_power_of_two(exponent):
    rng = random.Random(exponent)
    a = [rng.uniform(-50.0, 50.0) for _ in range(70)]
    b = [rng.randrange(200) for _ in range(70)]
    assert pearson([math.ldexp(x, exponent) for x in a], b) == pearson(a, b)


def test_transition_simple_scan():
    result = small_world_transition(sigma_series(1949, [0.5, 0.9, 1.2, 1.1]))
    assert result.first_year == 1951
    assert result.crossings == ((1951, "up"),)


def test_transition_never():
    result = small_world_transition(sigma_series(1949, [0.5, 0.9, 1.0]))
    assert result.first_year is None
    assert result.crossings == ()


def test_transition_records_every_crossing():
    result = small_world_transition(sigma_series(1950, [0.5, 1.2, 0.8, 1.3, 1.4]))
    assert result.first_year == 1951
    assert result.crossings == ((1951, "up"), (1952, "down"), (1953, "up"))


def test_transition_skips_undefined_years():
    result = small_world_transition(sigma_series(1950, [None, 0.5, None, 1.2]))
    assert result.first_year == 1953
    assert result.crossings == ((1953, "up"),)


def test_fixture_crossing_year_matches_mesh_activation(fixture_log):
    # the 220 kV edge e12 (1966) closes the second triangle; sigma first
    # exceeds 1 that year and stays above for the rest of the range
    years = range(1950, 1981)
    series = compute_timeseries(fixture_log, years)
    result = small_world_transition(series)
    assert result.first_year == 1966
    assert result.crossings == ((1966, "up"),)
    assert series[years.index(1960)].clustering == 0.0
    assert series[years.index(1961)].clustering > 0.0


def test_correlation_report_drops_undefined_years(fixture_log):
    report = correlate_with_line_count(fixture_log, "sigma", [220, 400], True, range(1950, 1981))
    assert report.dropped_years == (1950, 1951)
    assert len(report.years) == 29
    assert report.r == pearson(report.metric_values, report.line_counts)
    assert report.r > 0.5  # meshing edges drive sigma in this fixture


def test_correlation_needs_defined_years(fixture_log):
    with pytest.raises(ValueError, match="at least 2"):
        correlate_with_line_count(fixture_log, "sigma", [220], False, range(1950, 1952))


def test_invariant_pearson_symmetry_affine():
    properties.check_pearson_symmetry_and_affine_invariance()


def test_invariant_slice_consistency():
    properties.check_timeseries_slice_consistency()
