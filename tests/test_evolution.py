from __future__ import annotations

import functools
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtopo import evolution, graphs, metrics
from gridtopo.evolution import (
    MetricTimeSeries,
    compute_metrics_record,
    compute_timeseries,
    correlate_with_line_count,
    pearson,
    small_world_transition,
)
from gridtopo.graphs import build_snapshot
from gridtopo.grid_log import parse_log
from gridtopo.metrics import METRICS_CSV_HEADER, MetricsRecord

import properties
from oracles import reference_timeseries

BENCH_GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
CHURN_YEARS = range(1950, 2020)


def sigma_series(start_year, sigmas):
    records = tuple(
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
    return MetricTimeSeries(tuple(range(start_year, start_year + len(sigmas))), records)


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
    monkeypatch.setattr(graphs, "shortest_path_lengths", counted("bfs", graphs.shortest_path_lengths))
    record = compute_metrics_record(build_snapshot(fixture_log, 1970))
    # 1970 has two components; L and d of the 11-node LCC come from one
    # multi-source sweep, not from a single-source BFS per LCC node
    assert (record.component_count, record.largest_component_size, record.num_nodes) == (2, 11, 12)
    assert (calls["components"], calls["bfs"]) == (1, 0)


def test_timeseries_monotone_growth_without_decommissions():
    log = parse_log(GROWTH_NODES, GROWTH_EDGES)
    series = compute_timeseries(log, range(1949, 1960))
    node_counts = [r.num_nodes for r in series.records]
    assert node_counts == sorted(node_counts)
    edge_counts = [r.num_edges for r in series.records]
    assert edge_counts == sorted(edge_counts)


def test_timeseries_row_count():
    log = parse_log(GROWTH_NODES, GROWTH_EDGES)
    series = compute_timeseries(log, range(1950, 1955))
    assert len(series.records) == 5
    assert series.years == (1950, 1951, 1952, 1953, 1954)


def test_timeseries_matches_single_year_invocations(fixture_log):
    series = compute_timeseries(fixture_log, range(1950, 1981), seed=42)
    for year, record in zip(series.years, series.records):
        independent = compute_metrics_record(build_snapshot(fixture_log, year), 42)
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
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses look their module up
    try:
        spec.loader.exec_module(gen)
    finally:
        del sys.modules[spec.name]
    return parse_log(*gen.to_csv(gen.generate(400, seed, churn=True)))


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
    assert compute_timeseries(log, years, seed=3).records == reference_timeseries(log, years, 3)


def test_timeseries_equals_reference_on_the_fixture(fixture_log):
    years = range(1950, 1981)
    assert compute_timeseries(fixture_log, years).records == reference_timeseries(fixture_log, years, 42)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_timeseries_equals_reference_on_churn_logs(seed):
    log = churn_log(seed)
    assert compute_timeseries(log, CHURN_YEARS, seed).records == reference_timeseries(log, CHURN_YEARS, seed)


@pytest.mark.parametrize("metric, communities", [("sigma", 0), ("Q", 35)])
def test_each_distinct_graph_gets_one_record_and_q_only_when_correlated(monkeypatch, metric, communities):
    log = churn_log(1)
    expected = MetricTimeSeries(tuple(CHURN_YEARS), reference_timeseries(log, CHURN_YEARS, 42)).metric(metric)
    calls = Counter()
    counted_calls(monkeypatch, evolution, "compute_metrics_record", calls)
    counted_calls(monkeypatch, evolution, "detect_communities", calls)
    compute_timeseries(log, CHURN_YEARS)
    # half the churn years repeat the graph of the year before
    assert calls == {"compute_metrics_record": 35, "detect_communities": 35}
    calls.clear()
    report = correlate_with_line_count(log, metric, [220, 400], True, CHURN_YEARS)
    assert calls["compute_metrics_record"] == 35
    assert calls["detect_communities"] == communities
    assert report.metric_values == tuple(v for v in expected if v is not None)


def test_timeseries_rejects_bad_ranges(fixture_log):
    with pytest.raises(ValueError):
        compute_timeseries(fixture_log, [])
    with pytest.raises(ValueError):
        compute_timeseries(fixture_log, [1950, 1950])
    with pytest.raises(ValueError):
        compute_timeseries(fixture_log, [1960, 1955])


def test_timeseries_undefined_metrics_are_none_not_zero(fixture_log):
    series = compute_timeseries(fixture_log, range(1950, 1953))
    first = series.records[0]
    assert first.sigma is None
    assert first.random_path_length is None
    assert first.to_csv_row().count("NA") == 3
    assert series.to_csv().splitlines()[0] == METRICS_CSV_HEADER


def test_metric_view_and_unknown_name(fixture_log):
    series = compute_timeseries(fixture_log, range(1950, 1953))
    assert series.metric("N") == [2, 2, 3]
    assert series.metric("sigma")[0] is None
    with pytest.raises(ValueError, match="unknown metric"):
        series.metric("bogus")


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
    series = compute_timeseries(fixture_log, range(1950, 1981))
    result = small_world_transition(series)
    assert result.first_year == 1966
    assert result.crossings == ((1966, "up"),)
    clustering = series.metric("C")
    assert clustering[series.years.index(1960)] == 0.0
    assert clustering[series.years.index(1961)] > 0.0


def test_correlation_report_drops_undefined_years(fixture_log):
    report = correlate_with_line_count(
        fixture_log, "sigma", [220, 400], True, range(1950, 1981), seed=42
    )
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
