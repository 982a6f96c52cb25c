from __future__ import annotations

from collections import Counter

import pytest

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
