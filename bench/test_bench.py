"""Self-tests of the benchmark: python3 -m pytest bench -q"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

import check
import gen
from tracer import LAYERS, Tracer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from gridtopo import cli, graphs  # noqa: E402

YEARS = list(range(1950, 2020))


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """A small growth log and a small churn log, written as CSV files."""
    out = {}
    for name, churn in (("growth", False), ("churn", True)):
        log = gen.generate(120, seed=7, churn=churn)
        directory = tmp_path_factory.mktemp(name)
        nodes_csv, edges_csv = gen.to_csv(log)
        (directory / "nodes.csv").write_text(nodes_csv)
        (directory / "edges.csv").write_text(edges_csv)
        out[name] = (log, ["--nodes", str(directory / "nodes.csv"), "--edges", str(directory / "edges.csv")])
    return out


def _cli(argv: list[str]) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    return buffer.getvalue().encode()


def _flip_digit(text: bytes, marker: bytes) -> bytes:
    """Change the first digit after ``marker``."""
    at = text.index(marker) + len(marker)
    while not chr(text[at]).isdigit():
        at += 1
    digit = b"1" if text[at:at + 1] != b"1" else b"2"
    return text[:at] + digit + text[at + 1:]


def test_generator_is_deterministic():
    first = gen.to_csv(gen.generate(300, seed=3, churn=True))
    assert first == gen.to_csv(gen.generate(300, seed=3, churn=True))
    assert first != gen.to_csv(gen.generate(300, seed=4, churn=True))


def test_churn_log_has_its_stated_properties(logs):
    log, _ = logs["churn"]
    assert gen.repeat_year_share(log, YEARS) == 0.5
    assert len(log.circuits) > len(log.routes)
    assert any(n.decommissioned is not None for n in log.nodes)
    assert gen.repeat_year_share(logs["growth"][0], YEARS) == 0.0


def test_checker_accepts_correct_outputs(logs):
    log, files = logs["growth"]
    assert check.check_timeseries(log, YEARS, _cli(["timeseries", *files, "--from", "1950", "--to", "2019"])) == []
    assert check.check_snapshot(log, 2019, _cli(["snapshot", *files, "--year", "2019", "--format", "json"])) == []
    assert check.check_fit(log, 2019, _cli(["fit", *files, "--year", "2019", "--model", "both"])) == []


def test_checker_rejects_one_flipped_digit(logs, tmp_path):
    log, files = logs["growth"]
    series = _cli(["timeseries", *files, "--from", "1950", "--to", "2019"])
    assert check.check_timeseries(log, YEARS, _flip_digit(series, b"\n2019,"))
    snapshot = _cli(["snapshot", *files, "--year", "2019", "--format", "json"])
    assert check.check_snapshot(log, 2019, _flip_digit(snapshot, b'"sigma": '))
    fit = _cli(["fit", *files, "--year", "2019", "--model", "both"])
    assert check.check_fit(log, 2019, _flip_digit(fit, b'"sse": '))

    log, files = logs["churn"]
    out = tmp_path / "series.csv"
    argv = ["correlate", *files, "--voltages", "220,400", "--domestic-only", "--from", "1950",
            "--to", "2019", "--out", str(out)]
    report = _cli(argv)
    series = out.read_bytes()
    assert check.check_correlate(log, (220, 400), True, YEARS, report, series) == []
    assert check.check_correlate(log, (220, 400), True, YEARS, _flip_digit(report, b"r="), series)
    assert check.check_correlate(log, (220, 400), True, YEARS, report, _flip_digit(series, b"\n1990,"))


def test_traced_run_gives_the_same_bytes_and_restores_the_program(logs):
    _, files = logs["churn"]
    argv = ["timeseries", *files, "--from", "1950", "--to", "2019"]
    plain = _cli(argv)
    original = graphs.connected_components
    with Tracer() as tracer:
        traced = _cli(argv)
        tracer.take_counts()
    assert traced == plain
    assert graphs.connected_components is original
    rows = tracer.span_rows()
    assert {row["year"] for row in rows if row["name"] == "graphs.build_snapshot"} == set(YEARS)
    parents = {rows[row["parent"]]["name"] for row in rows if row["name"] == "graphs.connected_components"}
    assert parents == {"evolution.compute_metrics_record", "metrics.path_sweep"}


def test_breakdown_sums_to_the_total_and_reports_unused_layers_as_zero(logs):
    _, files = logs["growth"]
    with Tracer() as tracer:
        _cli(["fit", *files, "--year", "2019", "--model", "both"])
        tracer.take_counts()
    layers = tracer.breakdown(total_s=1.0)
    assert set(f"{name}.calls" for name in LAYERS) <= set(layers)
    assert layers["metrics.path_sweep.calls"] == 0
    assert layers["metrics.path_sweep.self_s"] == 0.0
    assert layers["communities.merges"] == 0
    assert layers["degree_fit.fit_model.calls"] == 2
    assert layers["grid_log.records_in"] > 0
    self_s = sum(value for name, value in layers.items() if name.endswith(".self_s"))
    assert self_s + layers["cli.other_s"] == pytest.approx(1.0)


def test_a_missing_layer_function_reports_zero_calls(monkeypatch, logs):
    _, files = logs["growth"]
    from gridtopo import degree_fit

    monkeypatch.delattr(degree_fit, "compare_fits")
    with Tracer() as tracer:
        _cli(["snapshot", *files, "--year", "1990"])
    assert tracer.missing == ["degree_fit.compare_fits"]
    assert tracer.breakdown(total_s=1.0)["degree_fit.compare_fits.calls"] == 0


def test_an_output_unlike_the_first_runs_or_wrong_counts_as_failed(tmp_path):
    import run

    bench_run = run.Run("snapshot-large", seed=1, scratch=tmp_path)
    first = [run.Output(b"{}", b"")]
    bench_run.record(first, [0])
    bench_run.record([run.Output(b"{ }", b"")], [0])
    bench_run.record(first, [1])
    assert (bench_run.attempted, bench_run.failed) == (3, 2)
    bench_run.verify_reference()  # "{}" is not a metric record
    assert bench_run.failed == 3
