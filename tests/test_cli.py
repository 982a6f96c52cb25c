from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from gridtopo import communities, degree_fit, evolution, generators
from gridtopo.cli import MAX_RESTARTS, MAX_YEAR_SPAN, _year_range, main
from gridtopo.degree_fit import FitResult
from gridtopo.evolution import pearson
from gridtopo.generators import MAX_NODES

import properties


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def log_args(fixture_csv_paths):
    nodes, edges = fixture_csv_paths
    return ["--nodes", str(nodes), "--edges", str(edges)]


def test_snapshot_happy_path(capsys, fixture_csv_paths, expected_table_path):
    code, out, err = run_cli(capsys, "snapshot", *log_args(fixture_csv_paths), "--year", "1970")
    assert code == 0 and err == ""
    header, row = out.splitlines()
    expected_rows = expected_table_path.read_text().splitlines()
    assert header == expected_rows[0]
    assert row == expected_rows[1 + (1970 - 1950)]


def test_snapshot_json_format(capsys, fixture_csv_paths):
    code, out, _ = run_cli(
        capsys, "snapshot", *log_args(fixture_csv_paths), "--year", "1950", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["N"] == 2
    assert record["sigma"] is None  # undefined stays explicit in JSON too


def test_timeseries_row_count(capsys, fixture_csv_paths):
    code, out, _ = run_cli(
        capsys, "timeseries", *log_args(fixture_csv_paths), "--from", "1949", "--to", "2019"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 71 + 1  # header plus one row per year


def test_timeseries_matches_frozen_table(capsys, tmp_path, fixture_csv_paths, expected_table_path):
    out_path = tmp_path / "series.csv"
    code, _, _ = run_cli(
        capsys,
        "timeseries",
        *log_args(fixture_csv_paths),
        "--from",
        "1950",
        "--to",
        "1980",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert out_path.read_bytes() == expected_table_path.read_bytes()


def test_correlate_report_recomputes_from_export(capsys, tmp_path, fixture_csv_paths):
    out_path = tmp_path / "pairs.csv"
    code, out, _ = run_cli(
        capsys,
        "correlate",
        *log_args(fixture_csv_paths),
        "--metric",
        "sigma",
        "--voltages",
        "220,400",
        "--domestic-only",
        "--from",
        "1950",
        "--to",
        "1980",
        "--out",
        str(out_path),
    )
    assert code == 0
    report = dict(line.split("=", 1) for line in out.strip().splitlines())
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    sigmas = [float(r[1]) for r in rows]
    counts = [float(r[2]) for r in rows]
    assert float(report["r"]) == pearson(sigmas, counts)
    assert int(report["years_used"]) == len(rows)
    assert report["dropped_years"] == "1950,1951"


def test_fit_json_round_trips(capsys, fixture_csv_paths):
    code, out, _ = run_cli(
        capsys,
        "fit",
        *log_args(fixture_csv_paths),
        "--year",
        "1980",
        "--model",
        "exponential",
    )
    assert code == 0
    result = FitResult(**json.loads(out))
    assert isinstance(result, FitResult)
    assert result.model == "exponential"
    assert result.gamma_or_kappa > 0


def test_fit_both_reports_preference_and_tails(capsys, fixture_csv_paths):
    code, out, _ = run_cli(capsys, "fit", *log_args(fixture_csv_paths), "--year", "1980")
    assert code == 0
    payload = json.loads(out)
    assert payload["preferred"] in ("power_law", "exponential", "tie")
    assert len(payload["tail_residuals"]) == 3
    assert code == 0


def test_fit_both_rejects_csv_format(capsys, fixture_csv_paths):
    code, _, err = run_cli(
        capsys, "fit", *log_args(fixture_csv_paths), "--year", "1980", "--format", "csv"
    )
    assert code == 1
    assert err.startswith("error:")


def test_generate_writes_edge_list(capsys, tmp_path):
    out_path = tmp_path / "graph.txt"
    code, _, _ = run_cli(
        capsys,
        "generate",
        "--kind",
        "watts_strogatz",
        "--n",
        "12",
        "--k",
        "4",
        "--p",
        "0.0",
        "--out",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 12 * 4 // 2
    assert lines == sorted(lines)


def test_communities_export(capsys, tmp_path, fixture_csv_paths):
    out_path = tmp_path / "communities.csv"
    code, out, _ = run_cli(
        capsys,
        "communities",
        *log_args(fixture_csv_paths),
        "--year",
        "1975",
        "--out",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "node_id,community_id"
    assert len(lines) == 1 + 12
    summary = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert summary["method"] == "greedy_agglomerative"
    assert float(summary["q"]) > 0


def test_missing_input_file_is_one_line_error(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "snapshot",
        "--nodes",
        str(tmp_path / "nope.csv"),
        "--edges",
        str(tmp_path / "nope2.csv"),
        "--year",
        "1960",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_oversized_csv_field_is_one_line_error(capsys, tmp_path, fixture_csv_paths):
    _, edges = fixture_csv_paths
    bad = tmp_path / "nodes.csv"
    bad.write_text(
        "id,name,kind,commissioned,decommissioned,domestic\n"
        f"A,{'x' * 140000},substation,1950,,true\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "snapshot", "--nodes", str(bad), "--edges", str(edges), "--year", "1960")
    assert code == 1
    assert out == ""
    assert err.startswith("error: nodes row 2: field larger than field limit")
    assert len(err.strip().splitlines()) == 1


def test_correlate_invalid_voltage_names_the_flag(capsys, fixture_csv_paths):
    for voltages, bad in (("220,abc", "abc"), ("-5", "-5"), ("0,400", "0")):
        code, out, err = run_cli(
            capsys, "correlate", *log_args(fixture_csv_paths),
            f"--voltages={voltages}", "--from", "1950", "--to", "1980",
        )
        assert code == 1
        assert out == ""
        assert err == f"error: --voltages: invalid kV level {bad!r}\n"


def test_correlate_unknown_metric_fails_before_any_record(capsys, monkeypatch, fixture_csv_paths):
    def no_record(*args, **kwargs):
        raise AssertionError("a record was computed")

    monkeypatch.setattr(evolution, "compute_metrics_record", no_record)
    code, out, err = run_cli(
        capsys, "correlate", *log_args(fixture_csv_paths), "--metric", "bogus",
        "--voltages", "220,400", "--from", "1950", "--to", "1980",
    )
    assert (code, out, err) == (1, "", "error: unknown metric 'bogus'\n")


def test_correlate_empty_voltage_filter_fails_before_any_record(capsys, monkeypatch, fixture_csv_paths):
    records = []
    compute = evolution.compute_metrics_record

    def counted(*args, **kwargs):
        records.append(args)
        return compute(*args, **kwargs)

    monkeypatch.setattr(evolution, "_worker_count", lambda distinct: 1)  # every record in this process
    monkeypatch.setattr(evolution, "compute_metrics_record", counted)
    code, out, err = run_cli(
        capsys, "correlate", *log_args(fixture_csv_paths), "--metric", "Q",
        "--voltages", ",", "--from", "1950", "--to", "1980",
    )
    assert (code, out, err) == (1, "", "error: voltage filter must not be empty\n")
    assert records == []


def test_communities_restarts_are_bounded(capsys, monkeypatch, fixture_csv_paths):
    restarts = []
    one_pass = communities.detect_communities

    def recorded(snapshot, seed, count):
        restarts.append(count)
        return one_pass(snapshot, seed)

    monkeypatch.setattr(communities, "detect_communities", recorded)
    argv = ["communities", *log_args(fixture_csv_paths), "--year", "1975", "--restarts"]
    code, out, err = run_cli(capsys, *argv, str(MAX_RESTARTS + 1))
    assert (code, out, err) == (1, "", f"error: --restarts 1001 is more than {MAX_RESTARTS}\n")
    assert restarts == []
    code, out, err = run_cli(capsys, *argv, str(MAX_RESTARTS))
    assert (code, err, restarts) == (0, "", [1000])
    assert out.startswith("node_id,community_id\n")


def test_nonfinite_fit_is_one_line_error(capsys, tmp_path):
    # 303 nodes linked pairwise except along a 200-node cycle and 51 disjoint
    # pairs: degrees 300 (200 nodes), 301 (102) and 302 (1), whose log-log
    # CCDF is so steep that the starting amplitude overflows a float
    missing = {tuple(sorted((i, (i + 1) % 200))) for i in range(200)}
    missing |= {(200 + 2 * j, 201 + 2 * j) for j in range(51)}
    nodes = ["id,name,kind,commissioned,decommissioned,domestic"]
    nodes += [f"n{i},N{i},substation,1950,,true" for i in range(303)]
    edges = ["id,node_a,node_b,voltage_kv,commissioned,decommissioned,domestic"]
    edges += [
        f"e{i}-{j},n{i},n{j},220,1950,,true"
        for i in range(303)
        for j in range(i + 1, 303)
        if (i, j) not in missing
    ]
    assert len(edges) - 1 == 45502
    (tmp_path / "nodes.csv").write_text("\n".join(nodes) + "\n", encoding="utf-8")
    (tmp_path / "edges.csv").write_text("\n".join(edges) + "\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "fit", "--nodes", str(tmp_path / "nodes.csv"), "--edges", str(tmp_path / "edges.csv"),
        "--year", "1960",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot form initial guess: amplitude exp(")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("model", ["both", "power_law"])
def test_stalled_fit_is_one_line_error(capsys, monkeypatch, fixture_csv_paths, model):
    # a CCDF on which the power-law fit stalls on the gamma > 0 boundary
    counts = {2: 1, 4: 87, 6: 853, 28: 83, 41: 37, 43: 1, 65: 88, 97: 29, 112: 654, 256: 1}
    histogram = [counts.get(k, 0) for k in range(257)]
    stalling = degree_fit.build_ccdf(histogram)
    monkeypatch.setattr(degree_fit, "build_ccdf", lambda _: stalling)
    code, out, err = run_cli(capsys, "fit", *log_args(fixture_csv_paths), "--year", "1980", "--model", model)
    assert (code, out) == (1, "")
    assert err.startswith("error: power_law fit stalled on the gamma > 0 boundary (gamma=")
    assert len(err.splitlines()) == 1


def test_cli_never_imports_numpy(tmp_path, fixture_csv_paths):
    nodes, edges = fixture_csv_paths
    out = tmp_path / "fit.json"
    fit = ["fit", "--nodes", str(nodes), "--edges", str(edges), "--year", "1980", "--out", str(out)]
    script = (
        "import sys, gridtopo.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported by gridtopo.cli'\n"
        f"assert gridtopo.cli.main({fit!r}) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy imported by fit'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text(encoding="utf-8"))["preferred"] in ("power_law", "exponential")


def test_start_up_and_single_graph_commands_load_no_pickle_or_multiprocessing(tmp_path, fixture_csv_paths):
    log = log_args(fixture_csv_paths)
    commands = [
        ["snapshot", *log, "--year", "1970", "--out", str(tmp_path / "snapshot.csv")],
        ["timeseries", *log, "--from", "1970", "--to", "1970", "--out", str(tmp_path / "series.csv")],
    ]
    script = (
        "import sys, gridtopo.cli\n"
        "def loaded():\n"
        "    return sorted({'pickle', 'multiprocessing'} & set(sys.modules))\n"
        "assert loaded() == [], loaded()\n"
        f"for argv in {commands!r}:\n"
        "    assert gridtopo.cli.main(argv) == 0\n"
        "    assert loaded() == [], (argv[0], loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "command",
    [
        ["snapshot", "--year", "1970"],
        ["fit", "--year", "1980"],
        ["communities", "--year", "1975"],
        ["timeseries", "--from", "1975", "--to", "1975"],
    ],
)
def test_single_graph_commands_never_fork(capsys, monkeypatch, fixture_csv_paths, command):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    code, _, err = run_cli(capsys, command[0], *log_args(fixture_csv_paths), *command[1:])
    assert (code, err) == (0, "")


def test_generate_node_count_is_bounded(capsys):
    code, out, err = run_cli(capsys, "generate", "--kind", "erdos_renyi", "--n", "100000000", "--p", "0.5")
    assert (code, out) == (1, "")
    assert err == f"error: generators accept at most {MAX_NODES} nodes, not 100000000\n"


@pytest.mark.parametrize(
    "kind, params, edges",
    [
        ("erdos_renyi", ["--p", "1"], 45),
        ("erdos_renyi", ["--p", "0.5"], 23),  # 22.5 expected
        ("watts_strogatz", ["--k", "4", "--p", "0.1"], 20),
        ("barabasi_albert", ["--m", "3"], 24),
    ],
)
def test_generate_edge_count_is_bounded(capsys, monkeypatch, kind, params, edges):
    argv = ["generate", "--kind", kind, "--n", "10", *params]
    monkeypatch.setattr(generators, "MAX_EDGES", edges - 1)
    assert run_cli(capsys, *argv) == (1, "", f"error: generators make at most {edges - 1} edges, not {edges}\n")
    monkeypatch.setattr(generators, "MAX_EDGES", edges)
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("table", ["nodes", "edges"])
def test_a_log_that_is_not_utf8_names_its_table(capsys, tmp_path, fixture_csv_paths, table):
    paths = dict(zip(("nodes", "edges"), fixture_csv_paths))
    text = paths[table].read_bytes()
    row_2 = text.index(b"\n") + 1
    paths[table] = tmp_path / f"{table}.csv"
    paths[table].write_bytes(text[:row_2] + b"\xff" + text[row_2:])
    code, out, err = run_cli(
        capsys, "snapshot", "--nodes", str(paths["nodes"]), "--edges", str(paths["edges"]), "--year", "1970"
    )
    assert (code, out, err) == (1, "", f"error: {table}: not valid UTF-8 text\n")


CORRELATE_RANGE = ["--from", "1950", "--to", "1980"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["timeseries", "--from", "2000", "--to", "1990"], "--to 1990 is before --from 2000"),
        (
            ["timeseries", "--from", "1950", "--to", "20200"],
            f"--from 1950 --to 20200 spans 18251 years, more than {MAX_YEAR_SPAN}",
        ),
        (["correlate", "--voltages", "220", "--from", "2000", "--to", "1990"], "--to 1990 is before --from 2000"),
        (["correlate", "--metric", "bogus", "--voltages", "220", *CORRELATE_RANGE], "unknown metric 'bogus'"),
        (["correlate", "--voltages", "220,x", *CORRELATE_RANGE], "--voltages: invalid kV level 'x'"),
        (["correlate", "--voltages", ",", *CORRELATE_RANGE], "voltage filter must not be empty"),
        (
            ["fit", "--year", "1970", "--model", "both", "--format", "csv"],
            "--model both supports only --format json",
        ),
        (["communities", "--year", "1970", "--restarts", "0"], "restarts must be at least 1"),
        (["communities", "--year", "1970", "--restarts", "1001"], f"--restarts 1001 is more than {MAX_RESTARTS}"),
        # spans past sys.maxsize, which a range cannot measure
        (
            ["timeseries", "--from", "-99999999999999999999", "--to", "1950"],
            f"--from -99999999999999999999 --to 1950 spans 100000000000000001950 years, more than {MAX_YEAR_SPAN}",
        ),
        (
            ["correlate", "--voltages", "220", "--from", "0", "--to", "99999999999999999999"],
            f"--from 0 --to 99999999999999999999 spans 100000000000000000000 years, more than {MAX_YEAR_SPAN}",
        ),
        # generate reads no log
        (["generate", "--kind", "watts_strogatz", "--n", "10", "--p", "0.1"], "watts_strogatz requires k and p"),
        (["generate", "--kind", "barabasi_albert", "--n", "10"], "barabasi_albert requires m"),
    ],
)
def test_arguments_are_checked_before_the_log_is_read(capsys, tmp_path, argv, message):
    missing = str(tmp_path / "missing.csv")
    log = [] if argv[0] == "generate" else ["--nodes", missing, "--edges", missing]
    code, out, err = run_cli(capsys, argv[0], *log, *argv[1:])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_unknown_flag_exits_nonzero(fixture_csv_paths):
    with pytest.raises(SystemExit) as exc:
        main(["snapshot", "--bogus", "1"])
    assert exc.value.code == 2


def test_bad_year_range_reports_error(capsys, fixture_csv_paths):
    code, _, err = run_cli(
        capsys, "timeseries", *log_args(fixture_csv_paths), "--from", "1980", "--to", "1950"
    )
    assert code == 1
    assert "before" in err


def test_year_range_is_bounded():
    def years(year_from, year_to):
        return _year_range(argparse.Namespace(year_from=year_from, year_to=year_to))

    assert years(1950, 1950 + MAX_YEAR_SPAN - 1) == range(1950, 1950 + MAX_YEAR_SPAN)
    with pytest.raises(ValueError, match="more than 500"):
        years(1950, 1950 + MAX_YEAR_SPAN)
    with pytest.raises(ValueError, match="--from 1950 --to 20200 spans 18251 years"):
        years(1950, 20200)
    with pytest.raises(ValueError, match=f"spans {2**64} years"):
        years(-(2**63), 2**63 - 1)


def test_outputs_reproducible(capsys, tmp_path, fixture_csv_paths):
    paths = []
    for i in (1, 2):
        out_path = tmp_path / f"run{i}.csv"
        code, _, _ = run_cli(
            capsys,
            "timeseries",
            *log_args(fixture_csv_paths),
            "--from",
            "1950",
            "--to",
            "1980",
            "--seed",
            "42",
            "--out",
            str(out_path),
        )
        assert code == 0
        paths.append(out_path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    gen = []
    for i in (1, 2):
        out_path = tmp_path / f"gen{i}.txt"
        code, _, _ = run_cli(
            capsys,
            "generate",
            "--kind",
            "barabasi_albert",
            "--n",
            "60",
            "--m",
            "2",
            "--seed",
            "7",
            "--out",
            str(out_path),
        )
        assert code == 0
        gen.append(out_path.read_bytes())
    assert gen[0] == gen[1]


GENERATE = ["generate", "--kind", "erdos_renyi", "--n", "30", "--p", "0.2", "--seed", "3"]


def _generated(capsys) -> bytes:
    code, out, _ = run_cli(capsys, *GENERATE)
    assert code == 0
    return out.encode()


def test_out_through_a_symlink_writes_its_target(capsys, tmp_path):
    expected = _generated(capsys)
    (tmp_path / "real.txt").write_text("old\n")
    (tmp_path / "sub").mkdir()
    link = tmp_path / "sub" / "link.txt"
    link.symlink_to(os.path.join("..", "real.txt"))
    code, out, err = run_cli(capsys, *GENERATE, "--out", str(link))
    assert (code, out, err) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == os.path.join("..", "real.txt")
    assert (tmp_path / "real.txt").read_bytes() == expected
    assert sorted(os.listdir(tmp_path)) == ["real.txt", "sub"]  # no temp file left behind
    assert os.listdir(tmp_path / "sub") == ["link.txt"]


def test_out_writes_a_fifo_in_place(capsys, tmp_path):
    expected = _generated(capsys)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    # a daemon reader, joined with a timeout: if the FIFO were replaced instead
    # of written, the reader would block forever and the join would time out
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, _, err = run_cli(capsys, *GENERATE, "--out", str(fifo))
    reader.join(timeout=5)
    assert (code, err) == (0, "")
    assert not reader.is_alive(), "nothing was written to the FIFO"
    assert received == [expected]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_out_through_a_link_to_a_pipe_writes_the_pipe(capsys, tmp_path):
    # the shape of --out /dev/stdout with stdout piped: the link resolves to a
    # /proc/self/fd entry whose real path does not exist
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")
    expected = _generated(capsys)
    read_end, write_end = os.pipe()
    try:
        link = tmp_path / "stdout"
        link.symlink_to(f"/proc/self/fd/{write_end}")
        code, _, err = run_cli(capsys, *GENERATE, "--out", str(link))
        os.close(write_end)
        write_end = None
        with os.fdopen(read_end, "rb") as pipe:
            read_end = None
            received = pipe.read()
    finally:
        for fd in (read_end, write_end):
            if fd is not None:
                os.close(fd)
    assert (code, err) == (0, "")
    assert received == expected
    assert link.is_symlink() and os.listdir(tmp_path) == ["stdout"]


def test_out_file_mode_follows_the_umask_or_the_existing_file(capsys, tmp_path):
    expected = _generated(capsys)
    old_umask = os.umask(0o027)
    try:
        new = tmp_path / "new.txt"
        assert run_cli(capsys, *GENERATE, "--out", str(new))[0] == 0
        existing = tmp_path / "existing.txt"
        existing.write_text("old\n")
        existing.chmod(0o604)
        assert run_cli(capsys, *GENERATE, "--out", str(existing))[0] == 0
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o640
    assert stat.S_IMODE(existing.stat().st_mode) == 0o604
    assert new.read_bytes() == existing.read_bytes() == expected


def test_out_in_a_missing_directory_names_the_out_path(capsys, tmp_path):
    out_path = tmp_path / "nodir" / "x"
    code, out, err = run_cli(capsys, *GENERATE, "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(out_path)!r}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("failing", ["write", "replace"])
def test_a_failed_out_write_keeps_the_target_and_leaves_no_temp_file(capsys, monkeypatch, tmp_path, failing):
    target = tmp_path / "graph.txt"
    target.write_text("old\n")

    def full_disk(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    if failing == "replace":
        monkeypatch.setattr(os, "replace", full_disk)
    else:
        fdopen = os.fdopen

        def failing_fdopen(*args, **kwargs):
            handle = fdopen(*args, **kwargs)
            handle.write = full_disk
            return handle

        monkeypatch.setattr(os, "fdopen", failing_fdopen)
    code, out, err = run_cli(capsys, *GENERATE, "--out", str(target))
    assert (code, out, err) == (1, "", "error: [Errno 28] No space left on device\n")
    assert os.listdir(tmp_path) == ["graph.txt"]
    assert target.read_text() == "old\n"


def test_invariant_cli_reproducible_outputs():
    properties.check_cli_reproducible_outputs()


def test_invariant_cli_fit_round_trip():
    properties.check_cli_fit_round_trip()


def test_console_entry_point_runs(fixture_csv_paths):
    nodes, edges = fixture_csv_paths
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "gridtopo",
            "snapshot",
            "--nodes",
            str(nodes),
            "--edges",
            str(edges),
            "--year",
            "1966",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("1966,10,11,")


def test_a_generator_warning_is_one_stderr_line():
    # n=5, k=4: every node already links to all the others, so all 10 rewires are skipped
    argv = ["generate", "--kind", "watts_strogatz", "--n", "5", "--k", "4", "--p", "1"]
    proc = subprocess.run([sys.executable, "-m", "gridtopo", *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "warning: watts_strogatz skipped 10 rewires (no valid target)\n")
    assert len(proc.stdout.splitlines()) == 10


FROZEN = Path(__file__).resolve().parent / "frozen"


@pytest.mark.parametrize(
    "argv, frozen",
    [
        (["fit", "--year", "1980", "--model", "both"], "fit_both_1980.json"),
        (["fit", "--year", "1980", "--model", "power_law", "--format", "json"], "fit_power_law_1980.json"),
        (["fit", "--year", "1980", "--model", "exponential", "--format", "json"], "fit_exponential_1980.json"),
        (["snapshot", "--year", "1970", "--format", "json"], "snapshot_1970.json"),
        (["timeseries", "--from", "1950", "--to", "1980", "--format", "json"], "timeseries_1950_1980.json"),
        (["fit", "--year", "1980", "--model", "power_law", "--format", "csv"], "fit_power_law_1980.csv"),
        (["fit", "--year", "1980", "--model", "exponential", "--format", "csv"], "fit_exponential_1980.csv"),
    ],
)
def test_outputs_keep_their_frozen_bytes(capsys, fixture_csv_paths, argv, frozen):
    # frozen from earlier versions of the CLI: the JSON when every record was a
    # frozen dataclass, the CSV when the metric records still took a seed
    code, out, err = run_cli(capsys, argv[0], *log_args(fixture_csv_paths), *argv[1:])
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (FROZEN / frozen).read_bytes()
