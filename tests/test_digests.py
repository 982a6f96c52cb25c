"""CLI output on the benchmark's logs keeps the bytes frozen in ``frozen/digests.json``.

Each case runs the CLI in process on a seeded log from ``bench/gen.py`` and
compares the sha256 of its stdout, and of its ``--out`` file where it writes
one, with the table.  The table also holds the sha256 of every generated
input and of the churn-2000 log's merge notes, so a change of generator
shows up as such rather than as a changed output.  The multi-year commands
run once with every graph in this process and once split over forked
workers.  The table was written, every graph in one process, by the CLI as
it was before the metric records stopped taking a seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
from pathlib import Path
from unittest import mock

import pytest

from gridtopo.cli import main
from gridtopo.grid_log import parse_log

from conftest import bench_log_csv, forced_workers

TABLE = Path(__file__).resolve().parent / "frozen" / "digests.json"
SERIES = ["--from", "1950", "--to", "2019"]
CORRELATE = ["correlate", "--voltages", "220,400", "--domestic-only", *SERIES]
LOGS = {  # name: (nodes, churn), all with seed 1
    "growth-350": (350, False),
    "growth-800": (800, False),
    "churn-400": (400, True),
    "churn-2000": (2000, True),
    "growth-4000": (4000, False),
}
MULTI_YEAR = {  # name: (log, argv); --out, where given, is a file in a temporary directory
    "growth-350 timeseries": ("growth-350", ["timeseries", *SERIES]),
    "churn-2000 timeseries json": ("churn-2000", ["timeseries", *SERIES, "--format", "json"]),
    "churn-400 correlate sigma": ("churn-400", [*CORRELATE, "--metric", "sigma"]),
    "churn-400 correlate Q out": ("churn-400", [*CORRELATE, "--metric", "Q", "--out"]),
}
SINGLE_GRAPH = {
    "growth-800 snapshot json": ("growth-800", ["snapshot", "--year", "2019", "--format", "json"]),
    "churn-2000 communities restarts 3": ("churn-2000", ["communities", "--year", "2019", "--restarts", "3"]),
    "generate barabasi_albert": (None, ["generate", "--kind", "barabasi_albert", "--n", "1000", "--m", "3"]),
    **{
        f"growth-4000 fit both {year}": ("growth-4000", ["fit", "--year", str(year), "--model", "both"])
        for year in range(1950, 2011, 10)
    },
}

CASES = {**MULTI_YEAR, **SINGLE_GRAPH}
BUILTIN_SUM = sum


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.cache
def table() -> dict:
    return json.loads(TABLE.read_text())


def log_csv(name: str) -> tuple[str, str]:
    nodes, churn = LOGS[name]
    return bench_log_csv(nodes, 1, churn)


def run(tmp_path: Path, log: str | None, argv: list[str]) -> dict[str, str]:
    """The sha256 of the CLI's stdout (and ``--out`` file) for ``argv`` on ``log``."""
    argv = list(argv)
    if log is not None:
        paths = [tmp_path / f"{log}-nodes.csv", tmp_path / f"{log}-edges.csv"]
        for path, text in zip(paths, log_csv(log)):
            path.write_text(text, encoding="utf-8")
        argv[1:1] = ["--nodes", str(paths[0]), "--edges", str(paths[1])]
    out = tmp_path / "out.txt"
    if argv[-1] == "--out":
        argv.append(str(out))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert (code, stderr.getvalue()) == (0, "")
    digests = {"stdout": sha256(stdout.getvalue().encode("utf-8"))}
    if out.exists():
        digests["out"] = sha256(out.read_bytes())
    return digests


@pytest.mark.parametrize("log", sorted(LOGS))
def test_generated_inputs_keep_their_bytes(log):
    assert [sha256(text.encode("utf-8")) for text in log_csv(log)] == table()["inputs"][log]


def test_merge_notes_keep_their_values():
    merges = parse_log(*log_csv("churn-2000")).merges
    assert len(merges) > 0
    assert sha256(repr([tuple(m) for m in merges]).encode("utf-8")) == table()["churn-2000 merges"]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", sorted(MULTI_YEAR))
def test_multi_year_outputs_keep_their_bytes(tmp_path, name, workers):
    with forced_workers(workers):
        assert run(tmp_path, *MULTI_YEAR[name]) == table()["outputs"][name]


@pytest.mark.parametrize("name", sorted(SINGLE_GRAPH))
def test_single_graph_outputs_keep_their_bytes(tmp_path, name):
    assert run(tmp_path, *SINGLE_GRAPH[name]) == table()["outputs"][name]


@pytest.mark.parametrize("workers", [1, 3])
def test_timeseries_seed_is_accepted_and_changes_nothing(tmp_path, workers):
    log, argv = MULTI_YEAR["growth-350 timeseries"]
    with forced_workers(workers):
        assert run(tmp_path, log, [*argv, "--seed", "7"]) == table()["outputs"]["growth-350 timeseries"]


def compensated_sum(iterable, /, start=0):
    """The built-in ``sum``, but with float totals compensated as Python 3.12
    and later compensate them (here exactly rounded by ``math.fsum``)."""
    items = [start, *iterable]
    if all(isinstance(x, int) for x in items) or not all(isinstance(x, (int, float)) for x in items):
        return BUILTIN_SUM(items[1:], start)
    return math.fsum(items)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_do_not_depend_on_how_the_interpreter_rounds_sum(tmp_path, name):
    with mock.patch("builtins.sum", compensated_sum):
        assert run(tmp_path, *CASES[name]) == table()["outputs"][name]
