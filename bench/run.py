"""Benchmark for the gridtopo CLI.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the program is imported from its
``src`` directory, so nothing needs to be installed.  Each workload writes a
seeded synthetic grid log (``gen.py``) to a scratch directory, then runs the
CLI on it one process at a time, as a script would, until ``--seconds`` have
passed.  One run of a workload is its list of CLI invocations, timed from
spawning the first process to the exit of the last.  After the timed loop
every output is checked (``check.py``): byte-identical to the first run's,
and the first run's values equal to networkx's on the same graphs.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (``tracer.py``), which calls ``gridtopo.cli.main`` in process.
The exit code is nonzero when any output is wrong.  ``--workload all`` runs
every workload in turn and prints one JSON line for each.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import gen
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_LAUNCHES = 15  # set-up time is the median over this many interpreter launches
TAIL_BEYOND = 10  # the reported tail is the highest percentile with this many runs above it
SUBPROCESS_SHARE = 0.25  # share of a traced run spent on CLI processes, for proc.cpu_s

YEARS = tuple(range(1950, 2020))
FIT_YEARS = tuple(range(1950, 2020, 10))
VOLTAGES = (220, 400)
LOG = ("--nodes", "{nodes}", "--edges", "{edges}")


@dataclass(frozen=True)
class Output:
    stdout: bytes
    out: bytes  # the --out file, empty when the invocation writes none


@dataclass(frozen=True)
class Workload:
    nodes: int
    churn: bool
    years: tuple[int, ...]  # one snapshot (or fit) per year and run
    argvs: tuple[tuple[str, ...], ...]  # CLI invocations of one run, in order
    check: Callable[[gen.GridLog, list[Output]], list[list[str]]]  # problems per invocation


# Why each workload exists is recorded in BENCHMARK.json.  The sizes are the
# smallest that keep each workload's balance of path, Q, parse and fit work
# (checked by the traced run) while a run of it takes a few seconds.
WORKLOADS = {
    "series-growth": Workload(
        nodes=350, churn=False, years=YEARS,
        argvs=(("timeseries", *LOG, "--from", "1950", "--to", "2019"),),
        check=lambda log, outs: [check.check_timeseries(log, YEARS, outs[0].stdout)],
    ),
    "snapshot-large": Workload(
        nodes=800, churn=False, years=(2019,),
        argvs=(("snapshot", *LOG, "--year", "2019", "--format", "json"),),
        check=lambda log, outs: [check.check_snapshot(log, 2019, outs[0].stdout)],
    ),
    "correlate-churn": Workload(
        nodes=400, churn=True, years=YEARS,
        argvs=(("correlate", *LOG, "--metric", "sigma", "--voltages", ",".join(map(str, VOLTAGES)),
                "--domestic-only", "--from", "1950", "--to", "2019", "--out", "{out}"),),
        check=lambda log, outs: [
            check.check_correlate(log, VOLTAGES, True, YEARS, outs[0].stdout, outs[0].out)],
    ),
    "fit-ingest": Workload(
        nodes=4000, churn=False, years=FIT_YEARS,
        argvs=tuple(("fit", *LOG, "--year", str(year), "--model", "both") for year in FIT_YEARS),
        check=lambda log, outs: [
            check.check_fit(log, year, out.stdout) for year, out in zip(FIT_YEARS, outs)],
    ),
}


@dataclass(frozen=True)
class Process:
    code: int
    max_rss_kb: int
    cpu_s: float


def _child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _spawn(argv: list[str], stdout_path: Path, env: dict[str, str]) -> Process:
    """Run ``python -m gridtopo argv`` to completion, with its resource usage."""
    with open(stdout_path, "wb") as stdout, open(stdout_path.with_suffix(".err"), "wb") as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "gridtopo", *argv], stdout=stdout,
                                stderr=stderr, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(proc.returncode, usage.ru_maxrss, usage.ru_utime + usage.ru_stime)


def _import_seconds(env: dict[str, str]) -> float:
    """Time from spawning an interpreter until it has imported gridtopo.cli."""
    start = time.monotonic()  # CLOCK_MONOTONIC: one clock for every process on the machine
    done = subprocess.run([sys.executable, "-c", "import time, gridtopo.cli; print(time.monotonic())"],
                          env=env, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return float(done) - start


def _tail(samples: list[float]) -> str:
    """The highest percentile with TAIL_BEYOND samples above it, if there is one."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return f"no percentile has {TAIL_BEYOND} runs above it"
    return f"p{100 * (n - TAIL_BEYOND) // n} {ordered[n - TAIL_BEYOND - 1]:.6g} s"


class Run:
    """One workload on one seed: inputs, invocations and outcomes."""

    def __init__(self, name: str, seed: int, scratch: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.log = gen.generate(self.workload.nodes, seed, self.workload.churn)
        nodes_csv, edges_csv = gen.to_csv(self.log)
        paths = {"nodes": scratch / "nodes.csv", "edges": scratch / "edges.csv"}
        paths["nodes"].write_text(nodes_csv, encoding="utf-8")
        paths["edges"].write_text(edges_csv, encoding="utf-8")
        self.scratch = scratch
        self.out_paths = [scratch / f"out{i}.csv" for i in range(len(self.workload.argvs))]
        self.argvs = [[arg.format(out=out, **paths) for arg in argv]
                      for argv, out in zip(self.workload.argvs, self.out_paths)]
        self.env = _child_env()
        self.reference: list[Output] | None = None
        self.repeats: list[int] = []  # runs whose output equals the reference, per invocation
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _read_out(self, index: int) -> bytes:
        path = self.out_paths[index]
        if not path.exists():
            return b""
        data = path.read_bytes()
        path.unlink()
        return data

    def record(self, outputs: list[Output], codes: list[int]) -> None:
        """Count one run's invocations; the first run becomes the reference."""
        if self.reference is None:
            self.reference = outputs
            self.repeats = [0] * len(outputs)
        for i, (output, code) in enumerate(zip(outputs, codes)):
            self.attempted += 1
            if code != 0:
                self.failed += 1
                self.problems.append(f"{self.workload.argvs[i][0]}: exit code {code}")
            elif output != self.reference[i]:
                self.failed += 1
                self.problems.append(f"{self.workload.argvs[i][0]}: output differs from the first run's")
            else:
                self.repeats[i] += 1

    def verify_reference(self) -> None:
        """Check the first run's outputs; a wrong one fails in every run that repeated it."""
        try:
            found = self.workload.check(self.log, self.reference)
        except (ValueError, KeyError, IndexError, TypeError) as exc:  # output not in the expected shape
            found = [[f"unreadable output: {exc!r}"]] * len(self.reference)
        for i, problems in enumerate(found):
            if problems:
                self.failed += self.repeats[i]
                self.problems += problems[:5]

    def subprocess_run(self) -> tuple[float, list[Process]]:
        stdout_paths = [self.scratch / f"stdout{i}.txt" for i in range(len(self.argvs))]
        start = time.monotonic()
        procs = [_spawn(argv, path, self.env) for argv, path in zip(self.argvs, stdout_paths)]
        wall = time.monotonic() - start
        outputs = [Output(path.read_bytes(), self._read_out(i)) for i, path in enumerate(stdout_paths)]
        self.record(outputs, [p.code for p in procs])
        for proc, path in zip(procs, stdout_paths):
            if proc.code != 0:
                self.problems.append(path.with_suffix(".err").read_text(errors="replace")[-300:].strip())
        return wall, procs

    def in_process_run(self, main, tracer: Tracer | None) -> float:
        """Seconds spent inside ``main(argv)`` over the run's invocations."""
        total = 0.0
        outputs, codes = [], []
        with tracer if tracer is not None else contextlib.nullcontext():
            for i, argv in enumerate(self.argvs):
                buffer = io.StringIO()
                gc.collect()
                with contextlib.redirect_stdout(buffer):
                    start = time.perf_counter()
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    total += time.perf_counter() - start
                if tracer is not None:
                    tracer.take_counts()
                outputs.append(Output(buffer.getvalue().encode("utf-8"), self._read_out(i)))
                codes.append(code)
        self.record(outputs, codes)
        return total


def _end_to_end(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    setup = [_import_seconds(run.env) for _ in range(SETUP_LAUNCHES)]
    walls, rss_kb = [], 0
    deadline = time.monotonic() + seconds
    while not walls or time.monotonic() < deadline:
        wall, procs = run.subprocess_run()
        walls.append(wall)
        rss_kb = max([rss_kb] + [p.max_rss_kb for p in procs])
    wall_s = statistics.median(walls)
    units = len(run.workload.years)
    print(f"wall_s: median of {len(walls)} runs, tail {_tail(walls)}; "
          f"{units} {'fits' if run.name == 'fit-ingest' else 'snapshots'} per run; "
          f"setup_s: median of {SETUP_LAUNCHES} launches")
    return {
        "wall_s": (wall_s, "s"),
        "snapshots_per_s": (units / wall_s, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def _per_layer(run: Run, seconds: float, seed: int) -> dict[str, tuple[float, str]]:
    cpu = []
    deadline = time.monotonic() + seconds * SUBPROCESS_SHARE
    while not cpu or time.monotonic() < deadline:
        _, procs = run.subprocess_run()
        cpu.append(sum(p.cpu_s for p in procs))

    sys.path.insert(0, str(SRC))
    from gridtopo import cli  # the checkout's own source, first on sys.path

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported gridtopo from {cli.__file__}, not from {SRC}")
    plain, traced = [], []
    deadline = time.monotonic() + seconds * (1 - SUBPROCESS_SHARE)
    while not traced or time.monotonic() < deadline:
        plain.append(run.in_process_run(cli.main, None))
        tracer = Tracer()
        traced.append((run.in_process_run(cli.main, tracer), tracer))
    traced.sort(key=lambda pair: pair[0])
    total, tracer = traced[(len(traced) - 1) // 2]
    for name in tracer.missing:
        print(f"warning: layer function {name} not found; it reports 0 calls", file=sys.stderr)

    spans_path = WORK / f"{run.name}-seed{seed}.spans.jsonl"
    spans_path.write_text("".join(json.dumps(row) + "\n" for row in tracer.span_rows()))
    layers = tracer.breakdown(total)
    layers["evolution.repeat_year_share"] = gen.repeat_year_share(run.log, run.workload.years)
    layers["proc.cpu_s"] = statistics.median(cpu)
    layers["trace.overhead_share"] = (
        statistics.median(t for t, _ in traced) / statistics.median(plain) - 1)
    print(f"per-layer: the median of {len(traced)} traced runs ({len(plain)} untraced); "
          f"proc.cpu_s: median of {len(cpu)} CLI runs; spans in {spans_path.relative_to(ROOT)}")
    return {name: (value, _unit(name)) for name, value in layers.items()}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_per_snapshot")):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        run = Run(name, seed, Path(scratch))
        print(f"workload {name}: seed {seed}, {run.workload.nodes} nodes, "
              f"{len(run.argvs)} CLI invocation(s) per run")
        metrics = _per_layer(run, seconds, seed) if trace else _end_to_end(run, seconds)
        run.verify_reference()
    for problem in run.problems[:20]:
        print(f"incorrect: {problem}", file=sys.stderr)
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:40s} {value:.6g} {unit}")
    print(f"  {'error_rate':40s} {run.failed / run.attempted:.6g} fraction "
          f"({run.failed} of {run.attempted} invocations failed)")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gridtopo" / "cli.py").is_file():
        print(f"error: no gridtopo source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        correct &= result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
