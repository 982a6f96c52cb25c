"""Per-year analysis across the log: time series and correlation.

A range's graphs come from one sweep over the log's commission and
decommission events (``graphs.yearly_snapshots`` describes it), which
repeats the previous year's graph in a year that changes nothing.  A
repeated graph reuses its record, since every column but ``year`` depends
only on the graph.  So the distinct graphs can be computed in any order
and in any process: where ``os.fork`` exists and they cost at least
``MIN_FORK_COST``, they are split into up to ``MAX_WORKERS`` shares, and
every share but the first runs in a forked child.
"""

from __future__ import annotations

import math
import os
import sys
from functools import reduce  # reduce(add, floats, 0) rounds as sum did before Python 3.12
from operator import add
from typing import BinaryIO, Callable, NamedTuple, Sequence

from .graphs import GraphSnapshot, yearly_snapshots
from .grid_log import TemporalGridLog, line_count_series
from .metrics import MetricsRecord, compute_metrics_record, record_field

# most processes that compute one range's records at once
MAX_WORKERS = 8
# summed N^2 of the distinct graphs below which they are computed in this
# process: a fork round trip (fork, copy-on-write faults, pickled records,
# reaping) costs more than the share it takes off.  Measured on a 2-vCPU VM,
# the break-even lay between 1.5e4 and 3e4, 10-20 ms of records in one
# process; the 12-node fixture's 31 years cost 1472, a 350-node growth
# log's 70 years about 2.9e6.
MIN_FORK_COST = 20_000

class CorrelationReport(NamedTuple):
    metric: str
    r: float
    years: tuple[int, ...]
    metric_values: tuple[float, ...]
    line_counts: tuple[int, ...]
    dropped_years: tuple[int, ...]

    def to_csv(self) -> str:
        """The paired series, ``year,<metric>,line_count``, that ``correlate --out`` writes."""
        lines = [f"year,{self.metric},line_count"]
        lines.extend(f"{y},{v!r},{c}" for y, v, c in zip(self.years, self.metric_values, self.line_counts))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """The summary lines ``correlate`` prints."""
        dropped = ",".join(map(str, self.dropped_years))
        return f"metric={self.metric}\nr={self.r!r}\nyears_used={len(self.years)}\ndropped_years={dropped}\n"


def compute_timeseries(log: TemporalGridLog, years: Sequence[int]) -> tuple[MetricsRecord, ...]:
    """One MetricsRecord per year."""
    return tuple(_yearly_records(log, list(years)))


def _yearly_records(log: TemporalGridLog, years: list[int], *, modularity: bool = True) -> list[MetricsRecord]:
    """One record per year, computed only when the graph differs from the previous year's."""
    distinct, graph_of_year = yearly_snapshots(log, years)
    records = _distinct_records(distinct, modularity)
    return [records[i]._replace(year=year) for i, year in zip(graph_of_year, years)]


def _worker_count(distinct: int) -> int:
    """Processes for ``distinct`` graphs: one per usable CPU, at most MAX_WORKERS.

    Only one where ``os.fork`` is missing, or where other threads run: a
    forked child would inherit any lock they hold, held forever.
    """
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, distinct, MAX_WORKERS))


def _shares(costs: Sequence[int], workers: int) -> list[list[int]]:
    """Split the indices of ``costs`` into ``workers`` shares, longest processing time first.

    Each index, costliest first, goes to the share with the least total
    cost so far (ties to the lower share), and share 0 gets the costliest.
    """
    shares: list[list[int]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        share = loads.index(min(loads))
        shares[share].append(i)
        loads[share] += costs[i]
    return shares


def _distinct_records(snapshots: list[GraphSnapshot], modularity: bool) -> list[MetricsRecord]:
    """One record per snapshot; every share but the first is computed in a forked child.

    A child inherits the snapshots, so only its records cross its pipe.  A
    share whose pipe or fork fails (say, EAGAIN under a process limit) is
    computed here instead.  An error in any share is raised here, and every
    child is reaped on the way out, whatever happens; one that is still
    running is killed first.
    """
    costs = [s.num_nodes**2 for s in snapshots]
    shares = _shares(costs, _worker_count(len(snapshots)) if sum(costs) >= MIN_FORK_COST else 1)

    def compute(share: list[int]) -> list[MetricsRecord]:
        return [compute_metrics_record(snapshots[i], modularity=modularity) for i in share]

    children = []  # (pid, read end of its pipe, share) until it is reaped
    try:
        local = shares[0]
        for share in shares[1:]:
            try:
                children.append((*_fork(compute, share), share))
            except OSError:
                local = local + share
        done = [(local, compute(local))]
        while children:
            pid, pipe, share = children[0]
            payload = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            done.append((share, _unpickled(payload, status)))
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    by_index = {i: record for share, share_records in done for i, record in zip(share, share_records)}
    return [by_index[i] for i in range(len(snapshots))]


def _fork(compute: Callable[[list[int]], list[MetricsRecord]], share: list[int]) -> tuple[int, BinaryIO]:
    """Start a child that writes ``(True, compute(share))`` or ``(False, error)``, pickled, to a pipe."""
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, compute(share)))
            except BaseException as exc:
                payload = _pickled_error(exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _pickled_error(exc: BaseException) -> bytes:
    """``(False, exc)`` pickled; an error that does not survive pickling becomes a RuntimeError."""
    import pickle

    try:
        payload = pickle.dumps((False, exc))
        pickle.loads(payload)
    except Exception:
        payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
    return payload


def _unpickled(payload: bytes, status: int) -> list[MetricsRecord]:
    """A child's records, or its error raised again."""
    import pickle

    if not payload:  # an OSError, so the CLI reports it in one line
        raise ChildProcessError(f"worker process ended with wait status {status} and sent no records")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value


def _scaled(values: list[float]) -> list[float]:
    """The values over the power of two that brings the largest magnitude into [0.5, 1):
    exact, so r stays as it is, and the sums of squares neither overflow nor underflow."""
    exponent = math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, -exponent) for v in values]


def pearson(series_a: Sequence[float], series_b: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient of finite values, clamped to [-1, 1]."""
    try:
        a = [float(x) for x in series_a]
        b = [float(x) for x in series_b]
    except OverflowError:  # an int beyond the float range
        raise ValueError("undefined correlation: non-finite value") from None
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("correlation needs at least 2 points")
    if not all(map(math.isfinite, a + b)):
        raise ValueError("undefined correlation: non-finite value")
    a, b = _scaled(a), _scaled(b)
    mean_a = reduce(add, a, 0) / len(a)
    mean_b = reduce(add, b, 0) / len(b)
    var_a = reduce(add, ((x - mean_a) ** 2 for x in a), 0)
    var_b = reduce(add, ((y - mean_b) ** 2 for y in b), 0)
    if var_a == 0.0 or var_b == 0.0:
        raise ValueError("undefined correlation: constant series")
    cov = reduce(add, ((x - mean_a) * (y - mean_b) for x, y in zip(a, b)), 0)
    r = cov / math.sqrt(var_a * var_b)
    return max(-1.0, min(1.0, r))


def correlate_with_line_count(
    log: TemporalGridLog, metric: str, voltages: Sequence[int], domestic_only: bool, years: Sequence[int]
) -> CorrelationReport:
    """Pearson r between a metric time series and active line counts.

    Years where the metric is undefined are dropped pairwise and
    reported, since correlation needs both sides.  Only the metric's own
    column leaves the records, so Q is computed only when it is the metric.
    """
    years = list(years)
    attr = record_field(metric)
    counts = line_count_series(log, voltages, domestic_only, years)
    records = _yearly_records(log, years, modularity=attr == "Q")
    metric_values = [getattr(record, attr) for record in records]
    used_years, used_values, used_counts, dropped = [], [], [], []
    for year, value, count in zip(years, metric_values, counts):
        if value is None:
            dropped.append(year)
        else:
            used_years.append(year)
            used_values.append(float(value))
            used_counts.append(count)
    if len(used_years) < 2:
        raise ValueError("correlation needs at least 2 years with a defined metric")
    r = pearson(used_values, used_counts)
    return CorrelationReport(
        metric=metric,
        r=r,
        years=tuple(used_years),
        metric_values=tuple(used_values),
        line_counts=tuple(used_counts),
        dropped_years=tuple(dropped),
    )
