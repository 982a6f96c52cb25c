"""Seeded synthetic grid logs for the benchmark.

The growth model is the spatial-growth log of the ROADMAP baseline: nodes
are commissioned evenly over 1950-2019 at uniform random points in the unit
square, and each new node links to its nearest earlier neighbour (two
thirds of nodes) or its two nearest (one third), chosen among the previous
200 nodes.  The number of two-link nodes is fixed at a third rather than
drawn per node, so the edge count, and with it the cost of a run, does not
vary with the seed.  Voltages are drawn from {120, 220, 400}.

The churn variant changes the graph by removal as well as by addition:

* every event falls on an even year, so each odd year repeats the graph
  of the year before;
* some nodes retire, taking their lines with them, so snapshots shrink, and
  some lines retire before their nodes, so components split off;
* about 30% of routes carry an overlapping second circuit, which the
  program merges at ingest.

``generate`` also returns the routes, one per merged connection, built
from the generator's own construction; the checker reads them as ground
truth instead of the program's merge.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass

FIRST_YEAR, LAST_YEAR = 1950, 2019
NEIGHBOUR_WINDOW = 200
VOLTAGES = (120, 220, 400)
KINDS = ("plant", "substation", "transformer")
DOMESTIC_SHARE = 0.9
# churn variant
NODE_RETIRE_SHARE = 0.12
LINE_RETIRE_SHARE = 0.1  # of the lines to nodes that no later node links to
SECOND_CIRCUIT_SHARE = 0.3
MIN_NODE_LIFETIME = 10


@dataclass(frozen=True)
class Node:
    id: str
    kind: str
    commissioned: int
    decommissioned: int | None
    domestic: bool


@dataclass(frozen=True)
class Circuit:
    id: str
    a: str
    b: str
    voltage_kv: int
    commissioned: int
    decommissioned: int | None
    domestic: bool


@dataclass(frozen=True)
class Route:
    """One connection after parallel circuits are merged."""

    a: str
    b: str
    voltage_kv: int
    commissioned: int
    decommissioned: int | None
    domestic: bool


@dataclass(frozen=True)
class GridLog:
    nodes: tuple[Node, ...]
    circuits: tuple[Circuit, ...]
    routes: tuple[Route, ...]


def _active(commissioned: int, decommissioned: int | None, year: int) -> bool:
    return commissioned <= year and (decommissioned is None or year < decommissioned)


def _even_year_after(rng: random.Random, low: int) -> int | None:
    """Uniform even year in [low, LAST_YEAR), or None if there is none."""
    low += low % 2
    if low >= LAST_YEAR:
        return None
    return rng.randrange(low, LAST_YEAR, 2)


def generate(n: int, seed: int, churn: bool = False) -> GridLog:
    """The growth (or churn) log with ``n`` nodes; equal seeds give equal logs."""
    rng = random.Random(seed)
    span = LAST_YEAR - FIRST_YEAR + 1
    two_link = set(rng.sample(range(1, n), (n - 1) // 3))
    years: list[int] = []
    points: list[tuple[float, float]] = []
    links: list[tuple[int, int]] = []  # (earlier node, the later node that linked to it)
    for i in range(n):
        years.append(FIRST_YEAR + (2 * (i * ((span + 1) // 2) // n) if churn else i * span // n))
        x, y = rng.random(), rng.random()
        window = range(max(0, i - NEIGHBOUR_WINDOW), i)
        nearest = sorted(window, key=lambda j: ((points[j][0] - x) ** 2 + (points[j][1] - y) ** 2, j))
        links += [(j, i) for j in nearest[: 2 if i in two_link else 1]]
        points.append((x, y))

    # Only nodes that no later node links to, and their lines, retire: a
    # retirement shrinks the snapshot or cuts one node off, never a whole
    # region, so the work per run hardly varies with the seed.
    sinks = set(range(n)) - {j for j, _ in links}
    retire: list[int | None] = [None] * n
    if churn:
        for i in rng.sample(sorted(sinks), round(n * NODE_RETIRE_SHARE)):
            retire[i] = _even_year_after(rng, years[i] + MIN_NODE_LIFETIME)
    nodes = tuple(
        Node(f"n{i:06d}", rng.choice(KINDS), years[i], retire[i], rng.random() < DOMESTIC_SHARE)
        for i in range(n)
    )

    circuits: list[Circuit] = []
    routes: list[Route] = []
    for j, i in links:
        year, end = years[i], retire[i]  # j has a later neighbour, so it never retires
        if churn and i in sinks and rng.random() < LINE_RETIRE_SHARE:
            early = _even_year_after(rng, year + 1)
            if early is not None and (end is None or early < end):
                end = early
        parts = [Circuit(f"e{len(circuits):07d}", nodes[j].id, nodes[i].id, rng.choice(VOLTAGES), year,
                         end, rng.random() < DOMESTIC_SHARE)]
        if churn and rng.random() < SECOND_CIRCUIT_SHARE:
            second_year = rng.randrange(year, LAST_YEAR if end is None else end, 2)
            parts.append(Circuit(f"e{len(circuits) + 1:07d}", nodes[i].id, nodes[j].id,
                                 rng.choice(VOLTAGES), second_year, end, rng.random() < DOMESTIC_SHARE))
        circuits += parts
        routes.append(Route(nodes[j].id, nodes[i].id, max(c.voltage_kv for c in parts), year, end,
                            all(c.domestic for c in parts)))
    return GridLog(nodes, tuple(circuits), tuple(routes))


def to_csv(log: GridLog) -> tuple[str, str]:
    """(nodes.csv, edges.csv) text in the program's input format."""
    def opt(year):
        return "" if year is None else year

    def flag(value):
        return "true" if value else "false"

    nodes_out, edges_out = io.StringIO(), io.StringIO()
    writer = csv.writer(nodes_out, lineterminator="\n")
    writer.writerow(("id", "name", "kind", "commissioned", "decommissioned", "domestic"))
    for node in log.nodes:
        writer.writerow(
            (node.id, f"Site {node.id[1:]}", node.kind, node.commissioned, opt(node.decommissioned),
             flag(node.domestic))
        )
    writer = csv.writer(edges_out, lineterminator="\n")
    writer.writerow(("id", "node_a", "node_b", "voltage_kv", "commissioned", "decommissioned", "domestic"))
    for c in log.circuits:
        writer.writerow(
            (c.id, c.a, c.b, c.voltage_kv, c.commissioned, opt(c.decommissioned), flag(c.domestic))
        )
    return nodes_out.getvalue(), edges_out.getvalue()


def snapshot(log: GridLog, year: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Active node ids and active route endpoint pairs in ``year``."""
    node_ids = [n.id for n in log.nodes if _active(n.commissioned, n.decommissioned, year)]
    active = set(node_ids)
    pairs = [
        (r.a, r.b)
        for r in log.routes
        if _active(r.commissioned, r.decommissioned, year) and r.a in active and r.b in active
    ]
    return node_ids, pairs


def repeat_year_share(log: GridLog, years) -> float:
    """Share of ``years`` whose graph equals the previous calendar year's."""
    years = list(years)
    same = 0
    for year in years:
        now, before = snapshot(log, year), snapshot(log, year - 1)
        same += set(now[0]) == set(before[0]) and set(now[1]) == set(before[1])
    return same / len(years)


def line_counts(log: GridLog, voltages, domestic_only: bool, years) -> list[int]:
    """Per-year count of active routes at the given voltages."""
    wanted = set(voltages)
    counts = []
    for year in years:
        active = {n.id for n in log.nodes if _active(n.commissioned, n.decommissioned, year)}
        counts.append(
            sum(
                1
                for r in log.routes
                if _active(r.commissioned, r.decommissioned, year)
                and r.a in active
                and r.b in active
                and r.voltage_kv in wanted
                and (r.domestic or not domestic_only)
            )
        )
    return counts
