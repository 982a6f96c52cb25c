"""Temporal commission/decommission log of power-grid elements.

The log holds dated records for nodes (plants, substations, transformers)
and for the transmission lines between them.  Lifetimes are half-open year
intervals: an element commissioned in year c and decommissioned in year d
is present for years c..d-1 and gone from year d on.  Parallel circuits
(two line records between the same pair of nodes with overlapping
lifetimes) are collapsed into a single connection at parse time.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

NODE_KINDS = ("plant", "substation", "transformer")
NODES_COLUMNS = ("id", "name", "kind", "commissioned", "decommissioned", "domestic")
EDGES_COLUMNS = ("id", "node_a", "node_b", "voltage_kv", "commissioned", "decommissioned", "domestic")


class GridLogError(ValueError):
    """Malformed or inconsistent grid-log data."""


def _active(commissioned: int, decommissioned: int | None, year: int) -> bool:
    return commissioned <= year and (decommissioned is None or year < decommissioned)


@dataclass(frozen=True)
class NodeRecord:
    id: str
    name: str
    kind: str
    commissioned: int
    decommissioned: int | None
    domestic: bool

    def active_in(self, year: int) -> bool:
        return _active(self.commissioned, self.decommissioned, year)


@dataclass(frozen=True)
class EdgeRecord:
    id: str
    node_a: str
    node_b: str
    voltage_kv: int
    commissioned: int
    decommissioned: int | None
    domestic: bool

    @property
    def endpoints(self) -> tuple[str, str]:
        """Unordered endpoint pair in canonical (sorted) order."""
        if self.node_a <= self.node_b:
            return (self.node_a, self.node_b)
        return (self.node_b, self.node_a)

    def active_in(self, year: int) -> bool:
        return _active(self.commissioned, self.decommissioned, year)


@dataclass(frozen=True)
class CircuitMerge:
    """Note that parallel circuits were collapsed into one connection."""

    kept_id: str
    merged_ids: tuple[str, ...]
    node_a: str
    node_b: str
    commissioned: int
    decommissioned: int | None


@dataclass(frozen=True)
class TemporalGridLog:
    """Validated, immutable set of node and edge records.

    ``merges`` documents circuit merges performed at parse time; it is
    informational and excluded from equality.
    """

    nodes: tuple[NodeRecord, ...]
    edges: tuple[EdgeRecord, ...]
    merges: tuple[CircuitMerge, ...] = field(default=(), compare=False)


# ---------------------------------------------------------------------------
# parsing


def _rows(source: str | TextIO, label: str, columns: tuple[str, ...]) -> Iterator[tuple[int, str, list[str]]]:
    """Checked data rows of one table as (row number, stripped id, fields).

    The header is row 1 and must name ``columns``.  Blank rows are
    skipped; a row with the wrong field count, an empty id or an id seen
    before is an error.  CSV syntax errors name the row.  One leading
    byte-order mark (U+FEFF) is dropped, so BOM-prefixed text and files
    parse like the plain originals.
    """
    lines = iter(io.StringIO(source) if isinstance(source, str) else source)
    first = next(lines, "").removeprefix("\ufeff")
    reader = csv.reader(itertools.chain((first,), lines))
    seen: set[str] = set()
    row_num = 0  # the last row read, so a CSV syntax error names the next one
    try:
        header = next(reader, None)
        row_num = 1
        if header is None or tuple(cell.strip() for cell in header) != columns:
            raise GridLogError(f"{label}: expected header {','.join(columns)!r}")
        for row_num, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(columns):
                raise GridLogError(f"{label} row {row_num}: expected {len(columns)} fields, got {len(row)}")
            row_id = row[0].strip()
            if not row_id:
                raise GridLogError(f"{label} row {row_num}: empty id")
            if row_id in seen:
                raise GridLogError(f"{label} row {row_num}: duplicate {label[:-1]} id {row_id!r}")
            seen.add(row_id)
            yield row_num, row_id, row
    except csv.Error as exc:
        raise GridLogError(f"{label} row {row_num + 1}: {exc}") from None


def _parse_year(text: str, label: str, row_num: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise GridLogError(f"{label} row {row_num}: invalid year {text!r}") from None


def _parse_opt_year(text: str, label: str, row_num: int) -> int | None:
    text = text.strip()
    if not text:
        return None
    return _parse_year(text, label, row_num)


def _parse_bool(text: str, label: str, row_num: int) -> bool:
    value = text.strip().lower()
    if value == "true":
        return True
    if value == "false":
        return False
    raise GridLogError(f"{label} row {row_num}: domestic must be true or false, got {text!r}")


def _parse_nodes(source: str | TextIO) -> list[NodeRecord]:
    records: list[NodeRecord] = []
    for row_num, node_id, row in _rows(source, "nodes", NODES_COLUMNS):
        kind = row[2].strip()
        if kind not in NODE_KINDS:
            raise GridLogError(f"nodes row {row_num}: unknown kind {kind!r}")
        commissioned = _parse_year(row[3], "nodes", row_num)
        decommissioned = _parse_opt_year(row[4], "nodes", row_num)
        if decommissioned is not None and decommissioned < commissioned:
            raise GridLogError(
                f"nodes row {row_num}: node {node_id!r} decommissioned {decommissioned} "
                f"before commissioned {commissioned}"
            )
        records.append(
            NodeRecord(
                id=node_id,
                name=row[1].strip(),
                kind=kind,
                commissioned=commissioned,
                decommissioned=decommissioned,
                domestic=_parse_bool(row[5], "nodes", row_num),
            )
        )
    return records


def _parse_edges(source: str | TextIO, nodes_by_id: dict[str, NodeRecord]) -> list[EdgeRecord]:
    records: list[EdgeRecord] = []
    for row_num, edge_id, row in _rows(source, "edges", EDGES_COLUMNS):
        node_a, node_b = row[1].strip(), row[2].strip()
        for endpoint in (node_a, node_b):
            if endpoint not in nodes_by_id:
                raise GridLogError(f"edges row {row_num}: unknown endpoint id {endpoint!r}")
        if node_a == node_b:
            raise GridLogError(f"edges row {row_num}: self-loop on {node_a!r}")
        try:
            voltage = int(row[3].strip())
        except ValueError:
            raise GridLogError(f"edges row {row_num}: invalid voltage {row[3]!r}") from None
        if voltage <= 0:
            raise GridLogError(f"edges row {row_num}: voltage must be positive, got {voltage}")
        commissioned = _parse_year(row[4], "edges", row_num)
        decommissioned = _parse_opt_year(row[5], "edges", row_num)
        if decommissioned is not None and decommissioned < commissioned:
            raise GridLogError(
                f"edges row {row_num}: edge {edge_id!r} decommissioned {decommissioned} "
                f"before commissioned {commissioned}"
            )
        record = EdgeRecord(
            id=edge_id,
            node_a=node_a,
            node_b=node_b,
            voltage_kv=voltage,
            commissioned=commissioned,
            decommissioned=decommissioned,
            domestic=_parse_bool(row[6], "edges", row_num),
        )
        _check_edge_within_endpoints(record, nodes_by_id, row_num)
        records.append(record)
    return records


def _check_edge_within_endpoints(edge: EdgeRecord, nodes_by_id: dict[str, NodeRecord], row_num: int) -> None:
    """An edge may only be active while both endpoints are."""
    if edge.decommissioned is not None and edge.decommissioned <= edge.commissioned:
        return  # empty lifetime, never active
    for endpoint_id in (edge.node_a, edge.node_b):
        node = nodes_by_id[endpoint_id]
        if edge.commissioned < node.commissioned:
            raise GridLogError(
                f"edges row {row_num}: edge {edge.id!r} commissioned {edge.commissioned} "
                f"before endpoint {endpoint_id!r} ({node.commissioned})"
            )
        if node.decommissioned is not None and (
            edge.decommissioned is None or edge.decommissioned > node.decommissioned
        ):
            raise GridLogError(
                f"edges row {row_num}: edge {edge.id!r} outlives endpoint {endpoint_id!r} "
                f"(decommissioned {node.decommissioned})"
            )


def _merge_parallel(edges: list[EdgeRecord]) -> tuple[list[EdgeRecord], list[CircuitMerge]]:
    """Collapse same-pair records with overlapping lifetimes into one.

    The surviving record keeps the earliest commission, latest
    decommission (open end wins), highest voltage, and is domestic only
    when every constituent circuit is.  Records with empty lifetimes are
    never active and pass through untouched.
    """
    by_pair: dict[tuple[str, str], list[EdgeRecord]] = defaultdict(list)
    inert: list[EdgeRecord] = []
    for edge in edges:
        if edge.decommissioned is not None and edge.decommissioned <= edge.commissioned:
            inert.append(edge)
        else:
            by_pair[edge.endpoints].append(edge)

    merged: list[EdgeRecord] = list(inert)
    notes: list[CircuitMerge] = []

    def flush(cluster: list[EdgeRecord], end: int | None) -> None:
        if len(cluster) == 1:
            merged.append(cluster[0])
            return
        first = cluster[0]
        combined = replace(
            first,
            decommissioned=end,
            voltage_kv=max(e.voltage_kv for e in cluster),
            domestic=all(e.domestic for e in cluster),
        )
        merged.append(combined)
        notes.append(
            CircuitMerge(
                kept_id=first.id,
                merged_ids=tuple(e.id for e in cluster),
                node_a=first.endpoints[0],
                node_b=first.endpoints[1],
                commissioned=combined.commissioned,
                decommissioned=combined.decommissioned,
            )
        )

    for pair in sorted(by_pair):
        group = sorted(by_pair[pair], key=lambda e: (e.commissioned, e.id))
        cluster = [group[0]]
        end = group[0].decommissioned
        for edge in group[1:]:
            if end is None or edge.commissioned < end:
                cluster.append(edge)
                if end is not None:
                    end = None if edge.decommissioned is None else max(end, edge.decommissioned)
            else:
                flush(cluster, end)
                cluster = [edge]
                end = edge.decommissioned
        flush(cluster, end)

    merged.sort(key=lambda e: e.id)
    return merged, notes


def parse_log(nodes_source: str | TextIO, edges_source: str | TextIO) -> TemporalGridLog:
    """Parse and validate node/edge CSV content into a TemporalGridLog.

    Sources are CSV text (or open text streams) following the documented
    schemas.  Raises GridLogError naming the offending row on any
    malformed or inconsistent input.
    """
    nodes = _parse_nodes(nodes_source)
    nodes_by_id = {n.id: n for n in nodes}
    edges = _parse_edges(edges_source, nodes_by_id)
    merged, notes = _merge_parallel(edges)
    nodes.sort(key=lambda n: n.id)
    return TemporalGridLog(nodes=tuple(nodes), edges=tuple(merged), merges=tuple(notes))


def load_log(nodes_path: str | Path, edges_path: str | Path) -> TemporalGridLog:
    """Parse a log from nodes.csv / edges.csv files on disk (UTF-8, BOM allowed)."""
    with open(nodes_path, newline="", encoding="utf-8") as nodes_file:
        with open(edges_path, newline="", encoding="utf-8") as edges_file:
            return parse_log(nodes_file, edges_file)


def to_csv(log: TemporalGridLog) -> tuple[str, str]:
    """Emit the canonical (merged, sorted) log as (nodes_csv, edges_csv)."""
    nodes_out = io.StringIO()
    writer = csv.writer(nodes_out, lineterminator="\n")
    writer.writerow(NODES_COLUMNS)
    for n in log.nodes:
        writer.writerow(
            [
                n.id,
                n.name,
                n.kind,
                n.commissioned,
                "" if n.decommissioned is None else n.decommissioned,
                "true" if n.domestic else "false",
            ]
        )
    edges_out = io.StringIO()
    writer = csv.writer(edges_out, lineterminator="\n")
    writer.writerow(EDGES_COLUMNS)
    for e in log.edges:
        writer.writerow(
            [
                e.id,
                e.node_a,
                e.node_b,
                e.voltage_kv,
                e.commissioned,
                "" if e.decommissioned is None else e.decommissioned,
                "true" if e.domestic else "false",
            ]
        )
    return nodes_out.getvalue(), edges_out.getvalue()


# ---------------------------------------------------------------------------
# queries


def active_elements(log: TemporalGridLog, year: int) -> tuple[set[str], list[EdgeRecord]]:
    """Ids of the nodes and the edge records in service during ``year``.

    An edge counts only when both endpoints are also active.  Years
    outside the log's range simply yield nothing.
    """
    active_nodes = {n.id for n in log.nodes if n.active_in(year)}
    active_edges = [
        e for e in log.edges if e.active_in(year) and e.node_a in active_nodes and e.node_b in active_nodes
    ]
    return active_nodes, active_edges


def line_count_series(
    log: TemporalGridLog,
    voltages: Iterable[int],
    domestic_only: bool,
    years: Sequence[int],
) -> list[int]:
    """Per-year count of active lines at the given voltage levels."""
    wanted = set(voltages)
    if not wanted:
        raise GridLogError("voltage filter must not be empty")
    years = list(years)
    if not years:
        raise GridLogError("year range must not be empty")
    counts = []
    for year in years:
        _, edges = active_elements(log, year)
        counts.append(sum(1 for e in edges if e.voltage_kv in wanted and (e.domestic or not domestic_only)))
    return counts
