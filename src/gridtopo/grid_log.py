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
from bisect import bisect_right
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

NODE_KINDS = ("plant", "substation", "transformer")
NODES_COLUMNS = ("id", "name", "kind", "commissioned", "decommissioned", "domestic")
EDGES_COLUMNS = ("id", "node_a", "node_b", "voltage_kv", "commissioned", "decommissioned", "domestic")
_DOMESTIC = {"true": True, "false": False}


class GridLogError(ValueError):
    """Malformed or inconsistent grid-log data."""


class NodeRecord(NamedTuple):
    id: str
    name: str
    kind: str
    commissioned: int
    decommissioned: int | None
    domestic: bool


class EdgeRecord(NamedTuple):
    id: str
    node_a: str
    node_b: str
    voltage_kv: int
    commissioned: int
    decommissioned: int | None
    domestic: bool


class CircuitMerge(NamedTuple):
    """Note that parallel circuits were collapsed into one connection."""

    kept_id: str
    merged_ids: tuple[str, ...]
    node_a: str
    node_b: str
    commissioned: int
    decommissioned: int | None


class TemporalGridLog(NamedTuple):
    """Validated, immutable set of node and edge records.

    ``merges`` documents circuit merges performed at parse time; it is
    informational and excluded from equality and the hash.
    """

    nodes: tuple[NodeRecord, ...]
    edges: tuple[EdgeRecord, ...]
    merges: tuple[CircuitMerge, ...] = ()

    def __eq__(self, other):
        if not isinstance(other, TemporalGridLog):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __ne__(self, other):
        return not self == other

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))


# ---------------------------------------------------------------------------
# parsing
#
# Each table is read in one loop that unpacks a row once and checks its
# fields in a fixed order, so the first fault in the file is the one
# reported.  The header is row 1.  Blank rows are skipped; a row with the
# wrong field count, an empty id or an id seen before is an error, and a
# CSV syntax error names the row after the last one read.


def _table(source: str | TextIO, label: str, columns: tuple[str, ...]) -> Iterator[list[str]]:
    """CSV rows of one table after its checked header.

    Text is read with ``newline=""``, as ``load_log`` opens files, so a
    lone carriage return ends a row in both.  One leading byte-order mark
    (U+FEFF) is dropped, so BOM-prefixed text and files parse like the
    plain originals.
    """
    lines = iter(io.StringIO(source, newline="") if isinstance(source, str) else source)
    first = next(lines, "").removeprefix("\ufeff")
    reader = csv.reader(itertools.chain((first,), lines))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise GridLogError(f"{label} row 1: {exc}") from None
    if header is None or tuple(cell.strip() for cell in header) != columns:
        raise GridLogError(f"{label}: expected header {','.join(columns)!r}")
    return reader


def _skip_blank(row: list[str], label: str, row_num: int, width: int) -> None:
    """Return for a blank row; raise for a wrong field count or an empty id."""
    if any(cell.strip() for cell in row):
        if len(row) != width:
            raise GridLogError(f"{label} row {row_num}: expected {width} fields, got {len(row)}")
        raise GridLogError(f"{label} row {row_num}: empty id")


def _parse_nodes(source: str | TextIO) -> dict[str, NodeRecord]:
    """Node records by id, in file order."""
    by_id: dict[str, NodeRecord] = {}
    row_num = 1
    try:
        for row_num, row in enumerate(_table(source, "nodes", NODES_COLUMNS), start=2):
            if len(row) != 6 or not (node_id := row[0].strip()):
                _skip_blank(row, "nodes", row_num, 6)
                continue
            if node_id in by_id:
                raise GridLogError(f"nodes row {row_num}: duplicate node id {node_id!r}")
            _, name, kind, start, end, domestic = row
            kind = kind.strip()
            if kind not in NODE_KINDS:
                raise GridLogError(f"nodes row {row_num}: unknown kind {kind!r}")
            try:
                commissioned = int(start)
            except ValueError:
                raise GridLogError(f"nodes row {row_num}: invalid year {start!r}") from None
            decommissioned = None
            if end := end.strip():
                try:
                    decommissioned = int(end)
                except ValueError:
                    raise GridLogError(f"nodes row {row_num}: invalid year {end!r}") from None
                if decommissioned < commissioned:
                    raise GridLogError(
                        f"nodes row {row_num}: node {node_id!r} decommissioned {decommissioned} "
                        f"before commissioned {commissioned}"
                    )
            flag = _DOMESTIC.get(domestic.strip().lower())
            if flag is None:
                raise GridLogError(f"nodes row {row_num}: domestic must be true or false, got {domestic!r}")
            by_id[node_id] = NodeRecord(node_id, name.strip(), kind, commissioned, decommissioned, flag)
    except csv.Error as exc:
        raise GridLogError(f"nodes row {row_num + 1}: {exc}") from None
    except UnicodeDecodeError:  # no row number: text is decoded ahead of the row being read
        raise GridLogError("nodes: not valid UTF-8 text") from None
    return by_id


def _parse_edges(source: str | TextIO, nodes_by_id: dict[str, NodeRecord]) -> list[EdgeRecord]:
    """Edge records in file order; a live edge lies within both endpoints' lifetimes."""
    records: list[EdgeRecord] = []
    seen: set[str] = set()
    row_num = 1
    try:
        for row_num, row in enumerate(_table(source, "edges", EDGES_COLUMNS), start=2):
            if len(row) != 7 or not (edge_id := row[0].strip()):
                _skip_blank(row, "edges", row_num, 7)
                continue
            if edge_id in seen:
                raise GridLogError(f"edges row {row_num}: duplicate edge id {edge_id!r}")
            seen.add(edge_id)
            _, node_a, node_b, voltage, start, end, domestic = row
            node_a, node_b = node_a.strip(), node_b.strip()
            if (a := nodes_by_id.get(node_a)) is None:
                raise GridLogError(f"edges row {row_num}: unknown endpoint id {node_a!r}")
            if (b := nodes_by_id.get(node_b)) is None:
                raise GridLogError(f"edges row {row_num}: unknown endpoint id {node_b!r}")
            if node_a == node_b:
                raise GridLogError(f"edges row {row_num}: self-loop on {node_a!r}")
            try:
                voltage_kv = int(voltage)
            except ValueError:
                raise GridLogError(f"edges row {row_num}: invalid voltage {voltage!r}") from None
            if voltage_kv <= 0:
                raise GridLogError(f"edges row {row_num}: voltage must be positive, got {voltage_kv}")
            try:
                commissioned = int(start)
            except ValueError:
                raise GridLogError(f"edges row {row_num}: invalid year {start!r}") from None
            decommissioned = None
            if end := end.strip():
                try:
                    decommissioned = int(end)
                except ValueError:
                    raise GridLogError(f"edges row {row_num}: invalid year {end!r}") from None
                if decommissioned < commissioned:
                    raise GridLogError(
                        f"edges row {row_num}: edge {edge_id!r} decommissioned {decommissioned} "
                        f"before commissioned {commissioned}"
                    )
            flag = _DOMESTIC.get(domestic.strip().lower())
            if flag is None:
                raise GridLogError(f"edges row {row_num}: domestic must be true or false, got {domestic!r}")
            if decommissioned is None or decommissioned > commissioned:  # an empty lifetime is never active
                for endpoint_id, node in ((node_a, a), (node_b, b)):
                    if commissioned < node.commissioned:
                        raise GridLogError(
                            f"edges row {row_num}: edge {edge_id!r} commissioned {commissioned} "
                            f"before endpoint {endpoint_id!r} ({node.commissioned})"
                        )
                    if node.decommissioned is not None and (
                        decommissioned is None or decommissioned > node.decommissioned
                    ):
                        raise GridLogError(
                            f"edges row {row_num}: edge {edge_id!r} outlives endpoint {endpoint_id!r} "
                            f"(decommissioned {node.decommissioned})"
                        )
            records.append(EdgeRecord(edge_id, node_a, node_b, voltage_kv, commissioned, decommissioned, flag))
    except csv.Error as exc:
        raise GridLogError(f"edges row {row_num + 1}: {exc}") from None
    except UnicodeDecodeError:  # no row number: text is decoded ahead of the row being read
        raise GridLogError("edges: not valid UTF-8 text") from None
    return records


def _merge_parallel(edges: list[EdgeRecord]) -> tuple[list[EdgeRecord], list[CircuitMerge]]:
    """Collapse same-pair records with overlapping lifetimes into one.

    The surviving record keeps the earliest commission, latest
    decommission (open end wins), highest voltage, and is domestic only
    when every constituent circuit is.  Records with empty lifetimes are
    never active and pass through untouched, as do lone circuits.
    """
    merged: list[EdgeRecord] = []
    by_pair: dict[tuple[str, str], list[EdgeRecord]] = {}
    for edge in edges:
        _, node_a, node_b, _, commissioned, decommissioned, _ = edge
        if decommissioned is not None and decommissioned <= commissioned:
            merged.append(edge)
        else:
            by_pair.setdefault((node_a, node_b) if node_a <= node_b else (node_b, node_a), []).append(edge)
    notes: list[CircuitMerge] = []

    def flush(pair: tuple[str, str], cluster: list[EdgeRecord], end: int | None) -> None:
        if len(cluster) == 1:
            merged.append(cluster[0])
            return
        first = cluster[0]
        combined = first._replace(
            decommissioned=end,
            voltage_kv=max(e.voltage_kv for e in cluster),
            domestic=all(e.domestic for e in cluster),
        )
        merged.append(combined)
        notes.append(
            CircuitMerge(
                kept_id=first.id,
                merged_ids=tuple(e.id for e in cluster),
                node_a=pair[0],
                node_b=pair[1],
                commissioned=combined.commissioned,
                decommissioned=combined.decommissioned,
            )
        )

    for pair in sorted(pair for pair, group in by_pair.items() if len(group) > 1):
        group = sorted(by_pair[pair], key=attrgetter("commissioned", "id"))
        cluster = [group[0]]
        end = group[0].decommissioned
        for edge in group[1:]:
            if end is None or edge.commissioned < end:
                cluster.append(edge)
                if end is not None:
                    end = None if edge.decommissioned is None else max(end, edge.decommissioned)
            else:
                flush(pair, cluster, end)
                cluster = [edge]
                end = edge.decommissioned
        flush(pair, cluster, end)
    merged.extend(group[0] for group in by_pair.values() if len(group) == 1)
    merged.sort(key=attrgetter("id"))
    return merged, notes


def parse_log(nodes_source: str | TextIO, edges_source: str | TextIO) -> TemporalGridLog:
    """Parse and validate node/edge CSV content into a TemporalGridLog.

    Sources are CSV text (or open text streams) following the documented
    schemas.  Raises GridLogError naming the offending row on any
    malformed or inconsistent input.
    """
    nodes_by_id = _parse_nodes(nodes_source)
    merged, notes = _merge_parallel(_parse_edges(edges_source, nodes_by_id))
    nodes = tuple(nodes_by_id[node_id] for node_id in sorted(nodes_by_id))
    return TemporalGridLog(nodes=nodes, edges=tuple(merged), merges=tuple(notes))


def load_log(nodes_path: str | Path, edges_path: str | Path) -> TemporalGridLog:
    """Parse a log from nodes.csv / edges.csv files on disk (UTF-8, BOM allowed)."""
    with open(nodes_path, newline="", encoding="utf-8") as nodes_file:
        with open(edges_path, newline="", encoding="utf-8") as edges_file:
            return parse_log(nodes_file, edges_file)


# ---------------------------------------------------------------------------
# queries


def active_elements(log: TemporalGridLog, year: int) -> tuple[set[str], list[EdgeRecord]]:
    """Ids of the nodes and the edge records in service during ``year``.

    An edge counts only when both endpoints are also active.  Years
    outside the log's range simply yield nothing.
    """
    if len({n.id for n in log.nodes}) != len(log.nodes):
        raise GridLogError("duplicate node ids")
    active_nodes = {
        n.id
        for n in log.nodes
        if n.commissioned <= year and (n.decommissioned is None or year < n.decommissioned)
    }
    active_edges = [
        e
        for e in log.edges
        if e.commissioned <= year
        and (e.decommissioned is None or year < e.decommissioned)
        and e.node_a in active_nodes
        and e.node_b in active_nodes
    ]
    return active_nodes, active_edges


def _service_intervals(
    log: TemporalGridLog, edges: Iterable[EdgeRecord]
) -> Iterator[tuple[EdgeRecord, int, int | None]]:
    """Each of ``edges`` that is ever in service, with its service interval.

    The interval is the edge's own lifetime cut to both endpoints'
    lifetimes: ``(edge, start, end)`` means in service for the years
    start..end-1 (from start on when end is None), which are the years in
    which ``active_elements`` lists it.  An edge with an endpoint that is
    not in the log is never in service.
    """
    nodes = {n.id: n for n in log.nodes}
    if len(nodes) != len(log.nodes):
        raise GridLogError("duplicate node ids")
    for e in edges:
        a, b = nodes.get(e.node_a), nodes.get(e.node_b)
        if a is None or b is None:
            continue
        start = max(e.commissioned, a.commissioned, b.commissioned)
        end = e.decommissioned
        for other in (a.decommissioned, b.decommissioned):
            if other is not None and (end is None or other < end):
                end = other
        if end is None or start < end:
            yield e, start, end


def line_count_series(
    log: TemporalGridLog,
    voltages: Iterable[int],
    domestic_only: bool,
    years: Sequence[int],
) -> list[int]:
    """Per-year count of active lines at the given voltage levels.

    One pass over the edges: a matching line counts in the years of its
    service interval.
    """
    wanted = set(voltages)
    if not wanted:
        raise GridLogError("voltage filter must not be empty")
    years = list(years)
    if not years:
        raise GridLogError("year range must not be empty")
    matching = (e for e in log.edges if e.voltage_kv in wanted and (e.domestic or not domestic_only))
    starts: list[int] = []  # first year in service, per matching line
    ends: list[int] = []  # first year out of service, per matching line that has one
    for _, start, end in _service_intervals(log, matching):
        starts.append(start)
        if end is not None:
            ends.append(end)
    starts.sort()
    ends.sort()
    # a line that has ended by a year had started by then too
    return [bisect_right(starts, year) - bisect_right(ends, year) for year in years]
