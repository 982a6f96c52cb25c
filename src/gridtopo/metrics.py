"""Per-snapshot network metrics: degrees, paths, clustering, and their record.

Conventions used throughout:

* average degree <k> = 2E/N
* average path length L = mean hop distance over ordered connected pairs,
  restricted to the largest connected component (the all-pairs mean is
  undefined across components)
* clustering C = mean over all nodes of 2*E_i / (k_i*(k_i-1)), where E_i
  counts edges among node i's neighbours; nodes with degree < 2 contribute 0
* random-graph baselines: L_r = (ln N - 0.5772)/ln<k> + 0.5 and C_r = <k>/N
* small-world coefficient sigma = (C/C_r) / (L/L_r), small-world iff > 1
* modularity Q as the communities module defines it
* a metric undefined on a snapshot (too small, disconnected, edgeless) is
  None in its record rather than a silent zero; CSV output renders it as NA
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .graphs import ComponentPartition, GraphSnapshot, connected_components

# truncated Euler-Mascheroni constant, kept at 4 decimals on purpose: the
# random-baseline formula is defined with exactly this value
EULER_GAMMA_TRUNCATED = 0.5772
# sources per bit-parallel BFS sweep; memory is O(N * SOURCE_BLOCK) bits
SOURCE_BLOCK = 4096


class DegreeStats(NamedTuple):
    degrees: tuple[int, ...]
    average: float
    histogram: tuple[int, ...]  # counts indexed by degree 0..max


class MetricsRecord(NamedTuple):
    """One year's full metric row."""

    year: int
    num_nodes: int
    num_edges: int
    avg_degree: float | None
    diameter: int | None
    avg_path_length: float | None
    clustering: float | None
    random_path_length: float | None
    random_clustering: float | None
    sigma: float | None
    modularity_q: float | None
    component_count: int
    largest_component_size: int

    def as_dict(self) -> dict:
        return dict(zip(METRICS_CSV_COLUMNS, self))

    def to_json(self) -> str:
        """The indented JSON object that ``snapshot --format json`` prints."""
        import json

        return json.dumps(self.as_dict(), indent=2) + "\n"


METRICS_CSV_COLUMNS = (
    "year",
    "N",
    "E",
    "avg_degree",
    "diameter",
    "L",
    "C",
    "L_r",
    "C_r",
    "sigma",
    "Q",
    "components",
    "lcc_size",
)
METRICS_CSV_HEADER = ",".join(METRICS_CSV_COLUMNS)
_RECORD_FIELDS = dict(zip(METRICS_CSV_COLUMNS, MetricsRecord._fields, strict=True))


def record_field(column: str) -> str:
    """The MetricsRecord field behind a CSV column name."""
    try:
        return _RECORD_FIELDS[column]
    except KeyError:
        raise ValueError(f"unknown metric {column!r}") from None


def records_to_csv(records: Iterable[MetricsRecord]) -> str:
    """The CSV header line, then one row per record."""
    lines = [METRICS_CSV_HEADER]
    lines.extend(",".join(format_metric_value(v) for v in record) for record in records)
    return "\n".join(lines) + "\n"


def records_to_json(records: Iterable[MetricsRecord]) -> str:
    """The indented JSON array, one object per record, that ``timeseries --format json`` prints."""
    import json

    return json.dumps([record.as_dict() for record in records], indent=2) + "\n"


def format_metric_value(value) -> str:
    """CSV cell formatting: NA for absent, 6 significant digits for floats."""
    if value is None:
        return "NA"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def compute_metrics_record(snapshot: GraphSnapshot, *, modularity: bool = True) -> MetricsRecord:
    """Full metric row for one snapshot; undefined metrics become None.

    ``modularity=False`` skips community detection and leaves Q None, for
    callers that read no Q.
    """
    if snapshot.year is None:
        raise ValueError("snapshot carries no year")
    n = snapshot.num_nodes
    e = snapshot.num_edges
    parts, distance_sum, longest = path_stats(snapshot)

    avg_degree = 2 * e / n if n > 0 else None
    clustering = clustering_coefficient(snapshot) if n > 0 else None
    path_length = _mean_distance(parts, distance_sum)
    diam = longest if path_length is not None else None
    random_l = random_c = None
    if n >= 2 and avg_degree is not None and avg_degree > 1:
        random_l, random_c = random_baselines(n, avg_degree)
    sigma = None
    if clustering is not None and path_length is not None and random_c is not None:
        sigma = small_world_sigma(clustering, random_c, path_length, random_l)[0]
    q = None
    if modularity and e >= 1:
        from .communities import detect_communities  # here, so a record without Q never loads communities

        q = detect_communities(snapshot).achieved_q

    return MetricsRecord(
        year=snapshot.year,
        num_nodes=n,
        num_edges=e,
        avg_degree=avg_degree,
        diameter=diam,
        avg_path_length=path_length,
        clustering=clustering,
        random_path_length=random_l,
        random_clustering=random_c,
        sigma=sigma,
        modularity_q=q,
        component_count=parts.num_components,
        largest_component_size=len(parts.largest),
    )


def degree_stats(snapshot: GraphSnapshot) -> DegreeStats:
    """Per-node degrees, the exact average 2E/N, and a degree histogram."""
    n = snapshot.num_nodes
    if n == 0:
        raise ValueError("degree statistics undefined: graph has no nodes")
    degrees = snapshot.degrees()
    histogram = [0] * (max(degrees) + 1)
    for k in degrees:
        histogram[k] += 1
    return DegreeStats(degrees, 2 * snapshot.num_edges / n, tuple(histogram))


def path_stats(snapshot: GraphSnapshot) -> tuple[ComponentPartition, int, int]:
    """Components, then the ordered-pair distance sum and the diameter of the LCC.

    One components pass and one bit-parallel multi-source BFS over the LCC.
    """
    # MS-BFS: Then et al., "The More the Merrier: Efficient Multi-Source Graph Traversal", VLDB 2014
    parts = connected_components(snapshot)
    members = sorted(parts.largest)
    n = snapshot.num_nodes
    neighbors = [snapshot.neighbors(i) for i in range(n)]
    total = 0
    longest = 0
    for start in range(0, len(members), SOURCE_BLOCK):
        # bit b stands for source members[start + b]; unseen[v] holds the
        # sources that have not reached v yet, frontier the (v, sources) that
        # reached v at the last level
        block = members[start : start + SOURCE_BLOCK]
        frontier = [(v, 1 << b) for b, v in enumerate(block)]
        unseen = [(1 << len(block)) - 1] * n
        for v, bit in frontier:
            unseen[v] ^= bit
        level = 0
        while frontier:
            level += 1
            reached = [0] * n
            for u, bits in frontier:
                for v in neighbors[u]:
                    reached[v] |= bits
            frontier = []
            count = 0
            for v in members:
                new = reached[v] & unseen[v]
                if new:
                    unseen[v] ^= new
                    frontier.append((v, new))
                    count += new.bit_count()
            if count:
                total += level * count
                longest = max(longest, level)
    return parts, total, longest


def _mean_distance(parts: ComponentPartition, distance_sum: int) -> float | None:
    """L from the LCC's ordered-pair distance sum; None below 2 LCC nodes."""
    size = len(parts.largest)
    return distance_sum / (size * (size - 1)) if size >= 2 else None


_PATHS_UNDEFINED = "path metrics undefined: largest component has fewer than 2 nodes"


def average_path_length(snapshot: GraphSnapshot) -> float:
    """Mean hop distance over ordered pairs of the largest component."""
    parts, total, _ = path_stats(snapshot)
    mean = _mean_distance(parts, total)
    if mean is None:
        raise ValueError(_PATHS_UNDEFINED)
    return mean


def diameter(snapshot: GraphSnapshot) -> int:
    """Longest shortest path within the largest component."""
    parts, _, longest = path_stats(snapshot)
    if len(parts.largest) < 2:
        raise ValueError(_PATHS_UNDEFINED)
    return longest


def clustering_coefficient(snapshot: GraphSnapshot) -> float:
    """Mean local clustering over all nodes."""
    n = snapshot.num_nodes
    if n == 0:
        raise ValueError("clustering undefined: graph has no nodes")
    total = 0.0
    for i in range(n):
        nbrs = snapshot.neighbors(i)
        k = len(nbrs)
        if k < 2:
            continue  # contributes 0 to the mean
        nbr_set = set(nbrs)
        links = 0
        for a in nbrs:
            links += len(nbr_set.intersection(snapshot.neighbors(a)))
        links //= 2  # each link among the neighbours is seen from both of its ends
        total += 2 * links / (k * (k - 1))
    return total / n


def random_baselines(num_nodes: int, avg_degree: float) -> tuple[float, float]:
    """Random-graph reference values (L_r, C_r) for a graph of this size."""
    if num_nodes < 2:
        raise ValueError("random baseline undefined: need at least 2 nodes")
    if avg_degree <= 1:
        raise ValueError("random baseline undefined: average degree must exceed 1")
    l_r = (math.log(num_nodes) - EULER_GAMMA_TRUNCATED) / math.log(avg_degree) + 0.5
    c_r = avg_degree / num_nodes
    return l_r, c_r


def small_world_sigma(
    clustering: float,
    random_clustering: float,
    path_length: float,
    random_path_length: float,
) -> tuple[float, bool]:
    """Small-world coefficient and the sigma > 1 classification."""
    if clustering < 0:
        raise ValueError("clustering must be non-negative")
    if random_clustering <= 0 or path_length <= 0 or random_path_length <= 0:
        raise ValueError("baselines and path length must be positive")
    sigma = (clustering / random_clustering) / (path_length / random_path_length)
    return sigma, sigma > 1
