"""Correctness checks for the CLI's outputs.

Every expected value is recomputed with networkx on the generator's own
graphs (see ``gen.snapshot``), never with the program's code.  networkx is
needed by the benchmark only; the program does not depend on it.  Each
check returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import json
import math
import statistics

import networkx as nx

import gen

COLUMNS = ("year", "N", "E", "avg_degree", "diameter", "L", "C", "L_r", "C_r", "sigma", "Q",
           "components", "lcc_size")
EULER_GAMMA_TRUNCATED = 0.5772  # the random-baseline formula's constant
FULL_PRECISION = 1e-9  # values printed with repr
SIX_DIGITS = 1e-5  # CSV cells printed with 6 significant digits


def _graph(log: gen.GridLog, year: int) -> nx.Graph:
    node_ids, pairs = gen.snapshot(log, year)
    graph = nx.Graph()
    graph.add_nodes_from(node_ids)
    graph.add_edges_from(pairs)
    return graph


def expected_record(log: gen.GridLog, year: int) -> dict:
    """The columns networkx can reproduce (all but Q) for one year; None is NA."""
    graph = _graph(log, year)
    n, e = graph.number_of_nodes(), graph.number_of_edges()
    parts = list(nx.connected_components(graph))
    lcc = max(parts, key=len) if parts else set()
    avg_k = 2 * e / n if n else None
    path_length = diameter = None
    if len(lcc) >= 2:
        total = 0
        diameter = 0
        for _, dist in nx.all_pairs_shortest_path_length(graph.subgraph(lcc).copy()):
            total += sum(dist.values())
            diameter = max(diameter, max(dist.values()))
        path_length = total / (len(lcc) * (len(lcc) - 1))
    clustering = nx.average_clustering(graph) if n else None
    l_r = c_r = sigma = None
    if n >= 2 and avg_k > 1:
        l_r = (math.log(n) - EULER_GAMMA_TRUNCATED) / math.log(avg_k) + 0.5
        c_r = avg_k / n
        if path_length is not None:
            sigma = (clustering / c_r) / (path_length / l_r)
    return {"year": year, "N": n, "E": e, "avg_degree": avg_k, "diameter": diameter,
            "L": path_length, "C": clustering, "L_r": l_r, "C_r": c_r, "sigma": sigma,
            "components": len(parts), "lcc_size": len(lcc)}


def _same(got, want, rel: float) -> bool:
    if want is None or got is None:
        return got is None and want is None
    if isinstance(want, int):
        return got == want
    return math.isclose(got, want, rel_tol=rel, abs_tol=1e-12)


def check_record(got: dict, want: dict, rel: float) -> list[str]:
    problems = [
        f"year {want['year']}: {key}={got.get(key)!r}, expected {want[key]!r}"
        for key in want
        if not _same(got.get(key), want[key], rel)
    ]
    q = got.get("Q")
    if want["E"] >= 1 and not (isinstance(q, (int, float)) and -0.5 <= q < 1):
        problems.append(f"year {want['year']}: Q={q!r} outside [-0.5, 1)")
    return problems


def _cell(text: str):
    if text == "NA":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def check_timeseries(log: gen.GridLog, years, stdout: bytes) -> list[str]:
    lines = stdout.decode().splitlines()
    if not lines or tuple(lines[0].split(",")) != COLUMNS:
        return [f"unexpected header {lines[:1]!r}"]
    rows = [dict(zip(COLUMNS, map(_cell, line.split(",")))) for line in lines[1:]]
    if [row["year"] for row in rows] != list(years):
        return ["rows do not cover the requested years"]
    problems = []
    for row in rows:
        problems += check_record(row, expected_record(log, row["year"]), SIX_DIGITS)
    return problems


def check_snapshot(log: gen.GridLog, year: int, stdout: bytes) -> list[str]:
    record = json.loads(stdout)
    if tuple(record) != COLUMNS:
        return [f"unexpected keys {list(record)!r}"]
    return check_record(record, expected_record(log, year), FULL_PRECISION)


def check_correlate(log: gen.GridLog, voltages, domestic_only: bool, years, stdout: bytes,
                    series_csv: bytes) -> list[str]:
    """sigma per year against networkx, line counts against the routes, r from the pairs."""
    report = dict(line.split("=", 1) for line in stdout.decode().splitlines())
    lines = series_csv.decode().splitlines()
    if lines[:1] != ["year,sigma,line_count"]:
        return [f"unexpected series header {lines[:1]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    used = [int(year) for year, _, _ in rows]
    sigmas = [float(value) for _, value, _ in rows]
    counts = [int(count) for _, _, count in rows]
    problems = []
    expected_sigma = {year: expected_record(log, year)["sigma"] for year in years}
    dropped = [year for year in years if expected_sigma[year] is None]
    if used != [year for year in years if expected_sigma[year] is not None]:
        problems.append("paired years differ from the years with a defined sigma")
    if report.get("dropped_years") != ",".join(map(str, dropped)):
        problems.append(f"dropped_years={report.get('dropped_years')!r}, expected {dropped!r}")
    if report.get("years_used") != str(len(used)):
        problems.append(f"years_used={report.get('years_used')!r}, expected {len(used)}")
    want_counts = dict(zip(years, gen.line_counts(log, voltages, domestic_only, years)))
    for year, sigma, count in zip(used, sigmas, counts):
        if not _same(sigma, expected_sigma.get(year), FULL_PRECISION):
            problems.append(f"year {year}: sigma={sigma!r}, expected {expected_sigma.get(year)!r}")
        if count != want_counts.get(year):
            problems.append(f"year {year}: line_count={count}, expected {want_counts.get(year)}")
    r = statistics.correlation(sigmas, counts) if len(used) >= 2 else None
    if r is None or not math.isclose(float(report.get("r", "nan")), r, abs_tol=FULL_PRECISION):
        problems.append(f"r={report.get('r')!r}, recomputed {r!r}")
    return problems


def ccdf(log: gen.GridLog, year: int) -> list[tuple[int, float]]:
    """(k, share of non-isolated nodes with degree >= k) by direct counting."""
    degrees = [k for _, k in _graph(log, year).degree() if k >= 1]
    return [(k, sum(d >= k for d in degrees) / len(degrees)) for k in sorted(set(degrees))]


def _model(k: int, a: float, shape: float, family: str) -> float:
    return a * k ** -shape if family == "power_law" else a * math.exp(-k / shape)


def check_fit(log: gen.GridLog, year: int, stdout: bytes) -> list[str]:
    """SSE and R^2 recomputed from the returned (a, shape) on a directly counted CCDF."""
    payload = json.loads(stdout)
    points = ccdf(log, year)
    mean_p = sum(p for _, p in points) / len(points)
    total = sum((p - mean_p) ** 2 for _, p in points)
    problems = []
    for family in ("power_law", "exponential"):
        fit = payload[family]
        sse = sum((_model(k, fit["a"], fit["gamma_or_kappa"], family) - p) ** 2 for k, p in points)
        if not math.isclose(fit["sse"], sse, rel_tol=FULL_PRECISION, abs_tol=1e-15):
            problems.append(f"year {year}: {family} sse={fit['sse']!r}, recomputed {sse!r}")
        if not math.isclose(fit["r_squared"], 1 - sse / total, rel_tol=FULL_PRECISION):
            problems.append(f"year {year}: {family} r_squared={fit['r_squared']!r}")
    power, expon = payload["power_law"]["sse"], payload["exponential"]["sse"]
    preferred = "power_law" if power < expon else "exponential" if expon < power else "tie"
    if payload["preferred"] != preferred:
        problems.append(f"year {year}: preferred={payload['preferred']!r}, expected {preferred!r}")
    return problems
