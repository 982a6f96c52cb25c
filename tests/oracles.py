"""Independent reference implementations used to cross-check the library.

Nothing here may call the code paths it verifies: distances come from a
Floyd-Warshall relaxation over a numpy matrix, the LCC's distance sum and
diameter from one single-source BFS per node, components from
union-find, modularity from the literal double-loop formula, greedy
communities from a full rescan of every community pair per merge,
CCDF values from direct tail counting, CCDF fits from the numpy
Gauss-Newton iteration that the pure-Python fit replaced, and time series
from one full record per year, with no reuse of a repeated year's record.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from gridtopo.degree_fit import (
    MAX_ITERATIONS,
    MODELS,
    SSE_RELATIVE_TOLERANCE,
    FitNotConverged,
    FitResult,
)
from gridtopo.evolution import compute_metrics_record
from gridtopo.graphs import build_snapshot, connected_components, shortest_path_lengths


def floyd_warshall(snapshot) -> np.ndarray:
    """All-pairs hop distances by exhaustive relaxation (inf = unreachable)."""
    n = snapshot.num_nodes
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, j in snapshot.edges():
        dist[i, j] = dist[j, i] = 1.0
    for k in range(n):
        np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
    return dist


def reference_path_stats(snapshot):
    """``path_stats`` by one single-source BFS per node of the largest component."""
    parts = connected_components(snapshot)
    members = sorted(parts.largest)
    total = 0
    longest = 0
    for source in members:
        dist = shortest_path_lengths(snapshot, source)
        for target in members:
            d = dist[target]
            total += d
            if d > longest:
                longest = d
    return parts, total, longest


def reference_timeseries(log, years, seed):
    """``compute_timeseries`` records, each year computed from its own snapshot."""
    return tuple(compute_metrics_record(build_snapshot(log, year), seed) for year in years)


def union_find_components(snapshot) -> list[frozenset[int]]:
    """Connected components via union-find, largest first then min index."""
    parent = list(range(snapshot.num_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in snapshot.edges():
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    groups: dict[int, set[int]] = {}
    for node in range(snapshot.num_nodes):
        groups.setdefault(find(node), set()).add(node)
    return sorted(
        (frozenset(g) for g in groups.values()), key=lambda g: (-len(g), min(g))
    )


def brute_modularity(snapshot, membership) -> float:
    """Literal ordered-pair double loop, including i == j terms."""
    n = snapshot.num_nodes
    two_e = 2.0 * snapshot.num_edges
    degrees = snapshot.degrees()
    q = 0.0
    for i in range(n):
        for j in range(n):
            if membership[i] == membership[j]:
                a_ij = 1.0 if snapshot.has_edge(i, j) else 0.0
                q += a_ij - degrees[i] * degrees[j] / two_e
    return q / two_e


def reference_greedy_pass(snapshot, initial_ids) -> tuple[int, ...]:
    """Greedy agglomerative pass that rescans and sorts all pairs per merge.

    Merges the connected pair with the largest gain, ties toward the
    smallest (a, b), relabels every node on each merge, and stops when no
    gain is positive.  Labels are compacted 0..k-1 by smallest node index.
    """
    two_e = 2.0 * snapshot.num_edges
    community_of = list(initial_ids)
    degree_sum: dict[int, int] = defaultdict(int)
    for node in range(snapshot.num_nodes):
        degree_sum[community_of[node]] += snapshot.degree(node)
    between: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for i, j in snapshot.edges():
        a, b = community_of[i], community_of[j]
        if a != b:
            between[a][b] += 1
            between[b][a] += 1

    while True:
        best_gain = 0.0
        best_pair: tuple[int, int] | None = None
        for a in sorted(between):
            for b in sorted(between[a]):
                if b <= a:
                    continue
                gain = 2.0 * (between[a][b] / two_e - degree_sum[a] * degree_sum[b] / (two_e * two_e))
                if gain > best_gain or (
                    best_pair is not None and gain == best_gain and (a, b) < best_pair
                ):
                    best_gain = gain
                    best_pair = (a, b)
        if best_pair is None:
            break
        a, b = best_pair
        for node in range(snapshot.num_nodes):
            if community_of[node] == b:
                community_of[node] = a
        degree_sum[a] += degree_sum.pop(b)
        for c, weight in between.pop(b).items():
            if c == a:
                continue
            between[a][c] += weight
            between[c][a] = between[a][c]
            del between[c][b]
        between[a].pop(b, None)
        if not between[a]:
            del between[a]

    relabel: dict[int, int] = {}
    for node in range(snapshot.num_nodes):
        relabel.setdefault(community_of[node], len(relabel))
    return tuple(relabel[community_of[node]] for node in range(snapshot.num_nodes))


def tail_probability(degrees, k: int) -> float:
    """Fraction of non-isolated nodes with degree >= k, by direct count."""
    base = [d for d in degrees if d >= 1]
    return sum(1 for d in base if d >= k) / len(base)


def _reference_points(ccdf) -> tuple[np.ndarray, np.ndarray]:
    points = sorted(ccdf.points)
    if len(points) < 3:
        raise ValueError("insufficient points: need at least 3 distinct degrees")
    ks = [k for k, _ in points]
    if len(set(ks)) != len(ks):
        raise ValueError("duplicate degree in ccdf points")
    k = np.array(ks, dtype=float)
    p = np.array([pv for _, pv in points], dtype=float)
    if np.any(k < 1) or np.any(p <= 0):
        raise ValueError("ccdf points must have degree >= 1 and p > 0")
    return k, p


def _reference_guess(k: np.ndarray, p: np.ndarray, model: str) -> tuple[float, float]:
    x = np.log(k) if model == "power_law" else k
    y = np.log(p)
    x_mean, y_mean = x.mean(), y.mean()
    denom = float(np.sum((x - x_mean) ** 2))
    if denom == 0.0:
        raise ValueError("cannot form initial guess: degenerate degree values")
    slope = float(np.sum((x - x_mean) * (y - y_mean))) / denom
    if slope >= 0.0:
        raise ValueError("cannot form initial guess: distribution is not decreasing")
    intercept = y_mean - slope * x_mean
    a0 = float(np.exp(intercept))
    shape0 = -slope if model == "power_law" else -1.0 / slope
    return a0, float(shape0)


def reference_start(ccdf, model: str) -> tuple[float, float]:
    """Starting (a, shape) of ``reference_fit_model``."""
    return _reference_guess(*_reference_points(ccdf), model)


def reference_predict(k: np.ndarray, a: float, shape: float, model: str) -> np.ndarray:
    if model == "power_law":
        return a * k ** (-shape)
    return a * np.exp(-k / shape)


def _reference_jacobian(k: np.ndarray, a: float, shape: float, model: str) -> np.ndarray:
    if model == "power_law":
        base = k ** (-shape)
        return np.column_stack([base, -a * np.log(k) * base])
    base = np.exp(-k / shape)
    return np.column_stack([base, a * k / (shape * shape) * base])


def reference_fit_model(ccdf, model: str) -> FitResult:
    """Damped Gauss-Newton over numpy arrays with an ``np.linalg.solve`` step.

    Same starting point, damping schedule and stopping rule as the library;
    a non-finite starting amplitude is not rejected here (numpy warns and
    carries inf/nan through to the result).
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    k, p = _reference_points(ccdf)
    a, shape = _reference_guess(k, p, model)

    def sse_of(av: float, sv: float) -> float:
        residual = reference_predict(k, av, sv, model) - p
        return float(residual @ residual)

    sse = sse_of(a, shape)
    damping = 1e-3
    converged = sse == 0.0
    iterations = 0
    while not converged and iterations < MAX_ITERATIONS:
        iterations += 1
        residual = reference_predict(k, a, shape, model) - p
        jac = _reference_jacobian(k, a, shape, model)
        gradient = jac.T @ residual
        hessian = jac.T @ jac
        stepped = False
        while damping <= 1e12:
            lhs = hessian + damping * np.diag(np.diag(hessian))
            try:
                delta = np.linalg.solve(lhs, -gradient)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            cand_a, cand_shape = a + float(delta[0]), shape + float(delta[1])
            if cand_shape <= 0.0 or not np.isfinite(cand_a) or not np.isfinite(cand_shape):
                damping *= 10.0
                continue
            cand_sse = sse_of(cand_a, cand_shape)
            if cand_sse <= sse:
                relative_drop = (sse - cand_sse) / sse if sse > 0 else 0.0
                a, shape, sse = cand_a, cand_shape, cand_sse
                damping = max(damping / 10.0, 1e-12)
                if relative_drop < SSE_RELATIVE_TOLERANCE or sse == 0.0:
                    converged = True
                stepped = True
                break
            damping *= 10.0
        if not stepped:
            # no downhill step exists at any damping: stationary point
            converged = True

    total = float(np.sum((p - p.mean()) ** 2))
    r_squared = 1.0 - sse / total if total > 0 else 1.0
    result = FitResult(model, a, shape, sse, r_squared)
    if not converged:
        raise FitNotConverged(
            f"{model} fit did not converge in {MAX_ITERATIONS} iterations (sse={sse:.6g})", result
        )
    return result
