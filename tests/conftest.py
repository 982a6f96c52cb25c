from __future__ import annotations

import functools
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from gridtopo import GraphSnapshot, TemporalGridLog, load_log
from gridtopo.data import expected_metrics_path, fixture_paths

BENCH_GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"


def random_graph(n: int, p: float, seed: int) -> GraphSnapshot:
    """Seeded test graph, sampled directly (not via the generators module)."""
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n - 1) for j in range(i + 1, n) if rng.random() < p]
    return GraphSnapshot(range(n), edges)


def clique_union(sizes) -> GraphSnapshot:
    """Disjoint union of complete graphs with the given sizes."""
    edges = []
    offset = 0
    for size in sizes:
        edges.extend((offset + i, offset + j) for i in range(size - 1) for j in range(i + 1, size))
        offset += size
    return GraphSnapshot(range(offset), edges)


@functools.lru_cache(maxsize=1)
def demo_log() -> TemporalGridLog:
    nodes, edges = fixture_paths()
    return load_log(nodes, edges)


@functools.cache
def churn_csv(seed: int) -> tuple[str, str]:
    """Nodes and edges CSV text of the benchmark's 400-node churn log."""
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses look their module up
    try:
        spec.loader.exec_module(gen)
    finally:
        del sys.modules[spec.name]
    return gen.to_csv(gen.generate(400, seed, churn=True))


@pytest.fixture(scope="session")
def fixture_log() -> TemporalGridLog:
    return demo_log()


@pytest.fixture(scope="session")
def fixture_csv_paths():
    return fixture_paths()


@pytest.fixture(scope="session")
def expected_table_path():
    return expected_metrics_path()
