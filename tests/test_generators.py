from __future__ import annotations

import math
import statistics

import pytest

from gridtopo.generators import (
    GeneratorSpec,
    barabasi_albert,
    erdos_renyi,
    generate,
    watts_strogatz,
)
from gridtopo.metrics import clustering_coefficient

import properties


def test_er_extreme_probabilities():
    assert erdos_renyi(30, 0.0, 1).num_edges == 0
    assert erdos_renyi(30, 1.0, 1).num_edges == 30 * 29 // 2


def test_er_edge_count_matches_binomial_moments():
    n, p = 200, 0.05
    pairs = n * (n - 1) / 2
    counts = [erdos_renyi(n, p, seed).num_edges for seed in range(100)]
    mean = statistics.fmean(counts)
    std_of_mean = math.sqrt(pairs * p * (1 - p)) / math.sqrt(len(counts))
    assert abs(mean - pairs * p) < 3 * std_of_mean


def test_ws_ring_lattice_clustering_closed_form():
    # C = 3(k-2)/(4(k-1)) for the unrewired ring lattice
    for k in (4, 6):
        snap = watts_strogatz(20, k, 0.0, 1)
        c = clustering_coefficient(snap)
        assert c == pytest.approx(3 * (k - 2) / (4 * (k - 1)), rel=1e-12)
    # hand check at k=4: each node's 4 neighbours share 3 edges -> 0.5
    assert clustering_coefficient(watts_strogatz(20, 4, 0.0, 1)) == 0.5


def test_ws_ring_lattice_is_regular():
    snap = watts_strogatz(25, 6, 0.0, 3)
    assert set(snap.degrees()) == {6}


def test_ws_preserves_edge_count_under_rewiring():
    for p in (0.0, 0.1, 0.5, 1.0):
        snap = watts_strogatz(40, 4, p, 11)
        assert snap.num_edges == 40 * 4 // 2


def test_ba_every_node_has_min_degree():
    snap = barabasi_albert(150, 3, 9)
    assert min(snap.degrees()) >= 3


def test_ba_edge_count_formula():
    assert barabasi_albert(100, 2, 4).num_edges == 3 + 2 * 97  # 197


def test_ba_heavy_tail_signature():
    for seed in range(20):
        snap = barabasi_albert(5000, 2, seed)
        assert max(snap.degrees()) > 10 * 2, seed


def test_generate_dispatch_and_validation():
    snap = generate(GeneratorSpec(kind="erdos_renyi", n=10, p=0.5, seed=1))
    assert snap.num_nodes == 10
    assert generate(GeneratorSpec(kind="watts_strogatz", n=10, k=4, p=0.1, seed=1)).num_edges == 20
    assert generate(GeneratorSpec(kind="barabasi_albert", n=10, m=2, seed=1)).num_nodes == 10
    with pytest.raises(ValueError):
        generate(GeneratorSpec(kind="erdos_renyi", n=10))  # missing p
    with pytest.raises(ValueError):
        generate(GeneratorSpec(kind="mystery", n=10, p=0.5))


@pytest.mark.parametrize(
    "call",
    [
        lambda: erdos_renyi(2, 0.5, 1),
        lambda: erdos_renyi(10, 1.5, 1),
        lambda: watts_strogatz(10, 3, 0.1, 1),
        lambda: watts_strogatz(10, 10, 0.1, 1),
        lambda: watts_strogatz(10, 4, -0.2, 1),
        lambda: barabasi_albert(10, 0, 1),
        lambda: barabasi_albert(10, 10, 1),
    ],
)
def test_invalid_specs_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_invariant_determinism():
    properties.check_generator_determinism()


def test_invariant_simple_graph_outputs():
    properties.check_generator_outputs_are_simple()


def test_invariant_ws_small_world_regime():
    properties.check_ws_small_world_regime()


def test_invariant_er_clustering_baseline():
    properties.check_er_clustering_near_baseline()
