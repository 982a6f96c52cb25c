from __future__ import annotations

import csv
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtopo.cli import main
from gridtopo.communities import _greedy_pass, assignment_to_csv, detect_communities, modularity
from gridtopo.generators import barabasi_albert, erdos_renyi, watts_strogatz
from gridtopo.graphs import GraphSnapshot, build_snapshot
from gridtopo.grid_log import parse_log

import properties
from conftest import bench_log_csv, clique_union, random_graph
from oracles import exhaustive_best_partition, reference_greedy_pass, reference_heap_greedy_pass


def test_two_triangles_recovered_as_communities():
    snap = clique_union([3, 3])
    assignment = detect_communities(snap, seed=1)
    assert assignment.membership == (0, 0, 0, 1, 1, 1)
    assert assignment.achieved_q == 0.5


def test_complete_graph_stays_single_community():
    assignment = detect_communities(clique_union([5]), seed=1)
    assert assignment.num_communities == 1
    assert assignment.achieved_q == 0.0


def test_achieved_q_equals_modularity_exactly():
    for i in range(10):
        snap = random_graph(5 + i, 0.35, 60 + i)
        if snap.num_edges == 0:
            continue
        assignment = detect_communities(snap, seed=3)
        assert assignment.achieved_q == modularity(snap, assignment.membership)


def test_greedy_never_beats_exhaustive_on_small_graphs():
    checked = 0
    for i in range(25):
        snap = random_graph(3 + (i % 6), 0.4, 150 + i)
        if snap.num_edges == 0:
            continue
        greedy = detect_communities(snap, seed=1)
        best = exhaustive_best_partition(snap)
        assert greedy.achieved_q <= best.achieved_q + 1e-12, i
        checked += 1
    assert checked >= 15


def test_exhaustive_two_triangles():
    best = exhaustive_best_partition(clique_union([3, 3]))
    assert best.membership == (0, 0, 0, 1, 1, 1)
    assert best.achieved_q == 0.5


def test_exhaustive_single_edge_prefers_single_community():
    snap = GraphSnapshot(range(2), [(0, 1)])
    best = exhaustive_best_partition(snap)
    assert best.membership == (0, 0)
    assert best.achieved_q == 0.0
    # the only other partition scores -0.5
    assert modularity(snap, (0, 1)) == -0.5


def test_exhaustive_triangle_single_community():
    best = exhaustive_best_partition(clique_union([3]))
    assert best.num_communities == 1


def test_exhaustive_guard():
    with pytest.raises(ValueError, match="refused"):
        exhaustive_best_partition(clique_union([13]))


def test_empty_graph_rejected():
    edgeless = GraphSnapshot(range(4), [])
    with pytest.raises(ValueError, match="no edges"):
        detect_communities(edgeless)
    with pytest.raises(ValueError, match="no edges"):
        exhaustive_best_partition(edgeless)
    with pytest.raises(ValueError):
        detect_communities(clique_union([3]), restarts=0)


def test_restarts_never_lower_quality():
    for i in range(8):
        snap = random_graph(10, 0.3, 500 + i)
        if snap.num_edges == 0:
            continue
        base = detect_communities(snap, seed=7)
        more = detect_communities(snap, seed=7, restarts=5)
        assert more.achieved_q >= base.achieved_q


def test_assignment_csv_export():
    snap = GraphSnapshot(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])
    assignment = detect_communities(snap, seed=1)
    text = assignment_to_csv(snap, assignment)
    assert text.splitlines()[0] == "node_id,community_id"
    assert text.splitlines()[1:] == ["x,0", "y,0", "z,0"]


def test_assignment_csv_quotes_ids_that_csv_reads_back(tmp_path, capsys):
    ids = ["Sub, North", 'say "B"', "two\nlines", "lone\rcr", "crlf\r\nid", "plain"]
    quoted = ['"' + i.replace('"', '""') + '"' for i in ids]
    nodes = "id,name,kind,commissioned,decommissioned,domestic\n" + "".join(
        f"{q},n,substation,1950,,true\n" for q in quoted
    )
    edges = "id,node_a,node_b,voltage_kv,commissioned,decommissioned,domestic\n" + "".join(
        f"e{k},{q},plain,220,1950,,true\n" for k, q in enumerate(quoted[:-1])
    )
    snap = build_snapshot(parse_log(nodes, edges), 1960)
    assert sorted(snap.labels) == sorted(ids)
    rows = list(csv.reader(io.StringIO(assignment_to_csv(snap, detect_communities(snap)), newline="")))
    assert rows[0] == ["node_id", "community_id"]
    assert [row[0] for row in rows[1:]] == list(snap.labels)
    assert all(len(row) == 2 for row in rows)
    # through the CLI: the plain id keeps its bytes, the one with a comma is quoted
    (tmp_path / "nodes.csv").write_text(nodes, newline="")
    (tmp_path / "edges.csv").write_text(edges, newline="")
    argv = ["communities", "--nodes", str(tmp_path / "nodes.csv"), "--edges", str(tmp_path / "edges.csv")]
    assert main([*argv, "--year", "1960"]) == 0
    out = capsys.readouterr().out
    assert '\n"Sub, North",0\n' in out and "\nplain,0\n" in out


def test_invariant_detection_deterministic():
    properties.check_detection_deterministic()


def test_invariant_merge_local_optimum():
    properties.check_greedy_stops_at_merge_local_optimum()


def test_invariant_clique_union_recovery():
    properties.check_clique_union_recovery()


def assert_equals_oracles(snap, ids, *, rescan=True):
    """The pass equals the heap oracle and, unless ``rescan`` is off, the full rescan."""
    membership = _greedy_pass(snap, ids)
    assert membership == reference_heap_greedy_pass(snap, ids)
    if rescan:
        assert membership == reference_greedy_pass(snap, ids)


def id_orders(n, seed, shuffles=3):
    """The identity ids of ``n`` nodes, then ``shuffles`` seeded permutations of them."""
    rng = random.Random(seed)
    orders = [tuple(range(n))]
    for _ in range(shuffles):
        ids = list(range(n))
        rng.shuffle(ids)
        orders.append(tuple(ids))
    return orders


def path_graph(n):
    return GraphSnapshot(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return GraphSnapshot(range(n), [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves):
    return GraphSnapshot(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


def square_grid(side):
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    return GraphSnapshot(range(side * side), edges)


# many first merges tie on the gain in these, so the tie-break decides
TIE_HEAVY = {
    **{f"path-{n}": path_graph(n) for n in (2, 3, 4, 5, 8, 16, 31, 64)},
    **{f"cycle-{n}": cycle_graph(n) for n in (3, 4, 5, 6, 9, 16, 30, 64)},
    **{f"star-{n}": star_graph(n) for n in (1, 2, 3, 7, 20)},
    **{f"complete-{n}": clique_union([n]) for n in (2, 3, 4, 7, 12)},
    **{f"cliques-{n}x4": clique_union([n] * 4) for n in (3, 5)},
    **{f"grid-{side}": square_grid(side) for side in (2, 3, 4, 5, 8, 12)},
}


@pytest.mark.parametrize("name", TIE_HEAVY)
def test_greedy_pass_equals_both_oracles_on_tie_heavy_families(name):
    snap = TIE_HEAVY[name]
    for ids in id_orders(snap.num_nodes, len(TIE_HEAVY) + len(name), shuffles=5):
        assert_equals_oracles(snap, ids)


SEEDS = (1, 2)
GENERATED = {
    "erdos_renyi": [erdos_renyi(n, p, s) for n, p in ((30, 0.1), (60, 0.05), (120, 0.03)) for s in SEEDS],
    "watts_strogatz": [
        watts_strogatz(n, k, p, s) for n, k in ((30, 4), (80, 4), (120, 6)) for p in (0.0, 0.1) for s in SEEDS
    ],
    "barabasi_albert": [barabasi_albert(n, m, s) for n, m in ((30, 1), (60, 2), (120, 3)) for s in SEEDS],
}


@pytest.mark.parametrize("kind", GENERATED)
def test_greedy_pass_equals_both_oracles_on_generated_graphs(kind):
    for index, snap in enumerate(GENERATED[kind]):
        if snap.num_edges:
            for ids in id_orders(snap.num_nodes, index):
                assert_equals_oracles(snap, ids)


@pytest.mark.parametrize("nodes, churn", [(350, False), (400, True)])
def test_greedy_pass_equals_the_oracles_on_every_bench_log_year(nodes, churn):
    # the full rescan takes seconds over all 70 years, so it checks every tenth
    log = parse_log(*bench_log_csv(nodes, 1, churn))
    for year in range(1950, 2020):
        snap = build_snapshot(log, year)
        if snap.num_edges:
            for ids in id_orders(snap.num_nodes, year, shuffles=1):
                assert_equals_oracles(snap, ids, rescan=year % 10 == 9)


@st.composite
def graphs_with_ids(draw):
    """A simple graph on at most 40 nodes and a permutation of its node ids."""
    n = draw(st.integers(min_value=1, max_value=40))
    pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    density = draw(st.sampled_from((0.05, 0.1, 0.2, 0.5)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    edges = [pair for pair in pairs if rng.random() < density]
    ids = draw(st.permutations(range(n)))
    return GraphSnapshot(range(n), edges), tuple(ids)


@settings(max_examples=150, deadline=None)
@given(graphs_with_ids())
def test_greedy_pass_equals_reference(case):
    snap, shuffled = case
    assert_equals_oracles(snap, tuple(range(snap.num_nodes)))
    assert_equals_oracles(snap, shuffled)


def test_greedy_pass_equals_reference_on_fixture_years(fixture_log):
    rng = random.Random(1950)
    for year in range(1950, 1981):
        snap = build_snapshot(fixture_log, year)
        ids = list(range(snap.num_nodes))
        assert_equals_oracles(snap, tuple(ids))
        rng.shuffle(ids)
        assert_equals_oracles(snap, tuple(ids))


def _reference_detect(snap, seed, restarts):
    """The restart loop of ``detect_communities`` driven by the reference pass."""
    n = snap.num_nodes
    best = reference_greedy_pass(snap, tuple(range(n)))
    best_q = modularity(snap, best)
    rng = random.Random(seed)
    for _ in range(1, restarts):
        ids = list(range(n))
        rng.shuffle(ids)
        membership = reference_greedy_pass(snap, tuple(ids))
        q = modularity(snap, membership)
        if q > best_q:
            best, best_q = membership, q
    return best, best_q


def test_restarts_equal_reference_restart_loop():
    for seed in range(12):
        snap = watts_strogatz(40, 4, 0.2, seed)
        assignment = detect_communities(snap, seed=seed, restarts=5)
        assert (assignment.membership, assignment.achieved_q) == _reference_detect(snap, seed, 5), seed
