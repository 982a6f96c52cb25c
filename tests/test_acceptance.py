"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 10 executes the whole invariant registry.
"""

from __future__ import annotations

import math
import time

import pytest

from gridtopo import (
    GraphSnapshot,
    barabasi_albert,
    build_ccdf,
    compare_fits,
    clustering_coefficient,
    degree_stats,
    detect_communities,
    fit_model,
    modularity,
    random_baselines,
    small_world_sigma,
    watts_strogatz,
)
from gridtopo.degree_fit import Ccdf

import properties
from conftest import clique_union, random_graph
from oracles import exhaustive_best_partition
from test_cli import run_cli


class Timer:
    def __init__(self, budget_seconds: float):
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(number: int, name: str, timer: Timer, detail: str = "") -> None:
    print(f"ACCEPTANCE {number} PASS: {name} ({timer.elapsed:.2f}s < {timer.budget:.0f}s){detail}")
    assert timer.elapsed < timer.budget, f"criterion {number} exceeded its runtime budget"


def test_criterion_01_table1_sigma_consistency():
    with Timer(1.0) as t:
        l_r, c_r = random_baselines(314, 2.54)
        sigma, is_small = small_world_sigma(0.063, c_r, 6.64, l_r)
        assert 7.0 <= sigma <= 7.2, sigma  # published: 7.11
        assert is_small
    report(1, "published-1999 sigma in [7.0, 7.2]", t, f" sigma={sigma:.4f}")


def test_criterion_02_average_degree_consistency():
    with Timer(1.0) as t:
        edges = [(i, (i + 1) % 385) for i in range(385)]
        edges += [(i, i + 5) for i in range(119)]
        snap = GraphSnapshot(range(385), edges)
        assert snap.num_nodes == 385 and snap.num_edges == 504
        avg = degree_stats(snap).average
        assert abs(avg - 2.618) < 1e-3
        assert abs(avg - 2.61) < 0.01  # published endpoint after rounding
    report(2, "N=385, E=504 gives <k>=2.618", t, f" avg={avg:.6f}")


def test_criterion_03_shortest_path_oracle_equivalence():
    with Timer(10.0) as t:
        properties.check_path_stats_matches_relaxation_oracle(num_graphs=100)
    report(3, "path_stats distance sum and diameter equal the relaxation oracle on 100 seeded graphs", t)


def test_criterion_04_modularity_exactness():
    with Timer(10.0) as t:
        exact_zeroes = 0
        for i in range(50):
            snap = random_graph(4 + (i % 7), 0.45, 8600 + i)
            if snap.num_edges == 0:
                continue
            assert modularity(snap, [0] * snap.num_nodes) == 0.0
            exact_zeroes += 1
        assert exact_zeroes >= 40
        assert modularity(clique_union([3, 3]), [0, 0, 0, 1, 1, 1]) == 0.5
        properties.check_modularity_against_brute_oracle()
    report(4, "modularity exactness and brute-force oracle agreement", t)


def test_criterion_05_greedy_vs_exhaustive_communities():
    with Timer(60.0) as t:
        compared = 0
        for i in range(30):
            snap = random_graph(3 + (i % 6), 0.4, 9000 + i)
            if snap.num_edges == 0:
                continue
            greedy = detect_communities(snap, seed=1)
            best = exhaustive_best_partition(snap)
            assert greedy.achieved_q <= best.achieved_q + 1e-12
            compared += 1
        assert compared >= 20
        for sizes in ([3, 3], [4, 4], [5, 5], [3, 3, 3]):
            snap = clique_union(sizes)
            greedy = detect_communities(snap, seed=1)
            best = exhaustive_best_partition(snap)
            assert greedy.membership == best.membership, sizes
            assert greedy.achieved_q == pytest.approx(best.achieved_q, abs=1e-12)
    report(5, "greedy never beats exhaustive; equals it on equal-clique unions", t)


def test_criterion_06_fit_parameter_recovery():
    with Timer(1.0) as t:
        exp_fit = fit_model(Ccdf(tuple((k, math.exp(-k / 2.5)) for k in range(1, 11))), "exponential")
        assert abs(exp_fit.gamma_or_kappa - 2.5) < 1e-6
        pow_fit = fit_model(Ccdf(tuple((k, float(k) ** -2.0) for k in range(1, 11))), "power_law")
        assert abs(pow_fit.gamma_or_kappa - 2.0) < 1e-6
    report(6, "noiseless fits recover kappa=2.5 and gamma=2 within 1e-6", t)


def test_criterion_07_directional_fit_preference():
    with Timer(30.0) as t:
        ba = barabasi_albert(5000, 2, 42)
        ba_cmp = compare_fits(build_ccdf(degree_stats(ba).histogram))
        assert ba_cmp.preferred == "power_law"
        for tail in ba_cmp.tail_residuals:
            assert abs(tail.power_law_residual) < abs(tail.exponential_residual)
        ws = watts_strogatz(5000, 4, 0.1, 42)
        ws_cmp = compare_fits(build_ccdf(degree_stats(ws).histogram))
        assert ws_cmp.preferred == "exponential"
    report(7, "BA prefers power law (smaller top-3 tail residuals); WS prefers exponential", t)


def test_criterion_08_small_world_regime():
    with Timer(10.0) as t:
        sigma, is_small, _ = properties.ws_small_world_stats()
        assert sigma > 5
        assert is_small
        ring_c = clustering_coefficient(watts_strogatz(20, 4, 0.0, 1))
        assert ring_c == 0.5  # closed form 3(k-2)/(4(k-1)) at k=4, exact
    report(8, "WS(1000,10,0.01) sigma > 5; ring lattice C = 0.5 exactly", t, f" sigma={sigma:.2f}")


def test_criterion_09_fixture_end_to_end(capsys, tmp_path, fixture_csv_paths, expected_table_path, fixture_log):
    with Timer(5.0) as t:
        out_path = tmp_path / "series.csv"
        nodes, edges = fixture_csv_paths
        code = run_cli(
            capsys,
            "timeseries",
            "--nodes",
            str(nodes),
            "--edges",
            str(edges),
            "--from",
            "1950",
            "--to",
            "1980",
            "--out",
            str(out_path),
        )[0]
        assert code == 0
        produced = out_path.read_text().splitlines()
        expected = expected_table_path.read_text().splitlines()
        assert len(produced) == len(expected) == 32
        for got, want in zip(produced, expected):
            assert got == want
        # the double circuit is merged (one parse note, edge count stays 5
        # when the second circuit activates in 1958)
        assert len(fixture_log.merges) == 1
        assert produced[1958 - 1949].split(",")[2] == "5"
        # decommission-year semantics: n10/e17 are gone from the 1976 row
        assert produced[1975 - 1949].split(",")[1:3] == ["12", "16"]
        assert produced[1976 - 1949].split(",")[1:3] == ["11", "15"]
    with capsys.disabled():
        report(9, "fixture timeseries matches the hand-verified table row-for-row", t)


def test_criterion_10_invariant_suite():
    failures = []
    with Timer(120.0) as t:
        for name, check in properties.INVARIANTS:
            try:
                check()
                print(f"  invariant {name}: PASS")
            except AssertionError as exc:
                print(f"  invariant {name}: FAIL ({exc})")
                failures.append((name, str(exc)))
    print(
        f"ACCEPTANCE 10 {'PASS' if not failures else 'FAIL'}: invariant suite "
        f"({t.elapsed:.2f}s < {t.budget:.0f}s), {len(properties.INVARIANTS) - len(failures)}"
        f"/{len(properties.INVARIANTS)} invariants hold"
    )
    assert t.elapsed < t.budget
    assert not failures, "invariants failed: " + "; ".join(
        f"{name} ({message})" for name, message in failures
    )
