from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtopo.degree_fit import (
    MODELS,
    Ccdf,
    FitNotConverged,
    FitResult,
    build_ccdf,
    compare_fits,
    fit_model,
    preferred_model,
)
from gridtopo.generators import barabasi_albert, erdos_renyi, watts_strogatz
from gridtopo.graphs import build_snapshot
from gridtopo.metrics import degree_stats

import properties
from oracles import reference_fit_model, reference_predict, reference_start, tail_probability


def test_build_ccdf_direct_count():
    # degrees {1, 1, 2}
    ccdf = build_ccdf([0, 2, 1])
    assert ccdf.points == ((1, 1.0), (2, pytest.approx(1 / 3)))


def test_build_ccdf_single_degree():
    ccdf = build_ccdf([0, 0, 0, 5])
    assert ccdf.points == ((3, 1.0),)


def test_build_ccdf_excludes_isolated_nodes():
    ccdf = build_ccdf([7, 2, 2])
    assert ccdf.points == ((1, 1.0), (2, 0.5))


def test_build_ccdf_all_isolated():
    with pytest.raises(ValueError, match="isolated"):
        build_ccdf([4])


def test_build_ccdf_matches_tail_count_oracle():
    rng = random.Random(88)
    for _ in range(20):
        degrees = [rng.randrange(0, 12) for _ in range(rng.randrange(4, 60))]
        if not any(d >= 1 for d in degrees):
            continue
        histogram = [0] * (max(degrees) + 1)
        for d in degrees:
            histogram[d] += 1
        ccdf = build_ccdf(histogram)
        for k, p in ccdf.points:
            assert p == pytest.approx(tail_probability(degrees, k), rel=1e-15)


def test_fit_recovers_exponential_scale():
    points = tuple((k, math.exp(-k / 2.5)) for k in range(1, 11))
    fit = fit_model(Ccdf(points), "exponential")
    assert fit.model == "exponential"
    assert fit.gamma_or_kappa == pytest.approx(2.5, abs=1e-6)
    assert fit.a == pytest.approx(1.0, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_recovers_power_law_exponent():
    points = tuple((k, float(k) ** -2.0) for k in range(1, 11))
    fit = fit_model(Ccdf(points), "power_law")
    assert fit.gamma_or_kappa == pytest.approx(2.0, abs=1e-6)
    assert fit.a == pytest.approx(1.0, abs=1e-6)


def test_fit_rejects_insufficient_points():
    with pytest.raises(ValueError, match="insufficient"):
        fit_model(Ccdf(((1, 1.0), (2, 0.5))), "power_law")


def test_fit_rejects_unknown_model_and_bad_points():
    points = tuple((k, math.exp(-k / 2.0)) for k in range(1, 6))
    with pytest.raises(ValueError, match="unknown model"):
        fit_model(Ccdf(points), "gaussian")
    with pytest.raises(ValueError, match="duplicate"):
        fit_model(Ccdf(((1, 1.0), (1, 0.5), (2, 0.2))), "power_law")
    with pytest.raises(ValueError):
        fit_model(Ccdf(((1, 1.0), (2, 0.5), (3, -0.1))), "power_law")
    for model in MODELS:
        with pytest.raises(ValueError, match="^cannot form initial guess: distribution is not decreasing$"):
            fit_model(Ccdf(((1, 0.2), (2, 0.5), (3, 1.0))), model)


def test_fit_rejects_non_finite_points():
    # a NaN degree passed the degree >= 1 check and gave an all-NaN fit, an
    # infinite p passed p > 0 and gave r^2 = 1.0
    for points in (
        ((1, 1.0), (2, 0.5), (math.nan, 0.2)),
        ((1, 1.0), (2, 0.5), (math.inf, 0.2)),
        ((1, 1.0), (2, 0.5), (3, math.inf)),
    ):
        for model in MODELS:
            with pytest.raises(ValueError, match="^ccdf points must be finite$"):
                fit_model(Ccdf(points), model)


def test_a_start_whose_square_overflows_is_value_error():
    message = r"^cannot form initial guess: amplitude exp\(407\.071\) squared overflows$"
    with pytest.raises(ValueError, match=message):
        fit_model(Ccdf(((10, 1.0), (11, 1e-7), (12, 1e-14))), "power_law")


def test_fit_handles_noisy_data():
    rng = random.Random(5)
    points = tuple((k, 0.8 * math.exp(-k / 3.0) * (1 + rng.uniform(-0.05, 0.05))) for k in range(1, 15))
    fit = fit_model(Ccdf(points), "exponential")
    assert 2.0 < fit.gamma_or_kappa < 4.0
    assert fit.r_squared > 0.95


def test_compare_prefers_generating_family():
    exp_points = tuple((k, round(math.exp(-k / 2.5), 4)) for k in range(1, 11))
    assert compare_fits(Ccdf(exp_points)).preferred == "exponential"
    pow_points = tuple((k, float(k) ** -2.0) for k in range(1, 11))
    assert compare_fits(Ccdf(pow_points)).preferred == "power_law"


def test_preference_rule_reports_ties_explicitly():
    assert preferred_model(0.25, 0.5) == "power_law"
    assert preferred_model(0.5, 0.25) == "exponential"
    assert preferred_model(0.25, 0.25) == "tie"


def test_compare_consistency_with_sse():
    points = tuple((k, math.exp(-k / 2.5)) for k in range(1, 11))
    comparison = compare_fits(Ccdf(points))
    assert (comparison.preferred == "power_law") == (
        comparison.power_law.sse < comparison.exponential.sse
    )


def test_tail_residual_table_covers_top_three_degrees():
    points = tuple((k, math.exp(-k / 2.5)) for k in range(1, 11))
    comparison = compare_fits(Ccdf(points))
    assert [t.degree for t in comparison.tail_residuals] == [10, 9, 8]
    for t in comparison.tail_residuals:
        assert abs(t.exponential_residual) < 1e-8  # generated from this model


def test_fit_result_json_round_trip():
    points = tuple((k, math.exp(-k / 2.5)) for k in range(1, 11))
    fit = fit_model(Ccdf(points), "exponential")
    assert FitResult(**json.loads(fit.to_json())) == fit


def test_invariant_ccdf_shape_and_reconstruction():
    properties.check_ccdf_shape_and_reconstruction()


def test_invariant_exact_recovery():
    properties.check_fit_exact_recovery()


def test_invariant_order_invariance():
    properties.check_fit_order_invariance()


def test_invariant_directional_preference():
    properties.check_directional_fit_preference()


def test_nonfinite_start_is_value_error():
    # log-space intercepts of about 4895 (power law) and 856 (exponential):
    # numpy's exp overflowed to inf and carried it through to a "converged"
    # result with a=inf and sse=nan
    steep = Ccdf(((300, 1.0), (301, 1 / 3), (302, 1 / 300)))
    with_nan = Ccdf(((1, 1.0), (2, math.nan), (3, 0.1)))
    for model in MODELS:
        with pytest.raises(ValueError, match=r"initial guess: amplitude exp\(\d+\.?\d*\) overflows"):
            fit_model(steep, model)
        with pytest.raises(ValueError, match="p > 0"):
            fit_model(with_nan, model)


_PARAMETERS = ("a", "gamma_or_kappa")
_GOODNESS = ("sse", "r_squared")


def _assert_matches_reference(ccdf: Ccdf, rel: float, fields=_PARAMETERS + _GOODNESS) -> int:
    """Same fits as the numpy reference on ``fields`` within ``rel``, or the same exception.

    The reference returns a fit stalled on the shape > 0 boundary; there the
    library must raise ``FitNotConverged`` carrying the same iterate.

    With the parameters among ``fields`` the top-three tail residuals of
    ``compare_fits`` are checked too.  Every returned fit must be finite.
    Returns the number of models fitted.
    """
    expected = {}
    for model in MODELS:
        try:
            with np.errstate(all="ignore"):
                start = reference_start(ccdf, model)[0]
        except ValueError:
            start = 0.0  # no start at all: the reference raises below
        if math.isinf(start * start):
            # the starting amplitude, or its square, overflows; the normal
            # equations would underflow, so the library refuses such a start
            with pytest.raises(ValueError, match="cannot form initial guess"):
                fit_model(ccdf, model)
            continue
        try:
            with np.errstate(all="ignore"):
                expected[model] = reference_fit_model(ccdf, model)
        except ValueError as exc:  # FitNotConverged included
            with pytest.raises(ValueError) as raised:
                fit_model(ccdf, model)
            assert type(raised.value) is type(exc), (model, raised.value, exc)
            continue
        try:
            got = fit_model(ccdf, model)
        except FitNotConverged as exc:
            # the reference has no boundary check and returns the iterate it
            # stalled on; the library must raise with that same iterate
            assert "> 0 boundary" in str(exc)
            stalled = expected.pop(model)
            for f in fields:
                assert getattr(exc.last_result, f) == pytest.approx(getattr(stalled, f), rel=rel), (model, f)
            continue
        assert got.model == model
        for f in _PARAMETERS + _GOODNESS:
            assert math.isfinite(getattr(got, f)), (model, f)
        for f in fields:
            assert getattr(got, f) == pytest.approx(getattr(expected[model], f), rel=rel), (model, f)
    if len(expected) < len(MODELS):
        return len(expected)
    power, exponential = expected["power_law"], expected["exponential"]
    comparison = compare_fits(ccdf)
    if not math.isclose(power.sse, exponential.sse, rel_tol=rel):
        assert comparison.preferred == preferred_model(power.sse, exponential.sse)
    if "a" not in fields:
        return len(expected)
    for tail in comparison.tail_residuals:
        k = np.array([float(tail.degree)])
        for model, got in (
            ("power_law", tail.power_law_residual),
            ("exponential", tail.exponential_residual),
        ):
            fit = expected[model]
            want = float(reference_predict(k, fit.a, fit.gamma_or_kappa, model)[0] - tail.p)
            assert got == pytest.approx(want, rel=rel, abs=rel), (model, tail.degree)
    return len(expected)


def test_power_law_stall_on_the_boundary_is_not_converged():
    # every downhill Gauss-Newton step crosses gamma <= 0, so the damping
    # climbs until a step is too small to lower the SSE by 1e-10 relative
    counts = {2: 1, 4: 87, 6: 853, 28: 83, 41: 37, 43: 1, 65: 88, 97: 29, 112: 654, 256: 1}
    histogram = [0] * 257
    for degree, count in counts.items():
        histogram[degree] = count
    ccdf = build_ccdf(histogram)
    with pytest.raises(FitNotConverged, match=r"^power_law fit stalled on the gamma > 0 boundary") as info:
        fit_model(ccdf, "power_law")
    stalled = info.value.last_result
    assert 0.0 < stalled.gamma_or_kappa < 1e-11
    assert stalled.r_squared < -1.0  # worse than the best constant
    with np.errstate(all="ignore"):
        reference = reference_fit_model(ccdf, "power_law")  # the reference returns the stall
    for f in _GOODNESS:
        assert getattr(stalled, f) == pytest.approx(getattr(reference, f), rel=1e-8), f
    with pytest.raises(FitNotConverged):
        compare_fits(ccdf)
    assert fit_model(ccdf, "exponential").r_squared > 0.8


def test_fit_equals_reference_on_fixture_years(fixture_log):
    fitted = 0
    for year in range(1950, 1981):
        histogram = degree_stats(build_snapshot(fixture_log, year)).histogram
        fitted += _assert_matches_reference(build_ccdf(histogram), rel=1e-12)
    assert fitted == 2 * 26  # 1950-1954 have fewer than 3 distinct degrees


def test_fit_equals_reference_on_seeded_graphs():
    for seed in range(1, 9):
        for snap in (
            erdos_renyi(200, 0.03, seed),
            watts_strogatz(200, 4, 0.1, seed),
            barabasi_albert(300, 2, seed),
        ):
            assert _assert_matches_reference(build_ccdf(degree_stats(snap).histogram), rel=1e-12) == 2


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(1, 400), st.integers(1, 1000), min_size=1, max_size=40))
def test_fit_equals_reference_on_any_degree_histogram(counts):
    # The 1e-10 relative-SSE stopping rule lets two runs end one step apart,
    # so SSE and R^2 agree to 1e-8.  The parameters are not compared: where
    # the model cannot follow the histogram the SSE surface is flat along a
    # valley, and equal SSEs (to 1e-12) come with a, gamma up to 5e-3 apart.
    histogram = [0] * (max(counts) + 1)
    for degree, count in counts.items():
        histogram[degree] = count
    _assert_matches_reference(build_ccdf(histogram), rel=1e-8, fields=_GOODNESS)
