"""Cumulative degree distributions and decay-model fits.

The cumulative distribution (CCDF) assigns to each observed degree k >= 1
the fraction of non-isolated nodes whose degree is at least k.  Two
two-parameter models are fitted to it:

    power_law:    p(k) = a * k**(-gamma)
    exponential:  p(k) = a * exp(-k/kappa)

Fits minimize the sum of squared residuals in linear space, one
unweighted point per distinct degree.  A linear regression on log p
provides the starting point; a damped Gauss-Newton iteration refines it
until the relative SSE change drops below 1e-10 (200 iterations at most).
A fit whose last step was cut short by the shape > 0 boundary has stalled
there, not converged, and raises FitNotConverged.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

MODELS = ("power_law", "exponential")
SSE_RELATIVE_TOLERANCE = 1e-10
MAX_ITERATIONS = 200


class Ccdf(NamedTuple):
    """Points (k, p) of a cumulative degree distribution."""

    points: tuple[tuple[int, float], ...]


class FitResult(NamedTuple):
    model: str
    a: float
    gamma_or_kappa: float
    sse: float
    r_squared: float


class TailResidual(NamedTuple):
    """Model residuals (prediction minus data) at one high degree."""

    degree: int
    p: float
    power_law_residual: float
    exponential_residual: float


class FitComparison(NamedTuple):
    power_law: FitResult
    exponential: FitResult
    preferred: str  # "power_law", "exponential", or "tie"
    tail_residuals: tuple[TailResidual, ...]


class FitNotConverged(ValueError):
    """Raised when the iteration cap is hit or the fit stalls on the shape > 0
    boundary; carries the last iterate."""

    def __init__(self, message: str, last_result: FitResult):
        super().__init__(message)
        self.last_result = last_result


def build_ccdf(histogram: Sequence[int]) -> Ccdf:
    """CCDF over distinct observed degrees >= 1.

    ``histogram[k]`` is the number of nodes with degree k.  Isolated
    nodes are excluded from the base count.
    """
    counts = list(histogram)
    base = sum(counts[1:])
    if base <= 0:
        raise ValueError("ccdf undefined: all nodes are isolated")
    points = []
    remaining = base
    for k in range(1, len(counts)):
        if counts[k] > 0:
            points.append((k, remaining / base))
        remaining -= counts[k]
    return Ccdf(tuple(points))


def _prepare_points(ccdf: Ccdf) -> tuple[list[float], list[float]]:
    points = sorted(ccdf.points)
    if len(points) < 3:
        raise ValueError("insufficient points: need at least 3 distinct degrees")
    k = [float(kv) for kv, _ in points]
    p = [float(pv) for _, pv in points]
    if len(set(k)) != len(k):
        raise ValueError("duplicate degree in ccdf points")
    if any(kv < 1 for kv in k) or not all(pv > 0 for pv in p):
        raise ValueError("ccdf points must have degree >= 1 and p > 0")
    if not all(map(math.isfinite, k + p)):
        raise ValueError("ccdf points must be finite")
    return k, p


def _log_space_guess(k: list[float], p: list[float], model: str) -> tuple[float, float]:
    """Linear regression on log p gives the starting parameters."""
    x = [math.log(kv) for kv in k] if model == "power_law" else k
    y = [math.log(pv) for pv in p]
    x_mean, y_mean = sum(x) / len(x), sum(y) / len(y)
    dx = [xv - x_mean for xv in x]
    denom = sum(d * d for d in dx)
    if denom == 0.0:
        raise ValueError("cannot form initial guess: degenerate degree values")
    slope = sum(d * (yv - y_mean) for d, yv in zip(dx, y)) / denom
    if slope >= 0.0:
        raise ValueError("cannot form initial guess: distribution is not decreasing")
    intercept = y_mean - slope * x_mean
    try:
        a0 = math.exp(intercept)
    except OverflowError:
        raise ValueError(f"cannot form initial guess: amplitude exp({intercept:.6g}) overflows") from None
    if math.isinf(a0 * a0):
        # the normal equations hold squares of the basis, about (p/a)**2, which underflow
        raise ValueError(f"cannot form initial guess: amplitude exp({intercept:.6g}) squared overflows")
    shape0 = -slope if model == "power_law" else -1.0 / slope
    return a0, shape0


def _basis(k: float, shape: float, model: str) -> tuple[float, float]:
    """Model value at degree k for a = 1, and its derivative in the shape."""
    if model == "power_law":
        value = k ** -shape
        return value, -math.log(k) * value
    value = math.exp(-k / shape)
    return value, k / shape / shape * value


def fit_model(ccdf: Ccdf, model: str) -> FitResult:
    """Least-squares fit of one model family to the CCDF in linear space."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    k, p = _prepare_points(ccdf)
    a, shape = _log_space_guess(k, p, model)

    def sse_of(av: float, sv: float) -> float:
        residuals = [av * _basis(kv, sv, model)[0] - pv for kv, pv in zip(k, p)]
        return sum(r * r for r in residuals)

    sse = sse_of(a, shape)
    damping = 1e-3
    converged = sse == 0.0
    stalled = False
    iterations = 0
    while not converged and iterations < MAX_ITERATIONS:
        iterations += 1
        # gradient J^T r and Gauss-Newton matrix J^T J, J = d(prediction)/d(a, shape)
        g0 = g1 = h00 = h01 = h11 = 0.0
        for kv, pv in zip(k, p):
            j0, d_shape = _basis(kv, shape, model)
            j1 = a * d_shape
            r = a * j0 - pv
            g0 += j0 * r
            g1 += j1 * r
            h00 += j0 * j0
            h01 += j0 * j1
            h11 += j1 * j1
        stepped = False
        blocked = False  # some candidate of this iteration crossed shape <= 0
        while damping <= 1e12:
            m00, m11 = h00 + damping * h00, h11 + damping * h11
            det = m00 * m11 - h01 * h01
            if det == 0.0:
                damping *= 10.0
                continue
            cand_a = a + (h01 * g1 - m11 * g0) / det
            cand_shape = shape + (h01 * g0 - m00 * g1) / det
            if cand_shape <= 0.0 or not math.isfinite(cand_a) or not math.isfinite(cand_shape):
                blocked = blocked or cand_shape <= 0.0
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
        # a last step that the boundary cut short ends there, not at a minimum
        stalled = converged and blocked and sse > 0.0

    p_mean = sum(p) / len(p)
    total = sum((pv - p_mean) * (pv - p_mean) for pv in p)
    r_squared = 1.0 - sse / total if total > 0 else 1.0
    result = FitResult(model, a, shape, sse, r_squared)
    if stalled:
        shape_name = "gamma" if model == "power_law" else "kappa"
        raise FitNotConverged(
            f"{model} fit stalled on the {shape_name} > 0 boundary "
            f"({shape_name}={shape:.6g}, sse={sse:.6g})",
            result,
        )
    if not converged:
        raise FitNotConverged(
            f"{model} fit did not converge in {MAX_ITERATIONS} iterations (sse={sse:.6g})", result
        )
    return result


def preferred_model(power_law_sse: float, exponential_sse: float) -> str:
    """Lower SSE wins; identical SSE is reported as an explicit tie."""
    if power_law_sse < exponential_sse:
        return "power_law"
    if exponential_sse < power_law_sse:
        return "exponential"
    return "tie"


def compare_fits(ccdf: Ccdf) -> FitComparison:
    """Fit both families, pick the lower-SSE one, and expose tail misfit."""
    power = fit_model(ccdf, "power_law")
    exponential = fit_model(ccdf, "exponential")
    preferred = preferred_model(power.sse, exponential.sse)
    top = sorted(ccdf.points, key=lambda kp: kp[0], reverse=True)[:3]
    tail = []
    for degree, p in top:
        tail.append(
            TailResidual(
                degree=degree,
                p=p,
                power_law_residual=power.a * _basis(degree, power.gamma_or_kappa, "power_law")[0] - p,
                exponential_residual=(
                    exponential.a * _basis(degree, exponential.gamma_or_kappa, "exponential")[0] - p
                ),
            )
        )
    return FitComparison(power, exponential, preferred, tuple(tail))


def fit_result_to_json(result: FitResult) -> str:
    import json

    return json.dumps(result._asdict())

