"""Fairness-performance trade-off baseline and five-way region classification.

The baseline is built by replacing growing random fractions of a model's
predictions with the test-set majority class and recording how fairness and
performance move; a mitigation method is then placed in one of five regions
relative to the original model and this curve. All repetitions of one degree
are scored together, as the rows of one prediction matrix, into the metrics'
single value matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from numbers import Real

import numpy as np

from .errors import UsageError
from .metrics import (
    FAIRNESS_METRICS,
    PERFORMANCE_METRICS,
    LabeledPredictions,
    compute_report,
    metric_matrix,
)

DEFAULT_DEGREES = tuple(round(0.1 * k, 1) for k in range(11))
DEFAULT_REPS = 10


@dataclass(frozen=True)
class TradeoffPoint:
    fairness: float
    performance: float
    fairness_metric: str
    performance_metric: str


class TradeoffRegion(Enum):
    WIN_WIN = "win-win"
    GOOD = "good"
    POOR = "poor"
    LOSE_LOSE = "lose-lose"
    INVERTED = "inverted"


@dataclass
class TradeoffBaseline:
    """The curve's points in degree order; ``points[0]`` is the original model's."""

    points: list


def majority_class(y_true) -> int:
    """Most frequent true label; an exact tie resolves to the favorable class."""
    ones = int(np.sum(np.asarray(y_true) == 1))
    return 1 if 2 * ones >= len(y_true) else 0


def check_curve_settings(degrees, reps: int) -> tuple:
    """Validated degrees (ascending, 0.0 to 1.0) for ``reps`` >= 1 repetitions."""
    degrees = tuple(degrees)
    # the range test is written so that NaN, which compares false, fails it
    if (not all(isinstance(d, Real) and not isinstance(d, bool) and 0.0 <= d <= 1.0
                for d in degrees)
            or list(degrees) != sorted(degrees)
            or not degrees or degrees[0] != 0.0 or degrees[-1] != 1.0):
        raise UsageError("degrees must be ascending numbers spanning 0.0 to 1.0")
    if isinstance(reps, bool) or not isinstance(reps, int) or reps < 1:
        raise UsageError("reps must be an integer >= 1")
    return degrees


def mutation_curve(preds: LabeledPredictions, degrees, reps: int, seed: int) -> list:
    """Mean flat metric dict per degree of majority-class prediction replacement.

    Each interior degree draws its ``reps`` replacement sets, in order, into the
    rows of one (reps, N) prediction matrix scored by a single ``metric_matrix``
    call; each metric's column is then summed over the rows in order and divided
    by ``reps``.
    """
    degrees = check_curve_settings(degrees, reps)
    n = len(preds)
    majority = majority_class(preds.y_true)
    rng = np.random.default_rng(seed)
    curve = []
    for degree in degrees:
        k = int(degree * n)
        if k == 0 or k == n:
            # every repetition is identical; evaluating once keeps the
            # endpoint values exact instead of averaging float copies
            mutated = preds.y_pred.copy()
            mutated[:k] = majority
            flat = compute_report(preds.with_predictions(mutated)).to_flat_dict()
            curve.append({key: value for key, value in flat.items() if isinstance(value, float)})
            continue
        mutated = np.tile(preds.y_pred, (reps, 1))
        for row in mutated:
            row[rng.choice(n, size=k, replace=False)] = majority
        names, values, _ = metric_matrix(preds, mutated)
        curve.append(dict(zip(names, (np.add.reduce(values, axis=0) / reps).tolist())))
    return curve


def build_baseline(
    original_preds: LabeledPredictions,
    fairness_metric: str,
    performance_metric: str,
    degrees=DEFAULT_DEGREES,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
    curve=None,
) -> TradeoffBaseline:
    """Construct the trade-off polyline for one (fairness, performance) pairing.

    ``curve`` lets callers reuse a precomputed mutation_curve when building
    baselines for several metric pairings from the same predictions.
    """
    if fairness_metric not in FAIRNESS_METRICS:
        raise UsageError(f"unknown fairness metric {fairness_metric!r}")
    if performance_metric not in PERFORMANCE_METRICS:
        raise UsageError(f"unknown performance metric {performance_metric!r}")
    check_curve_settings(degrees, reps)
    if curve is None:
        curve = mutation_curve(original_preds, degrees, reps, seed)
    points = [
        TradeoffPoint(
            fairness=row[fairness_metric], performance=row[performance_metric],
            fairness_metric=fairness_metric, performance_metric=performance_metric,
        )
        for row in curve
    ]
    return TradeoffBaseline(points=points)


def _baseline_fairness_at(baseline: TradeoffBaseline, performance: float):
    """Interpolated baseline fairness at a performance level.

    Walks segments in degree order; if several span the level, the strictest
    (lowest fairness) wins. Performance beyond the curve's reach clamps to the
    nearest endpoint and is flagged.
    """
    pts = baseline.points
    spanning = []
    for a, b in zip(pts[:-1], pts[1:]):
        lo, hi = min(a.performance, b.performance), max(a.performance, b.performance)
        if lo <= performance <= hi:
            if a.performance == b.performance:
                spanning.append(min(a.fairness, b.fairness))
            else:
                t = (performance - a.performance) / (b.performance - a.performance)
                spanning.append(a.fairness + t * (b.fairness - a.fairness))
    if spanning:
        return min(spanning), False
    # off-curve: clamp to whichever endpoint is closer in performance
    end = min(pts, key=lambda p: abs(p.performance - performance))
    return end.fairness, True


def classify_case(method_point: TradeoffPoint, baseline: TradeoffBaseline) -> TradeoffRegion:
    """Place a mitigation case into one of the five trade-off regions, relative to
    the original model, which is the curve's degree-0 point."""
    original_point = baseline.points[0]
    if (method_point.fairness_metric != original_point.fairness_metric
            or method_point.performance_metric != original_point.performance_metric):
        raise UsageError("points and baseline must share metric names")

    better_perf = method_point.performance >= original_point.performance
    better_fair = method_point.fairness < original_point.fairness

    if better_perf and better_fair:
        return TradeoffRegion.WIN_WIN
    if better_perf:
        if (method_point.performance == original_point.performance
                and method_point.fairness == original_point.fairness):
            return TradeoffRegion.GOOD  # exact no-op matches, does not beat, the curve
        if method_point.fairness == original_point.fairness:
            return TradeoffRegion.WIN_WIN
        return TradeoffRegion.INVERTED
    if not better_fair:
        return TradeoffRegion.LOSE_LOSE
    threshold, clamped = _baseline_fairness_at(baseline, method_point.performance)
    if clamped:
        warnings.warn(
            "method performance lies beyond the baseline curve; "
            "compared against the nearest endpoint",
            stacklevel=2,
        )
    return TradeoffRegion.GOOD if method_point.fairness < threshold else TradeoffRegion.POOR
