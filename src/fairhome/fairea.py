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

from .data import check_seed
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
    check_seed(seed)
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
) -> TradeoffBaseline:
    """Construct the trade-off polyline for one (fairness, performance) pairing."""
    if fairness_metric not in FAIRNESS_METRICS:
        raise UsageError(f"unknown fairness metric {fairness_metric!r}")
    if performance_metric not in PERFORMANCE_METRICS:
        raise UsageError(f"unknown performance metric {performance_metric!r}")
    points = [
        TradeoffPoint(
            fairness=row[fairness_metric], performance=row[performance_metric],
            fairness_metric=fairness_metric, performance_metric=performance_metric,
        )
        for row in mutation_curve(original_preds, degrees, reps, seed)
    ]
    return TradeoffBaseline(points=points)


def classify_cases(curve_fairness, curve_performance, fairness, performance) -> tuple:
    """Each case's trade-off region, as an index in ``TradeoffRegion``'s order, and
    whether it was clamped; one warning per clamped case, for the caller's caller.

    Curves have shape (..., degrees), degree 0 the original model's; case points
    broadcast with their leading shape. A case performs better at ``>=`` and is
    fairer at ``<`` than the original, and matching it exactly is GOOD. A fairer,
    worse case is GOOD when fairer than the curve at its performance: the lowest
    fairness of the segments spanning it, a flat one at its lower end; spanned by
    none, it is clamped to the first curve point nearest in performance.
    """
    curve_f, curve_p = np.asarray(curve_fairness, float), np.asarray(curve_performance, float)
    f, p = np.asarray(fairness, float), np.asarray(performance, float)
    level = p[..., None]
    a_f, b_f, a_p, b_p = curve_f[..., :-1], curve_f[..., 1:], curve_p[..., :-1], curve_p[..., 1:]
    spans = (np.minimum(a_p, b_p) <= level) & (level <= np.maximum(a_p, b_p))
    flat = a_p == b_p
    # the numerator is zeroed off the spanning sloped segments, so no division overflows
    t = np.where(spans & ~flat, level - a_p, 0.0) / np.where(flat, 1.0, b_p - a_p)
    on_curve = np.where(spans, np.where(flat, np.minimum(a_f, b_f), a_f + t * (b_f - a_f)), np.inf)
    distance = np.abs(curve_p - level)
    nearest = np.take_along_axis(np.broadcast_to(curve_f, distance.shape),
                                 distance.argmin(axis=-1)[..., None], axis=-1)[..., 0]
    spanned = spans.any(axis=-1)
    threshold = np.where(spanned, on_curve.min(axis=-1, initial=np.inf), nearest)
    o_f, o_p = curve_f[..., 0], curve_p[..., 0]
    better_perf, better_fair, same_fair = p >= o_p, f < o_f, f == o_f
    win_win, good, poor, lose_lose, inverted = range(len(TradeoffRegion))
    regions = np.select(
        [better_perf & (better_fair | same_fair & (p != o_p)),
         better_perf & same_fair,  # an exact no-op matches, does not beat, the curve
         better_perf, ~better_fair, f < threshold],
        [win_win, good, inverted, lose_lose, good], default=poor)
    clamped = ~better_perf & better_fair & ~spanned
    for _ in range(np.count_nonzero(clamped)):
        warnings.warn("method performance lies beyond the baseline curve; "
                      "compared against the nearest endpoint", stacklevel=3)
    return regions, clamped


def classify_case(method_point: TradeoffPoint, baseline: TradeoffBaseline) -> TradeoffRegion:
    """Place a mitigation case into one of the five trade-off regions, relative to
    the original model, which is the curve's degree-0 point: ``classify_cases``
    for one case."""
    original_point = baseline.points[0]
    if (method_point.fairness_metric != original_point.fairness_metric
            or method_point.performance_metric != original_point.performance_metric):
        raise UsageError("points and baseline must share metric names")
    region, _ = classify_cases([p.fairness for p in baseline.points],
                               [p.performance for p in baseline.points],
                               method_point.fairness, method_point.performance)
    return list(TradeoffRegion)[int(region)]
