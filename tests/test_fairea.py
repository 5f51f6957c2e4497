import numpy as np
import pytest

from fairhome.data import SubgroupKey
from fairhome.errors import MetricUndefinedError, UsageError
from fairhome.fairea import (
    TradeoffBaseline,
    TradeoffPoint,
    TradeoffRegion,
    build_baseline,
    classify_case,
    majority_class,
    mutation_curve,
)
from fairhome.metrics import LabeledPredictions, compute_report


def make_preds(rng, n=200, n_groups=4, favorable_rate=0.4):
    while True:
        y_true = (rng.random(n) < favorable_rate).astype(int)
        y_pred = np.where(rng.random(n) < 0.75, y_true, 1 - y_true)
        groups = rng.integers(0, n_groups, n)
        keys = tuple(SubgroupKey((("g", str(g)),)) for g in groups)
        data = LabeledPredictions(y_true=y_true, y_pred=y_pred, subgroup_of=keys,
                                  single_group_of={"g": tuple(str(g) for g in groups)})
        counts = {}
        for g, t in zip(groups, y_true):
            counts.setdefault(g, [0, 0])[t] += 1
        if len(counts) == n_groups and all(c[0] >= 1 and c[1] >= 1 for c in counts.values()):
            return data


def test_majority_class_tie_favors_favorable():
    assert majority_class([1, 1, 0, 0]) == 1
    assert majority_class([0, 0, 0, 1]) == 0
    assert majority_class([1, 1, 1, 0]) == 1


def test_degree_zero_equals_original_exactly(rng):
    preds = make_preds(rng)
    original = compute_report(preds).to_flat_dict()
    baseline = build_baseline(preds, "wc_spd", "accuracy", seed=3)
    assert baseline.points[0].fairness == original["wc_spd"]
    assert baseline.points[0].performance == original["accuracy"]


def test_degree_zero_is_the_original_report_for_every_metric():
    """The curve's first entry is the original's flat report, every float entry
    (per-attribute columns included) exactly, whatever the protected attributes,
    degrees, repetitions and seed. A fixed-seed loop, so every run draws the
    same cases."""
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 40:
        n_attrs, n = int(rng.integers(1, 4)), int(rng.integers(8, 80))
        names = tuple(f"p{i}" for i in range(n_attrs))
        combos = [tuple(str(rng.integers(0, 3)) for _ in names) for _ in range(n)]
        preds = LabeledPredictions(
            y_true=rng.integers(0, 2, n), y_pred=rng.integers(0, 2, n),
            subgroup_of=tuple(SubgroupKey(tuple(zip(names, c))) for c in combos),
            single_group_of={name: tuple(c[i] for c in combos) for i, name in enumerate(names)})
        try:
            flat = compute_report(preds).to_flat_dict()
        except MetricUndefinedError:
            continue  # some metric needs groups these labels do not give
        interior = np.round(rng.uniform(0.0, 1.0, int(rng.integers(0, 4))), 2).tolist()
        degrees = (0.0, *sorted(interior), 1.0)
        curve = mutation_curve(preds, degrees, int(rng.integers(1, 6)),
                               seed=int(rng.integers(0, 2**31)))
        original = {key: value for key, value in flat.items() if isinstance(value, float)}
        assert {f"spd_{name}" for name in names} <= original.keys()
        assert curve[0] == original
        checked += 1


def test_degree_one_is_constant_predictor(rng):
    preds = make_preds(rng)
    majority = majority_class(preds.y_true)
    majority_rate = float(np.mean(preds.y_true == majority))
    for fm in ("wc_spd", "wc_aod", "wc_eod", "ac_spd", "ac_aod", "ac_eod"):
        baseline = build_baseline(preds, fm, "accuracy", seed=3)
        assert baseline.points[-1].fairness == 0.0
        assert baseline.points[-1].performance == pytest.approx(majority_rate, abs=1e-12)


def test_baseline_deterministic_and_seed_sensitive(rng):
    preds = make_preds(rng)
    b1 = build_baseline(preds, "wc_spd", "accuracy", reps=5, seed=7)
    b2 = build_baseline(preds, "wc_spd", "accuracy", reps=5, seed=7)
    b3 = build_baseline(preds, "wc_spd", "accuracy", reps=5, seed=8)
    assert [(p.fairness, p.performance) for p in b1.points] == \
           [(p.fairness, p.performance) for p in b2.points]
    mid = len(b1.points) // 2
    assert b1.points[mid] != b3.points[mid]


def test_monte_carlo_convergence(rng):
    preds = make_preds(rng, n=500)
    curves = []
    for seed in (11, 12):
        curve = mutation_curve(preds, (0.0, 0.5, 1.0), reps=200, seed=seed)
        curves.append(curve[1]["wc_spd"])
    assert abs(curves[0] - curves[1]) <= 0.01

    small = [mutation_curve(preds, (0.0, 0.5, 1.0), reps=5, seed=s)[1]["wc_spd"]
             for s in (11, 12)]
    assert abs(small[0] - small[1]) >= abs(curves[0] - curves[1])


def test_build_baseline_validates_inputs(rng):
    preds = make_preds(rng)
    with pytest.raises(UsageError):
        build_baseline(preds, "nope", "accuracy")
    with pytest.raises(UsageError):
        build_baseline(preds, "wc_spd", "nope")
    with pytest.raises(UsageError):
        build_baseline(preds, "wc_spd", "accuracy", degrees=(0.0, 0.5))
    with pytest.raises(UsageError):
        build_baseline(preds, "wc_spd", "accuracy", reps=0)
    for degrees, reps in (((0.0, 0.5), 2), ((), 2), ((0.0, 1.0), 0)):
        with pytest.raises(UsageError):
            mutation_curve(preds, degrees, reps, seed=0)


def hand_baseline():
    # the first point is the original model's, as a built curve's degree 0 is
    pts = [TradeoffPoint(0.3, 0.8, "wc_spd", "accuracy"),
           TradeoffPoint(0.15, 0.7, "wc_spd", "accuracy"),
           TradeoffPoint(0.0, 0.6, "wc_spd", "accuracy")]
    return TradeoffBaseline(points=pts)


def P(fairness, performance):
    return TradeoffPoint(fairness, performance, "wc_spd", "accuracy")


def test_classify_quadrants():
    baseline = hand_baseline()
    assert classify_case(P(0.2, 0.85), baseline) is TradeoffRegion.WIN_WIN
    assert classify_case(P(0.35, 0.85), baseline) is TradeoffRegion.INVERTED
    assert classify_case(P(0.35, 0.75), baseline) is TradeoffRegion.LOSE_LOSE
    assert classify_case(P(0.3, 0.75), baseline) is TradeoffRegion.LOSE_LOSE
    assert classify_case(P(0.3, 0.8), baseline) is TradeoffRegion.GOOD
    assert classify_case(P(0.3, 0.85), baseline) is TradeoffRegion.WIN_WIN


def test_classify_against_interpolated_curve():
    baseline = hand_baseline()
    # at performance 0.75 the interpolated baseline fairness is 0.225
    assert classify_case(P(0.2, 0.75), baseline) is TradeoffRegion.GOOD
    assert classify_case(P(0.25, 0.75), baseline) is TradeoffRegion.POOR
    assert classify_case(P(0.225, 0.75), baseline) is TradeoffRegion.POOR


def test_classify_against_a_flat_last_segment():
    """Two curve points of equal performance span that level at the lower of their
    fairness values."""
    pts = [P(0.3, 0.8), P(0.2, 0.6), P(0.1, 0.6)]
    baseline = TradeoffBaseline(points=pts)
    # at performance 0.6 the first segment ends at 0.2 and the flat one reaches 0.1
    assert classify_case(P(0.15, 0.6), baseline) is TradeoffRegion.POOR
    assert classify_case(P(0.05, 0.6), baseline) is TradeoffRegion.GOOD


def test_classify_clamps_below_curve_with_warning():
    baseline = hand_baseline()
    with pytest.warns(UserWarning, match="beyond the baseline"):
        region = classify_case(P(0.1, 0.5), baseline)
    assert region is TradeoffRegion.POOR  # final point fairness is 0.0, 0.1 is not below it


def test_classify_rejects_mismatched_metrics():
    baseline = hand_baseline()
    for other in (TradeoffPoint(0.3, 0.8, "wc_aod", "accuracy"),
                  TradeoffPoint(0.3, 0.8, "wc_spd", "mcc")):
        with pytest.raises(UsageError, match="^points and baseline must share metric names$"):
            classify_case(other, baseline)


def test_classification_partition_property(rng):
    baseline = hand_baseline()
    import warnings

    for _ in range(200):
        point = P(float(rng.uniform(0, 0.5)), float(rng.uniform(0.55, 0.9)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            region = classify_case(point, baseline)
        assert isinstance(region, TradeoffRegion)


def test_classification_monotone_in_fairness(rng):
    baseline = hand_baseline()
    import warnings

    for _ in range(50):
        perf = float(rng.uniform(0.6, 0.79))
        seen_good = False
        for fairness in np.linspace(0.29, 0.0, 30):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                region = classify_case(P(float(fairness), perf), baseline)
            if region is TradeoffRegion.GOOD:
                seen_good = True
            if seen_good:
                assert region is TradeoffRegion.GOOD
