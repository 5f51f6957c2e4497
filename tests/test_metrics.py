import numpy as np
import pytest

from fairhome.data import SubgroupKey
from fairhome.errors import MetricUndefinedError, UsageError
from fairhome.metrics import (
    LabeledPredictions,
    average_case_metrics,
    compute_report,
    group_metrics,
    metric_matrix,
    performance_metrics,
    worst_case_metrics,
)

import oracle


def lp(y_true, y_pred, subgroups, singles=None):
    keys = tuple(SubgroupKey((("g", s),)) if isinstance(s, str) else s for s in subgroups)
    return LabeledPredictions(
        y_true=np.array(y_true), y_pred=np.array(y_pred), subgroup_of=keys,
        single_group_of=singles or {"g": tuple(s if isinstance(s, str) else s.assignment[0][1]
                                               for s in subgroups)},
    )


def random_lp(rng, max_rows=50, max_attrs=3):
    n_attrs = int(rng.integers(1, max_attrs + 1))
    n = int(rng.integers(4, max_rows + 1))
    while True:
        y_true = rng.integers(0, 2, n)
        y_pred = rng.integers(0, 2, n)
        combos = [tuple(str(rng.integers(0, 2)) for _ in range(n_attrs)) for _ in range(n)]
        names = tuple(f"p{i}" for i in range(n_attrs))
        keys = tuple(SubgroupKey(tuple(zip(names, c))) for c in combos)
        singles = {name: tuple(c[i] for c in combos) for i, name in enumerate(names)}
        data = LabeledPredictions(y_true=y_true, y_pred=y_pred, subgroup_of=keys,
                                  single_group_of=singles)
        # keep only fixtures where every metric is defined
        try:
            worst_case_metrics(data)
            average_case_metrics(data)
            for a in names:
                group_metrics(data, a)
        except MetricUndefinedError:
            continue
        return data, [(int(t), int(p), k) for t, p, k in zip(y_true, y_pred, keys)], names, combos


def test_wc_spd_max_minus_min():
    # subgroup favorable rates 0.5, 0.2, 0.4, 0.3 over 10 rows each
    y_true, y_pred, groups = [], [], []
    for g, rate in (("a", 5), ("b", 2), ("c", 4), ("d", 3)):
        for i in range(10):
            groups.append(g)
            y_pred.append(1 if i < rate else 0)
            y_true.append(i % 2)
    data = lp(y_true, y_pred, groups)
    wc_spd, _, _ = worst_case_metrics(data)
    assert wc_spd == pytest.approx(0.3, abs=1e-12)


def test_constant_predictions_zero_all_wc_metrics():
    data = lp([1, 0, 1, 0, 1, 0], [0] * 6, ["a", "a", "b", "b", "c", "c"])
    assert worst_case_metrics(data) == (0.0, 0.0, 0.0)
    data1 = lp([1, 0, 1, 0, 1, 0], [1] * 6, ["a", "a", "b", "b", "c", "c"])
    assert worst_case_metrics(data1) == (0.0, 0.0, 0.0)


def test_wc_aod_eod_constructed_rates():
    # group A: TPR 0.8 (4/5), FPR 0.4 (2/5); group B: TPR 0.5 (1/2), FPR 0.1 (1/10)
    y_true, y_pred, groups = [], [], []
    for _ in range(5):
        y_true.append(1), groups.append("A")
    y_pred += [1, 1, 1, 1, 0]
    for _ in range(5):
        y_true.append(0), groups.append("A")
    y_pred += [1, 1, 0, 0, 0]
    for _ in range(2):
        y_true.append(1), groups.append("B")
    y_pred += [1, 0]
    for _ in range(10):
        y_true.append(0), groups.append("B")
    y_pred += [1] + [0] * 9
    data = lp(y_true, y_pred, groups)
    wc_spd, wc_aod, wc_eod = worst_case_metrics(data)
    assert wc_aod == pytest.approx(0.3, abs=1e-12)
    assert wc_eod == pytest.approx(0.3, abs=1e-12)
    rows = [(t, p, g) for t, p, g in zip(y_true, y_pred, groups)]
    assert (wc_spd, wc_aod, wc_eod) == pytest.approx(oracle.wc_metrics(rows), abs=1e-12)


def test_ac_single_subgroup_is_zero():
    data = lp([1, 0, 1, 0], [1, 1, 0, 0], ["a"] * 4)
    assert average_case_metrics(data) == (0.0, 0.0, 0.0)


def test_ac_symmetric_two_groups():
    # equal sizes, favorable rates 0.6 and 0.2 -> population 0.4 -> ac_spd 0.2
    y_pred = [1, 1, 1, 0, 0] + [1, 0, 0, 0, 0]
    y_true = [1, 0, 1, 0, 1] + [0, 1, 0, 1, 0]
    data = lp(y_true, y_pred, ["a"] * 5 + ["b"] * 5)
    ac_spd, _, _ = average_case_metrics(data)
    assert ac_spd == pytest.approx(0.2, abs=1e-12)


def test_group_metrics_two_group_forms():
    y_pred = [1, 1, 1, 1, 1, 1, 1, 0, 0, 0] + [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    y_true = [1, 1, 1, 0, 0, 1, 1, 0, 0, 1] + [1, 1, 0, 0, 1, 1, 0, 0, 1, 0]
    groups = ["m"] * 10 + ["f"] * 10
    data = lp(y_true, y_pred, groups)
    spd, aod, eod = group_metrics(data, "g")
    assert spd == pytest.approx(0.3, abs=1e-12)
    rows = [(t, p, g) for t, p, g in zip(y_true, y_pred, groups)]
    assert (spd, aod, eod) == pytest.approx(oracle.group_metrics(rows), abs=1e-12)

    with pytest.raises(UsageError):
        group_metrics(data, "nope")
    with pytest.raises(UsageError, match="^group list for 'g' has wrong length$"):
        lp(y_true, y_pred, groups, singles={"g": tuple(groups[1:])})


def test_identical_group_behavior_zeroes_group_metrics():
    y_true = [1, 0, 1, 0]
    y_pred = [1, 0, 1, 0]
    data = lp(y_true, y_pred, ["a", "a", "b", "b"])
    assert group_metrics(data, "g") == (0.0, 0.0, 0.0)


def test_performance_known_confusion():
    # TP=40 FP=10 TN=35 FN=15
    y_true = [1] * 40 + [0] * 10 + [0] * 35 + [1] * 15
    y_pred = [1] * 40 + [1] * 10 + [0] * 35 + [0] * 15
    data = lp(y_true, y_pred, ["a"] * 50 + ["b"] * 50)
    got = performance_metrics(data)
    assert got[0] == pytest.approx(0.75, abs=1e-12)
    assert got == pytest.approx(oracle.performance(list(zip(y_true, y_pred))), abs=1e-12)


def test_performance_degenerate_cases():
    perfect = lp([1, 0, 1, 0], [1, 0, 1, 0], ["a"] * 4)
    assert performance_metrics(perfect) == pytest.approx((1, 1, 1, 1, 1))

    # TP=TN=FP=FN=5 -> accuracy 0.5, mcc 0
    y_true = [1] * 5 + [0] * 5 + [0] * 5 + [1] * 5
    y_pred = [1] * 5 + [1] * 5 + [0] * 5 + [0] * 5
    balanced = lp(y_true, y_pred, ["a"] * 20)
    got = performance_metrics(balanced)
    assert got[0] == pytest.approx(0.5) and got[4] == pytest.approx(0.0)

    # all-positive predictions: class-0 precision contributes 0 to the macro
    allpos = lp([1, 0, 1, 0], [1, 1, 1, 1], ["a"] * 4)
    _, macro_p, _, _, mcc = performance_metrics(allpos)
    assert macro_p == pytest.approx(0.25)  # (0.5 + 0.0) / 2
    assert mcc == 0.0

    # zero rows: no subgroup to average over, no row to score
    none = lp([], [], [])
    with pytest.raises(MetricUndefinedError, match="^no subgroups with test rows$"):
        average_case_metrics(none)
    with pytest.raises(UsageError, match="^need at least one row$"):
        performance_metrics(none)


def test_mcc_negates_when_classes_swap(rng):
    for _ in range(20):
        n = int(rng.integers(5, 40))
        y_true = rng.integers(0, 2, n)
        y_pred = rng.integers(0, 2, n)
        a = performance_metrics(lp(y_true, y_pred, ["a"] * n))[4]
        b = performance_metrics(lp(y_true, 1 - y_pred, ["a"] * n))[4]
        assert a == pytest.approx(-b, abs=1e-12)


def test_wc_invariant_under_subgroup_relabeling(rng):
    data, rows, names, combos = random_lp(rng)
    base = worst_case_metrics(data)
    # permute subgroup identities: swap every key by a fixed bijection
    perm = {c: p for c, p in zip(sorted(set(combos)),
                                 [tuple(reversed(c)) + ("swapped",) for c in sorted(set(combos))])}
    keys = tuple(SubgroupKey((("q", str(perm[c])),)) for c in combos)
    relabeled = LabeledPredictions(y_true=data.y_true, y_pred=data.y_pred, subgroup_of=keys,
                                   single_group_of={"q": tuple(str(perm[c]) for c in combos)})
    assert worst_case_metrics(relabeled) == pytest.approx(base, abs=1e-12)


def test_undefined_metrics_carry_exclusions():
    # one subgroup only -> worst-case undefined
    data = lp([1, 0], [1, 0], ["a", "a"])
    with pytest.raises(MetricUndefinedError):
        worst_case_metrics(data)
    # two subgroups but one has no positives -> TPR-based terms undefined
    data2 = lp([1, 1, 0, 0], [1, 0, 1, 0], ["a", "a", "b", "b"])
    with pytest.raises(MetricUndefinedError) as exc_info:
        worst_case_metrics(data2)
    assert any("no positive-label rows" in e for e in exc_info.value.exclusions)


def test_randomized_fixtures_match_oracle(rng):
    for _ in range(100):
        data, rows, names, combos = random_lp(rng)
        assert worst_case_metrics(data) == pytest.approx(oracle.wc_metrics(rows), abs=1e-12)
        assert average_case_metrics(data) == pytest.approx(oracle.ac_metrics(rows), abs=1e-12)
        assert performance_metrics(data) == pytest.approx(
            oracle.performance([(t, p) for t, p, _ in rows]), abs=1e-12)
        for i, name in enumerate(names):
            per_attr_rows = [(t, p, c[i]) for (t, p, _), c in zip(rows, combos)]
            assert group_metrics(data, name) == pytest.approx(
                oracle.group_metrics(per_attr_rows), abs=1e-12)


def test_report_flat_dict_shape(rng):
    data, _, names, _ = random_lp(rng)
    flat = compute_report(data).to_flat_dict()
    for key in ("wc_spd", "ac_eod", "accuracy", "mcc", "excluded_subgroups"):
        assert key in flat
    for name in names:
        assert f"spd_{name}" in flat
    for metric in ("wc_spd", "wc_aod", "wc_eod", "ac_spd", "ac_aod", "ac_eod"):
        assert 0.0 <= flat[metric] <= 1.0
    assert -1.0 <= flat["mcc"] <= 1.0


def test_zero_one_values_are_checked_before_the_int_cast():
    groups = {"g": ["a", "a", "b", "b"]}
    for y_true, y_pred, found in (([0.5, 1, 0, 1], [0, 1, 1, 0], "[0.5]"),
                                  ([0, 1, 0, 1], [0, 1, 2, 0], "[2]"),
                                  ([float("nan"), 1, 0, 1], [0, 1, 1, 0], "[nan]")):
        with pytest.raises(UsageError, match=rf"labels must be 0/1, found \{found}"):
            LabeledPredictions.from_columns(y_true, y_pred, groups)
    with pytest.raises(UsageError, match="labels must be 0/1 numbers, got <U1 values"):
        LabeledPredictions.from_columns(["0", "1", "0", "1"], [0, 1, 1, 0], groups)
    data = LabeledPredictions.from_columns([0, 1, 0, 1], [0, 1, 1, 0], groups)
    with pytest.raises(UsageError, match=r"labels must be 0/1, found \[0.7\]"):
        metric_matrix(data, [[0, 1, 1, 0], [0.7, 1, 1, 0]])
    # bools and the floats 0.0 and 1.0 are 0/1 numbers, read as the ints
    want = metric_matrix(data, [[0, 1, 1, 0]])[1]
    for y_true, y_pred in (([False, True, False, True], [[False, True, True, False]]),
                           ([0.0, 1.0, 0.0, 1.0], [[0.0, 1.0, 1.0, 0.0]])):
        same = LabeledPredictions.from_columns(y_true, y_pred[0], groups)
        assert same.y_true.tolist() == [0, 1, 0, 1] and same.y_pred.tolist() == [0, 1, 1, 0]
        assert metric_matrix(same, y_pred)[1].tolist() == want.tolist()
