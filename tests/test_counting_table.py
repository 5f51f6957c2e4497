"""Property tests: the counting-table metrics against slow references.

Two references. The brute-force oracle in ``oracle.py`` must agree to 1e-12
wherever every metric is defined. The per-row dict implementation below
follows the package's term definitions, eligibility rules and first-appearance
key order, so it must agree exactly: every value, the order of
``excluded_subgroups``, and the type, message and exclusions of the error
raised when a metric is undefined. The batched Fairea curve must equal a loop
that scores one repetition at a time.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairhome.data import SubgroupKey
from fairhome.errors import MetricUndefinedError, UsageError
from fairhome.fairea import majority_class, mutation_curve
from fairhome.metrics import (
    LabeledPredictions,
    MetricReport,
    average_case_metrics,
    compute_report,
    compute_reports,
    group_metrics,
    performance_metrics,
    worst_case_metrics,
)

import oracle

PROPERTY = settings(deadline=None, max_examples=200)


# ---- slow reference: one dict of counters per group key, filled row by row ----

class _Counts:
    def __init__(self):
        self.n = self.n_pos = self.n_neg = self.pred_pos = self.tp = self.fp = 0

    rate = property(lambda self: self.pred_pos / self.n)
    tpr = property(lambda self: self.tp / self.n_pos)
    fpr = property(lambda self: self.fp / self.n_neg)


def _counts_by(keys, y_true, y_pred) -> dict:
    out = {}
    for key, yt, yp in zip(keys, y_true, y_pred):
        c = out.setdefault(key, _Counts())
        c.n += 1
        c.pred_pos += int(yp == 1)
        if yt == 1:
            c.n_pos += 1
            c.tp += int(yp == 1)
        else:
            c.n_neg += 1
            c.fp += int(yp == 1)
    return out


def _eligibility(groups):
    eod, aod, exclusions = [], [], []
    for key, c in groups.items():
        label = key.label() if isinstance(key, SubgroupKey) else str(key)
        if c.n_pos >= 1:
            eod.append(c)
        else:
            exclusions.append(f"{label}: no positive-label rows (TPR undefined)")
        if c.n_pos >= 1 and c.n_neg >= 1:
            aod.append(c)
        elif c.n_pos >= 1:
            exclusions.append(f"{label}: no negative-label rows (FPR undefined)")
    return list(groups.values()), eod, aod, exclusions


def _spread(values):
    return max(values) - min(values)


def slow_worst_case(data):
    spd, eod, aod, exclusions = _eligibility(_counts_by(data.subgroup_of, data.y_true, data.y_pred))
    if len(spd) < 2:
        raise MetricUndefinedError("fewer than 2 subgroups with test rows", exclusions)
    if len(eod) < 2:
        raise MetricUndefinedError("fewer than 2 subgroups eligible for TPR terms", exclusions)
    if len(aod) < 2:
        raise MetricUndefinedError("fewer than 2 subgroups eligible for FPR terms", exclusions)
    return (_spread([c.rate for c in spd]), 0.5 * _spread([c.fpr + c.tpr for c in aod]),
            _spread([c.tpr for c in eod]))


def slow_average_case(data):
    spd, eod, aod, exclusions = _eligibility(_counts_by(data.subgroup_of, data.y_true, data.y_pred))
    pop = _counts_by([None] * len(data), data.y_true, data.y_pred).get(None, _Counts())
    if len(spd) < 1:
        raise MetricUndefinedError("no subgroups with test rows", exclusions)
    if pop.n_pos < 1 or len(eod) < 1:
        raise MetricUndefinedError("no positive-label rows for TPR terms", exclusions)
    if pop.n_neg < 1 or len(aod) < 1:
        raise MetricUndefinedError("no negative-label rows for FPR terms", exclusions)
    return (
        float(np.mean([abs(c.rate - pop.rate) for c in spd])),
        float(np.mean([0.5 * (abs(c.fpr - pop.fpr) + abs(c.tpr - pop.tpr)) for c in aod])),
        float(np.mean([abs(c.tpr - pop.tpr) for c in eod])),
    )


def slow_group(data, attribute):
    groups = _counts_by(data.single_group_of[attribute], data.y_true, data.y_pred)
    spd, eod, aod, exclusions = _eligibility(groups)
    if len(spd) < 2 or len(eod) < 2 or len(aod) < 2:
        raise MetricUndefinedError(
            f"fewer than 2 eligible groups for attribute {attribute!r}", exclusions)
    return (_spread([c.rate for c in spd]),
            0.5 * (_spread([c.fpr for c in aod]) + _spread([c.tpr for c in aod])),
            _spread([c.tpr for c in eod]))


def slow_performance(data):
    tp = fp = tn = fn = 0
    for yt, yp in zip(data.y_true, data.y_pred):
        tp += int(yt == 1 and yp == 1)
        fp += int(yt == 0 and yp == 1)
        tn += int(yt == 0 and yp == 0)
        fn += int(yt == 1 and yp == 0)

    def prf(tp_c, fp_c, fn_c):
        p = tp_c / (tp_c + fp_c) if tp_c + fp_c > 0 else 0.0
        r = tp_c / (tp_c + fn_c) if tp_c + fn_c > 0 else 0.0
        return p, r, 2 * p * r / (p + r) if p + r > 0 else 0.0

    p1, r1, f1 = prf(tp, fp, fn)
    p0, r0, f0 = prf(tn, fn, fp)
    denom = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = 0.0 if denom == 0 else (tp * tn - fp * fn) / denom
    return (tp + tn) / len(data), (p1 + p0) / 2, (r1 + r0) / 2, (f1 + f0) / 2, mcc


def slow_report(data):
    wc = slow_worst_case(data)
    ac = slow_average_case(data)
    perf = slow_performance(data)
    per_attribute = {
        attr: dict(zip(("spd", "aod", "eod"), slow_group(data, attr)))
        for attr in data.single_group_of
    }
    groups = _counts_by(data.subgroup_of, data.y_true, data.y_pred)
    return MetricReport(*wc, *ac, *perf, per_attribute=per_attribute,
                        excluded_subgroups=tuple(_eligibility(groups)[3]))


# ---- inputs ----

@st.composite
def labeled_predictions(draw, max_rows=40, defined=False):
    """1-3 protected attributes over small domains, so groups often lack a label.

    ``defined`` adds a positive and a negative row for every drawn combination
    and for the all-"a" and all-"b" ones, so every metric is defined.
    """
    n_attrs = draw(st.integers(1, 3))
    values = st.tuples(*[st.sampled_from("abc")] * n_attrs)
    bit = st.integers(0, 1)
    rows = draw(st.lists(st.tuples(bit, bit, values), min_size=1, max_size=max_rows))
    if defined:
        combos = dict.fromkeys([r[2] for r in rows] + [("a",) * n_attrs, ("b",) * n_attrs])
        rows += [(label, draw(bit), combo) for combo in combos for label in (0, 1)]
    names = tuple(f"p{i}" for i in range(n_attrs))
    return LabeledPredictions(
        y_true=np.array([r[0] for r in rows]), y_pred=np.array([r[1] for r in rows]),
        subgroup_of=tuple(SubgroupKey(tuple(zip(names, r[2]))) for r in rows),
        single_group_of={name: tuple(r[2][i] for r in rows) for i, name in enumerate(names)},
    )


def outcome(fn, *args):
    """A metric call's exact result: ordered values, or the error's type, message and exclusions."""
    try:
        value = fn(*args)
    except MetricUndefinedError as e:
        return ("undefined", str(e), e.exclusions)
    if isinstance(value, list):
        return [list(report.to_flat_dict().items()) for report in value]
    return list(value.to_flat_dict().items()) if isinstance(value, MetricReport) else value


# ---- properties ----

@PROPERTY
@given(labeled_predictions())
def test_table_metrics_equal_dict_reference_exactly(data):
    assert outcome(compute_report, data) == outcome(slow_report, data)
    assert outcome(worst_case_metrics, data) == outcome(slow_worst_case, data)
    assert outcome(average_case_metrics, data) == outcome(slow_average_case, data)
    assert performance_metrics(data) == slow_performance(data)
    for attr in data.single_group_of:
        assert outcome(group_metrics, data, attr) == outcome(slow_group, data, attr)


@PROPERTY
@given(labeled_predictions(defined=True))
def test_table_metrics_match_oracle(data):
    report = compute_report(data)
    rows = list(zip(data.y_true.tolist(), data.y_pred.tolist(), data.subgroup_of))
    assert (report.wc_spd, report.wc_aod, report.wc_eod) == pytest.approx(
        oracle.wc_metrics(rows), abs=1e-12)
    assert (report.ac_spd, report.ac_aod, report.ac_eod) == pytest.approx(
        oracle.ac_metrics(rows), abs=1e-12)
    assert (report.accuracy, report.macro_precision, report.macro_recall, report.macro_f1,
            report.mcc) == pytest.approx(oracle.performance([r[:2] for r in rows]), abs=1e-12)
    for attr, groups in data.single_group_of.items():
        per_attr = [(t, p, g) for (t, p, _), g in zip(rows, groups)]
        got = report.per_attribute[attr]
        assert (got["spd"], got["aod"], got["eod"]) == pytest.approx(
            oracle.group_metrics(per_attr), abs=1e-12)


@PROPERTY
@given(labeled_predictions(), st.data())
def test_one_matrix_call_equals_one_report_per_row(data, drawn):
    matrix = np.array(drawn.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=len(data), max_size=len(data)),
        min_size=1, max_size=4)))
    assert outcome(compute_reports, data, matrix) == outcome(
        lambda: [compute_report(data.with_predictions(row)) for row in matrix])


def per_rep_curve(preds, degrees, reps, seed):
    """The curve scored one repetition at a time."""
    n = len(preds)
    majority = majority_class(preds.y_true)
    rng = np.random.default_rng(seed)
    curve = []
    for degree in degrees:
        k = int(degree * n)
        if k == 0 or k == n:
            mutated = preds.y_pred.copy()
            mutated[:k] = majority
            flat = compute_report(preds.with_predictions(mutated)).to_flat_dict()
            curve.append({key: v for key, v in flat.items() if isinstance(v, float)})
            continue
        acc = {}
        for _ in range(reps):
            mutated = preds.y_pred.copy()
            mutated[rng.choice(n, size=k, replace=False)] = majority
            for key, value in compute_report(preds.with_predictions(mutated)).to_flat_dict().items():
                if isinstance(value, float):
                    acc[key] = acc.get(key, 0.0) + value
        curve.append({key: total / reps for key, total in acc.items()})
    return curve


@PROPERTY
@given(labeled_predictions(defined=True),
       st.lists(st.floats(0.0, 1.0, allow_nan=False), max_size=6),
       st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_batched_curve_equals_per_rep_loop(preds, interior, reps, seed):
    degrees = (0.0, *sorted(interior), 1.0)
    batched = mutation_curve(preds, degrees, reps, seed)
    reference = per_rep_curve(preds, degrees, reps, seed)
    assert [list(point.items()) for point in batched] == \
           [list(point.items()) for point in reference]


def test_copies_share_group_codes_and_matrices_are_checked():
    keys = tuple(SubgroupKey((("g", g),)) for g in "abab")
    data = LabeledPredictions(y_true=[1, 0, 0, 1], y_pred=[1, 1, 0, 0], subgroup_of=keys,
                              single_group_of={"g": tuple("abab")})
    copy = data.with_predictions([0, 0, 1, 1])
    assert copy.group_codes is data.group_codes
    assert copy.group_codes[0] == (keys[:2], ("a", "b"))
    assert copy.group_codes[1].tolist() == [[0, 1, 0, 1], [2, 3, 2, 3]]
    assert compute_reports(data, np.zeros((0, 4), dtype=int)) == []
    for bad in ([0, 1, 0, 1], [[0, 1, 0]], [[0, 1, 2, 1]]):
        with pytest.raises(UsageError):
            compute_reports(data, bad)
    with pytest.raises(UsageError):
        data.with_predictions([1, 0])
