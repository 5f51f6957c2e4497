"""Intersectional fairness metrics, single-attribute group fairness, and ML performance.

Every value is derived from one table of (tn, fp, fn, tp) counts per prediction
vector and group: each intersectional subgroup, then each group of every
protected attribute. Group keys are factored into integer codes once per
``LabeledPredictions``, in first-appearance order, and one offset
``np.bincount`` fills the table for a whole (R, N) prediction matrix.

Worst-case metrics take the max-minus-min spread across subgroups; average-case
metrics take the mean absolute deviation from the population rate. Subgroups
lacking the rows a term needs (e.g. no positive labels for a TPR) are excluded
from that term and reported, rather than imputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, SubgroupKey
from .errors import MetricUndefinedError, UsageError

FAIRNESS_METRICS = ("wc_spd", "wc_aod", "wc_eod", "ac_spd", "ac_aod", "ac_eod")
PERFORMANCE_METRICS = ("accuracy", "macro_precision", "macro_recall", "macro_f1", "mcc")


def _check_binary(arr) -> None:
    bad = set(np.unique(arr)) - {0, 1}
    if bad:
        raise UsageError(f"labels must be 0/1, found {sorted(bad)}")


@dataclass
class LabeledPredictions:
    """Parallel truth/prediction vectors with subgroup and per-attribute group keys."""

    y_true: np.ndarray
    y_pred: np.ndarray
    subgroup_of: tuple
    single_group_of: dict

    def __post_init__(self):
        self.y_true = np.asarray(self.y_true, dtype=int)
        self.y_pred = np.asarray(self.y_pred, dtype=int)
        n = len(self.y_true)
        if len(self.y_pred) != n or len(self.subgroup_of) != n:
            raise UsageError("y_true, y_pred, and subgroup_of must have equal lengths")
        for attr, groups in self.single_group_of.items():
            if len(groups) != n:
                raise UsageError(f"group list for {attr!r} has wrong length")
        for arr in (self.y_true, self.y_pred):
            _check_binary(arr)
        self._codes = None

    @classmethod
    def from_columns(cls, y_true, y_pred, groups: dict) -> "LabeledPredictions":
        """``groups`` holds each protected attribute's column of group values."""
        singles = {name: tuple(column) for name, column in groups.items()}
        subgroups = tuple(SubgroupKey(tuple(zip(singles, combo)))
                          for combo in zip(*singles.values()))
        return cls(y_true, y_pred, subgroup_of=subgroups, single_group_of=singles)

    @classmethod
    def from_dataset(cls, test: Dataset, y_pred) -> "LabeledPredictions":
        schema = test.schema
        return cls.from_columns(test.labels, y_pred, {
            name: [row[i] for row in test.rows]
            for name, i in zip(schema.protected, schema.protected_indices)})

    @property
    def group_codes(self) -> tuple:
        """Per grouping (the subgroups, then each protected attribute) its keys in
        first-appearance order, and each row's position on one shared group axis
        as a (groupings, N) array."""
        if self._codes is None:
            keys, codes, offset = [], [], 0
            for column in (self.subgroup_of, *self.single_group_of.values()):
                index: dict = {}
                codes.append([offset + index.setdefault(k, len(index)) for k in column])
                keys.append(tuple(index))
                offset += len(index)
            self._codes = tuple(keys), np.array(codes, dtype=np.intp)
        return self._codes

    def with_predictions(self, y_pred) -> "LabeledPredictions":
        """The same rows and groups with other predictions, sharing the group codes."""
        copy = LabeledPredictions(self.y_true, y_pred, self.subgroup_of, self.single_group_of)
        copy._codes = self.group_codes
        return copy

    def __len__(self) -> int:
        return len(self.y_true)


def _counting_table(data: LabeledPredictions, y_pred: np.ndarray) -> list:
    """Per prediction row: the subgroups' terms, each attribute's terms by name,
    and the population's (tn, fp, fn, tp). Counts are Python ints, so every
    rate is an exact int-by-int division."""
    groupings, codes = data.group_codes
    r, n_groups = len(y_pred), sum(map(len, groupings))
    cells = 2 * data.y_true + y_pred[:, None, :]
    index = (np.arange(r)[:, None, None] * n_groups + codes) * 4 + cells
    table = np.bincount(index.ravel(), minlength=r * n_groups * 4).reshape(r, n_groups, 4)
    ends = np.cumsum([len(keys) for keys in groupings]).tolist()
    out = []
    for row, population in zip(table.tolist(), table[:, :ends[0]].sum(axis=1).tolist()):
        terms = [_terms(keys, row[end - len(keys):end]) for keys, end in zip(groupings, ends)]
        out.append((terms[0], dict(zip(data.single_group_of, terms[1:])), population))
    return out


def _terms(keys, counts):
    """Favorable rates of all groups, TPRs of groups with positive labels, (FPR, TPR)
    of groups with both labels, and why any group was left out of a term."""
    rates, tprs, fpr_tprs, exclusions = [], [], [], []
    for key, (tn, fp, fn, tp) in zip(keys, counts):
        label = key.label() if isinstance(key, SubgroupKey) else str(key)
        rates.append((fp + tp) / (tn + fp + fn + tp))
        if fn + tp == 0:
            exclusions.append(f"{label}: no positive-label rows (TPR undefined)")
            continue
        tprs.append(tp / (fn + tp))
        if tn + fp == 0:
            exclusions.append(f"{label}: no negative-label rows (FPR undefined)")
        else:
            fpr_tprs.append((fp / (tn + fp), tp / (fn + tp)))
    return rates, tprs, fpr_tprs, exclusions


def _spread(values) -> float:
    return max(values) - min(values)


def _worst_case(subgroups):
    rates, tprs, fpr_tprs, exclusions = subgroups
    if len(rates) < 2:
        raise MetricUndefinedError("fewer than 2 subgroups with test rows", exclusions)
    if len(tprs) < 2:
        raise MetricUndefinedError("fewer than 2 subgroups eligible for TPR terms", exclusions)
    if len(fpr_tprs) < 2:
        raise MetricUndefinedError("fewer than 2 subgroups eligible for FPR terms", exclusions)
    return _spread(rates), 0.5 * _spread([f + t for f, t in fpr_tprs]), _spread(tprs)


def _average_case(subgroups, population):
    rates, tprs, fpr_tprs, exclusions = subgroups
    tn, fp, fn, tp = population
    if len(rates) < 1:
        raise MetricUndefinedError("no subgroups with test rows", exclusions)
    if fn + tp < 1 or len(tprs) < 1:
        raise MetricUndefinedError("no positive-label rows for TPR terms", exclusions)
    if tn + fp < 1 or len(fpr_tprs) < 1:
        raise MetricUndefinedError("no negative-label rows for FPR terms", exclusions)
    pop_rate, pop_tpr, pop_fpr = (fp + tp) / (tn + fp + fn + tp), tp / (fn + tp), fp / (tn + fp)
    ac_spd = float(np.mean([abs(rate - pop_rate) for rate in rates]))
    ac_aod = float(np.mean([
        0.5 * (abs(fpr - pop_fpr) + abs(tpr - pop_tpr)) for fpr, tpr in fpr_tprs
    ]))
    ac_eod = float(np.mean([abs(tpr - pop_tpr) for tpr in tprs]))
    return ac_spd, ac_aod, ac_eod


def _group(attribute, groups):
    rates, tprs, fpr_tprs, exclusions = groups
    if len(rates) < 2 or len(tprs) < 2 or len(fpr_tprs) < 2:
        raise MetricUndefinedError(
            f"fewer than 2 eligible groups for attribute {attribute!r}", exclusions
        )
    aod = 0.5 * (_spread([f for f, _ in fpr_tprs]) + _spread([t for _, t in fpr_tprs]))
    return _spread(rates), aod, _spread(tprs)


def _performance(population):
    tn, fp, fn, tp = population
    n = tn + fp + fn + tp
    if n == 0:
        raise UsageError("need at least one row")
    accuracy = (tp + tn) / n

    def prf(tp_c, fp_c, fn_c):
        precision = tp_c / (tp_c + fp_c) if tp_c + fp_c > 0 else 0.0
        recall = tp_c / (tp_c + fn_c) if tp_c + fn_c > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        return precision, recall, f1

    p1, r1, f1_1 = prf(tp, fp, fn)
    p0, r0, f1_0 = prf(tn, fn, fp)  # class 0: predicted-0 rows are its "positives"
    macro_p = (p1 + p0) / 2
    macro_r = (r1 + r0) / 2
    macro_f1 = (f1_1 + f1_0) / 2

    denom = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = 0.0 if denom == 0 else (tp * tn - fp * fn) / denom
    return accuracy, macro_p, macro_r, macro_f1, mcc


def _own_predictions(data: LabeledPredictions):
    return _counting_table(data, data.y_pred[np.newaxis])[0]


def worst_case_metrics(data: LabeledPredictions):
    """Max-minus-min of favorable rate, FPR+TPR average, and TPR across subgroups."""
    return _worst_case(_own_predictions(data)[0])


def average_case_metrics(data: LabeledPredictions):
    """Mean absolute deviation of each subgroup's rates from the population's."""
    subgroups, _, population = _own_predictions(data)
    return _average_case(subgroups, population)


def group_metrics(data: LabeledPredictions, attribute: str):
    """SPD/AOD/EOD for one protected attribute.

    Two groups give the absolute-difference form; more than two fall back to
    the max-minus-min spread per term.
    """
    if attribute not in data.single_group_of:
        raise UsageError(f"{attribute!r} is not a protected attribute of this data")
    return _group(attribute, _own_predictions(data)[1][attribute])


def performance_metrics(data: LabeledPredictions):
    """Accuracy, macro precision/recall/F1 over both classes, and MCC."""
    return _performance(_own_predictions(data)[2])


@dataclass
class MetricReport:
    """Six intersectional fairness values plus five ML performance values."""

    wc_spd: float
    wc_aod: float
    wc_eod: float
    ac_spd: float
    ac_aod: float
    ac_eod: float
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    mcc: float
    per_attribute: dict = field(default_factory=dict)
    excluded_subgroups: tuple = ()

    def to_flat_dict(self) -> dict:
        out = {name: getattr(self, name) for name in FAIRNESS_METRICS + PERFORMANCE_METRICS}
        for attr, vals in self.per_attribute.items():
            for metric, v in vals.items():
                out[f"{metric}_{attr}"] = v
        out["excluded_subgroups"] = ";".join(self.excluded_subgroups)
        return out


def _report(subgroups, per_attribute, population) -> MetricReport:
    # arguments evaluate left to right: the first undefined metric is the one reported
    return MetricReport(
        *_worst_case(subgroups), *_average_case(subgroups, population), *_performance(population),
        per_attribute={attr: dict(zip(("spd", "aod", "eod"), _group(attr, terms)))
                       for attr, terms in per_attribute.items()},
        excluded_subgroups=tuple(subgroups[3]),
    )


def compute_reports(data: LabeledPredictions, y_pred) -> list:
    """One report per row of an (R, N) 0/1 matrix, each row scored in place of
    ``data.y_pred`` against ``data``'s labels and groups, from one counting table."""
    y_pred = np.asarray(y_pred, dtype=int)
    if y_pred.ndim != 2 or y_pred.shape[1] != len(data):
        raise UsageError(f"prediction matrix must have shape (R, {len(data)}), got {y_pred.shape}")
    _check_binary(y_pred)
    return [_report(*row) for row in _counting_table(data, y_pred)]


def compute_report(data: LabeledPredictions) -> MetricReport:
    """Evaluate every fairness and performance metric for one prediction set."""
    return compute_reports(data, data.y_pred[np.newaxis])[0]
