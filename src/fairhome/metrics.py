"""Intersectional fairness metrics, single-attribute group fairness, and ML performance.

Every value is derived from one (R, groups, 4) table of (tn, fp, fn, tp) counts
per prediction vector and group (each intersectional subgroup, then each group of
every protected attribute), each fairness metric as one array expression over its
R rows. Group keys are factored into integer codes once per ``LabeledPredictions``,
in first-appearance order, and one offset ``np.bincount`` fills the table.

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


def _counting_table(data: LabeledPredictions, y_pred: np.ndarray) -> tuple:
    """The subgroups' terms, each attribute's terms by name, and the population's (R, 4)
    counts, from one (R, groups, 4) table of (tn, fp, fn, tp) per prediction row and group."""
    groupings, codes = data.group_codes
    r, n_groups = len(y_pred), sum(map(len, groupings))
    cells = 2 * data.y_true + y_pred[:, None, :]
    index = (np.arange(r)[:, None, None] * n_groups + codes) * 4 + cells
    table = np.bincount(index.ravel(), minlength=r * n_groups * 4).reshape(r, n_groups, 4)
    labels = np.bincount((2 * codes + data.y_true).ravel(), minlength=2 * n_groups).reshape(-1, 2)
    edges = np.cumsum([0, *map(len, groupings)]).tolist()
    terms = [_terms(keys, table[:, a:b], labels[a:b])
             for keys, a, b in zip(groupings, edges, edges[1:])]
    return terms[0], dict(zip(data.single_group_of, terms[1:])), table[:, :edges[1]].sum(axis=1)


def _terms(keys, counts, labels):
    """Favorable rates of all groups, TPRs of groups with positive labels, FPRs and TPRs
    of groups with both labels, each an (R, groups) array of int64-by-int64 divisions,
    and why any group was left out of a term, which the (negatives, positives) ``labels``
    alone decide. Picked arrays are made C-contiguous, so a row's mean sums as a 1-D one."""
    negatives, positives = labels.T
    has_positive, has_both = positives > 0, (positives > 0) & (negatives > 0)
    exclusions = [f"{key.label() if isinstance(key, SubgroupKey) else str(key)}: " + (
        "no negative-label rows (FPR undefined)" if positive
        else "no positive-label rows (TPR undefined)")
        for key, positive, both in zip(keys, has_positive, has_both) if not both]
    fp, tp = counts[..., 1], counts[..., 3]
    return ((fp + tp) / labels.sum(axis=1),
            np.ascontiguousarray(tp[:, has_positive]) / positives[has_positive],
            np.ascontiguousarray(fp[:, has_both]) / negatives[has_both],
            np.ascontiguousarray(tp[:, has_both]) / positives[has_both],
            exclusions)


def _spread(values):
    return values.max(axis=1) - values.min(axis=1)


def _worst_case(subgroups):
    rates, tprs, fprs, both_tprs, exclusions = subgroups
    if rates.shape[1] < 2:
        raise MetricUndefinedError("fewer than 2 subgroups with test rows", exclusions)
    if tprs.shape[1] < 2:
        raise MetricUndefinedError("fewer than 2 subgroups eligible for TPR terms", exclusions)
    if fprs.shape[1] < 2:
        raise MetricUndefinedError("fewer than 2 subgroups eligible for FPR terms", exclusions)
    return np.column_stack([_spread(rates), 0.5 * _spread(fprs + both_tprs), _spread(tprs)])


def _average_case(subgroups, population):
    # with no positive (negative) labels at all, no group is eligible for TPR (FPR) terms
    rates, tprs, fprs, both_tprs, exclusions = subgroups
    if rates.shape[1] < 1:
        raise MetricUndefinedError("no subgroups with test rows", exclusions)
    if tprs.shape[1] < 1:
        raise MetricUndefinedError("no positive-label rows for TPR terms", exclusions)
    if fprs.shape[1] < 1:
        raise MetricUndefinedError("no negative-label rows for FPR terms", exclusions)
    tn, fp, fn, tp = (column[:, None] for column in population.T)
    pop_rate, pop_tpr, pop_fpr = (fp + tp) / (tn + fp + fn + tp), tp / (fn + tp), fp / (tn + fp)
    return np.column_stack([
        np.abs(rates - pop_rate).mean(axis=1),
        (0.5 * (np.abs(fprs - pop_fpr) + np.abs(both_tprs - pop_tpr))).mean(axis=1),
        np.abs(tprs - pop_tpr).mean(axis=1)])


def _group(attribute, groups):
    # a group eligible for FPR terms has both labels, so it is eligible for every term
    rates, tprs, fprs, both_tprs, exclusions = groups
    if fprs.shape[1] < 2:
        raise MetricUndefinedError(
            f"fewer than 2 eligible groups for attribute {attribute!r}", exclusions)
    return np.column_stack([_spread(rates), 0.5 * (_spread(fprs) + _spread(both_tprs)),
                            _spread(tprs)])


def _performance(population):
    tn, fp, fn, tp = population
    n = tn + fp + fn + tp
    if n == 0:
        raise UsageError("need at least one row")

    def prf(tp_c, fp_c, fn_c):
        precision = tp_c / (tp_c + fp_c) if tp_c + fp_c > 0 else 0.0
        recall = tp_c / (tp_c + fn_c) if tp_c + fn_c > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        return precision, recall, f1

    p1, r1, f1_1 = prf(tp, fp, fn)
    p0, r0, f1_0 = prf(tn, fn, fp)  # class 0: predicted-0 rows are its "positives"
    denom = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = 0.0 if denom == 0 else (tp * tn - fp * fn) / denom
    return (tp + tn) / n, (p1 + p0) / 2, (r1 + r0) / 2, (f1_1 + f1_0) / 2, mcc


def _own_predictions(data: LabeledPredictions):
    return _counting_table(data, data.y_pred[np.newaxis])


def worst_case_metrics(data: LabeledPredictions):
    """Max-minus-min of favorable rate, FPR+TPR average, and TPR across subgroups."""
    return tuple(_worst_case(_own_predictions(data)[0])[0].tolist())


def average_case_metrics(data: LabeledPredictions):
    """Mean absolute deviation of each subgroup's rates from the population's."""
    subgroups, _, population = _own_predictions(data)
    return tuple(_average_case(subgroups, population)[0].tolist())


def group_metrics(data: LabeledPredictions, attribute: str):
    """SPD/AOD/EOD for one protected attribute.

    Two groups give the absolute-difference form; more than two fall back to
    the max-minus-min spread per term.
    """
    if attribute not in data.single_group_of:
        raise UsageError(f"{attribute!r} is not a protected attribute of this data")
    return tuple(_group(attribute, _own_predictions(data)[1][attribute])[0].tolist())


def performance_metrics(data: LabeledPredictions):
    """Accuracy, macro precision/recall/F1 over both classes, and MCC."""
    return _performance(_own_predictions(data)[2][0].tolist())


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


def metric_matrix(data: LabeledPredictions, y_pred) -> tuple:
    """Each row of an (R, N) 0/1 matrix scored in place of ``data.y_pred``: the flat
    metric names (``to_flat_dict``'s but ``excluded_subgroups``), an (R, metrics)
    matrix of their values, and the excluded subgroups, which every row shares."""
    y_pred = np.asarray(y_pred, dtype=int)
    if y_pred.ndim != 2 or y_pred.shape[1] != len(data):
        raise UsageError(f"prediction matrix must have shape (R, {len(data)}), got {y_pred.shape}")
    _check_binary(y_pred)
    subgroups, per_attribute, population = _counting_table(data, y_pred)
    names = [*FAIRNESS_METRICS, *PERFORMANCE_METRICS,
             *(f"{metric}_{attr}" for attr in per_attribute for metric in ("spd", "aod", "eod"))]
    # in order, so the first undefined metric raises; Python ints keep MCC from overflowing
    values = np.hstack([
        _worst_case(subgroups), _average_case(subgroups, population),
        np.array([_performance(row) for row in population.tolist()]).reshape(-1, 5),
        *(_group(attr, terms) for attr, terms in per_attribute.items())])
    return names, values, tuple(subgroups[-1])


def compute_reports(data: LabeledPredictions, y_pred) -> list:
    """One report per row of an (R, N) 0/1 matrix, each row scored in place of
    ``data.y_pred`` against ``data``'s labels and groups, from one metric matrix."""
    names, values, excluded = metric_matrix(data, y_pred)
    core = len(FAIRNESS_METRICS + PERFORMANCE_METRICS)
    return [MetricReport(*row[:core], excluded_subgroups=excluded, per_attribute={
        attr: dict(zip(("spd", "aod", "eod"), row[start:start + 3]))
        for attr, start in zip(data.single_group_of, range(core, len(names), 3))})
        for row in values.tolist()]


def compute_report(data: LabeledPredictions) -> MetricReport:
    """Evaluate every fairness and performance metric for one prediction set."""
    return compute_reports(data, data.y_pred[np.newaxis])[0]
