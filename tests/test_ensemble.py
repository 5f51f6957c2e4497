import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairhome.data import Instance, protected_domains
from fairhome.ensemble import (
    EnsembleInputs,
    EnsembleStrategy,
    aggregate,
    fairhome_predict,
)
from fairhome.errors import UsageError
from fairhome.model import favorable
from fairhome.mutate import MutationStrategy

from conftest import make_dataset, make_schema


class RuleClassifier:
    """Probability computed by an arbitrary function of the raw instance."""

    def __init__(self, schema, fn):
        self.schema = schema
        self.fn = fn

    def predict_proba(self, instance):
        return float(self.fn(instance))


def test_majority_vote_rules():
    assert aggregate(EnsembleInputs((0.1, 0.2, 0.3, 0.9)), EnsembleStrategy.MAJORITY_VOTE) == 0
    # exactly 50% unfavorable is not "more than 50%", so favorable wins
    assert aggregate(EnsembleInputs((0.1, 0.2, 0.8, 0.9)), EnsembleStrategy.MAJORITY_VOTE) == 1


def test_averaging_rule():
    assert aggregate(EnsembleInputs((0.9, 0.2, 0.2, 0.2)), EnsembleStrategy.AVERAGING) == 0
    assert aggregate(EnsembleInputs((0.5, 0.5)), EnsembleStrategy.AVERAGING) == 1


def test_weighted_averaging_hand_example():
    # weights |p-0.5| = (0.4, 0.1, 0.1, 0.3); W = 0.7/0.9 ~ 0.778 -> favorable
    p = (0.9, 0.4, 0.6, 0.8)
    assert aggregate(EnsembleInputs(p), EnsembleStrategy.WEIGHTED_AVERAGING) == 1
    w = np.abs(np.array(p) - 0.5)
    assert float((w * p).sum() / w.sum()) == pytest.approx(0.7 / 0.9)


def test_weighted_averaging_zero_weight_fallback():
    assert aggregate(EnsembleInputs((0.5, 0.5, 0.5)), EnsembleStrategy.WEIGHTED_AVERAGING) == 1


def test_empty_inputs_rejected():
    with pytest.raises(UsageError):
        EnsembleInputs(())
    with pytest.raises(UsageError):
        EnsembleInputs((1.2,))


def test_aggregate_permutation_invariant(rng):
    for _ in range(50):
        p = tuple(rng.uniform(0, 1, int(rng.integers(1, 9))))
        q = tuple(rng.permutation(p))
        for strategy in EnsembleStrategy:
            assert aggregate(EnsembleInputs(p), strategy) == aggregate(EnsembleInputs(q), strategy)


def test_decisions_consistent_with_probabilities():
    assert favorable((0.49, 0.5, 0.51)).tolist() == [0, 1, 1]
    assert favorable(0.5) == 1 and favorable(0.49) == 0


def _reference_aggregate(p, strategy):
    """The per-strategy formulas written out one by one, each with its own rule."""
    p = np.asarray(p, dtype=float)
    if strategy is EnsembleStrategy.MAJORITY_VOTE:
        unfavorable = int((p < 0.5).sum())
        # unfavorable only when strictly more than half the votes are unfavorable
        return 0 if 2 * unfavorable > len(p) else 1
    if strategy is EnsembleStrategy.AVERAGING:
        return 1 if p.mean() >= 0.5 else 0
    w = np.abs(p - 0.5)
    total = w.sum()
    combined = p.mean() if total == 0.0 else float((w * p).sum() / total)
    return 1 if combined >= 0.5 else 0


_member = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                    st.floats(0.0, 1.0, allow_nan=False))
_below = st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_max=True))
_at_or_above = st.one_of(st.just(0.5), st.floats(0.5, 1.0))
# k votes each way: the majority-vote tie
_half_split = st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(_below, min_size=k, max_size=k), st.lists(_at_or_above, min_size=k, max_size=k),
)).map(lambda halves: halves[0] + halves[1])


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.lists(_member, min_size=1, max_size=9), _half_split),
       st.sampled_from(list(EnsembleStrategy)))
def test_aggregate_matches_per_strategy_reference(p, strategy):
    assert aggregate(EnsembleInputs(tuple(p)), strategy) == _reference_aggregate(p, strategy)


def test_averaging_agrees_with_weighted_when_equidistant(rng):
    # all members the same distance from 0.5 on the same side
    for _ in range(30):
        delta = float(rng.uniform(0.01, 0.5))
        side = 1 if rng.random() < 0.5 else -1
        p = tuple(min(1.0, max(0.0, 0.5 + side * delta))
                  for _ in range(int(rng.integers(1, 8))))
        assert (aggregate(EnsembleInputs(p), EnsembleStrategy.AVERAGING)
                == aggregate(EnsembleInputs(p), EnsembleStrategy.WEIGHTED_AVERAGING))


def _four_combo_domains():
    schema = make_schema()
    rows = [("M", "W", 1.0, "a"), ("F", "W", 2.0, "a"),
            ("M", "N", 3.0, "b"), ("F", "N", 4.0, "b")]
    ds = make_dataset(schema, rows, [1, 0, 1, 0])
    return schema, ds, protected_domains(ds)


def test_non_protected_classifier_matches_plain_decision():
    schema, ds, dom = _four_combo_domains()
    clf = RuleClassifier(schema, lambda inst: 0.2 + 0.05 * inst.values[2])
    for inst in ds.instances():
        plain = 1 if clf.predict_proba(inst) >= 0.5 else 0
        for strategy in EnsembleStrategy:
            assert fairhome_predict(clf, inst, dom, ensemble=strategy) == plain


def test_sex_based_classifier_gets_uniform_vote():
    # 2 of 4 members carry sex=M -> 50/50 vote -> favorable for every input
    schema, ds, dom = _four_combo_domains()
    clf = RuleClassifier(schema, lambda inst: 1.0 if inst.values[0] == "M" else 0.0)
    decisions = {fairhome_predict(clf, inst, dom) for inst in ds.instances()}
    assert decisions == {1}


def test_protected_attribute_invariance_property(rng):
    schema, ds, dom = _four_combo_domains()
    for trial in range(60):
        table = {c: rng.uniform(0, 1) for c in dom.joint_combos}
        slope = rng.uniform(-0.05, 0.05)
        clf = RuleClassifier(
            schema,
            lambda inst, t=table, s=slope: min(1.0, max(0.0, t[(inst.values[0], inst.values[1])]
                                                        + s * inst.values[2])),
        )
        combo_a, combo_b = [dom.joint_combos[i] for i in rng.choice(4, size=2, replace=False)]
        shared = (float(rng.uniform(0, 5)), str(rng.choice(["a", "b"])))
        inst_a = Instance((*combo_a, *shared))
        inst_b = Instance((*combo_b, *shared))
        for strategy in EnsembleStrategy:
            assert (fairhome_predict(clf, inst_a, dom, ensemble=strategy)
                    == fairhome_predict(clf, inst_b, dom, ensemble=strategy))


def test_single_combo_degrades_to_plain_decision():
    schema = make_schema()
    rows = [("M", "W", 1.0, "a"), ("M", "W", 2.0, "b")]
    ds = make_dataset(schema, rows, [1, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dom = protected_domains(ds)
    clf = RuleClassifier(schema, lambda inst: 0.3)
    for strategy in EnsembleStrategy:
        assert fairhome_predict(clf, ds.instance(0), dom, ensemble=strategy) == 0

