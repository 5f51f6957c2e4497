"""Aggregate classifier outputs on an input and its mutants into one decision.

``fairhome_predict`` takes one ``Instance`` (and returns an int) or a sequence
of them (and returns an array). A classifier with ``encoding`` and ``proba_matrix``
(both trained models) takes the batch engine: one ``member_probabilities`` call,
then one reduction per own-combination group. That call encodes the inputs once;
each mutant row is its input's row with the protected one-hot columns (and, for
correlated-features mutation, the numeric ones) rewritten, byte for byte the row
``encode`` gives the mutant, and one ``proba_matrix`` call scores every row. The
protected cells of the members come from a template built once per encoding and
protected domains and kept with the model (``EncodingMap.member_template``); a call
builds only its own rows. Any other classifier, such as a deployed black box with only
``predict_proba(instance)``, is asked once per member built by ``generate_mutants``;
that path is also the engine's reference. Both read the mutation through
``mutant_positions``, so an unknown one, or correlated-features mutation without a
shift model, raises ``UsageError`` on either; an empty batch returns an empty array.

Tie conventions follow the decision rule "below 50% is unfavorable, otherwise
favorable": a probability (or vote split) landing exactly on the boundary
resolves to the favorable class.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Instance, ProtectedDomains, check_instances, encode_matrix
from .errors import UsageError
from .model import favorable
from .mutate import CorrelationModel, MutationStrategy, generate_mutants, mutant_positions


class EnsembleStrategy(Enum):
    MAJORITY_VOTE = "majority_vote"
    AVERAGING = "averaging"
    WEIGHTED_AVERAGING = "weighted_averaging"


@dataclass(frozen=True)
class EnsembleInputs:
    """Favorable-class probabilities, index 0 = the original input."""

    probabilities: tuple

    def __post_init__(self):
        if len(self.probabilities) == 0:
            raise UsageError("ensemble needs at least one probability")
        for p in self.probabilities:
            if not 0.0 <= p <= 1.0:
                raise UsageError(f"probability {p} outside [0, 1]")


def _decide(P: np.ndarray, strategy: EnsembleStrategy) -> np.ndarray:
    """Row-wise decisions of a (rows, members) probability block.

    Each strategy reduces a row to one score in [0, 1] and ``favorable`` turns
    that score into the decision. The majority-vote score is the share of
    favorable votes, so a vote split exactly in half is favorable.
    """
    if strategy is EnsembleStrategy.MAJORITY_VOTE:
        score = np.count_nonzero(favorable(P), axis=1) / P.shape[1]
    elif strategy is EnsembleStrategy.AVERAGING:
        score = P.mean(axis=1)
    elif strategy is EnsembleStrategy.WEIGHTED_AVERAGING:
        w = np.abs(P - 0.5)
        total = w.sum(axis=1)
        # every member on the boundary leaves the weighted mean undefined
        score = np.divide((w * P).sum(axis=1), total, out=P.mean(axis=1), where=total != 0.0)
    else:
        raise UsageError(f"unknown ensemble strategy {strategy!r}")
    return favorable(score)


def aggregate(inputs: EnsembleInputs, strategy: EnsembleStrategy) -> int:
    """Combine member probabilities into a single {0,1} decision."""
    return int(_decide(np.array([inputs.probabilities], dtype=float), strategy)[0])


def member_probabilities(classifier, instances, domains: ProtectedDomains,
                         corr: CorrelationModel | None = None) -> np.ndarray:
    """(N, 1 + C) favorable-class probabilities of N instances and their mutants.

    Encoding checks each instance first. Column 0 scores it as given; column 1 + j
    scores it with its protected values replaced by ``domains.joint_combos[j]`` and,
    when ``corr`` is given, its numeric features moved by ``corr.shifted``, as
    correlated-features mutation does. The classifier needs ``encoding`` and ``proba_matrix``;
    the protected cells come from ``encoding.member_template``, built once per domains.
    """
    schema, combos, encoding = domains.schema, domains.joint_combos, classifier.encoding
    X = encode_matrix(instances, schema, encoding)
    rewrite, template = encoding.member_template(schema.protected_indices, combos)
    rows = np.where(rewrite, template, X[:, None, :])  # (N, 1 + C, dim), fresh every call

    if corr is not None:
        shifted = corr.shifted(instances, combos)  # (N, C, features)
        for i, values in zip(corr.feature_indices, shifted.transpose(2, 0, 1)):
            rows[:, 1:, encoding.starts[i]] = encoding.blocks[i].scale(values)

    return classifier.proba_matrix(rows.reshape(-1, encoding.dim)).reshape(rows.shape[:2])


def _decide_encoded(classifier, instances, domains, mutation, ensemble, corr) -> np.ndarray:
    """The batch engine: ``member_probabilities``, which checks every input before
    anything else, reduced per own-combination group."""
    correlated = mutation is MutationStrategy.CORRELATED_FEATURES
    P = member_probabilities(classifier, instances, domains, corr if correlated else None)
    owns, codes = domains.schema.protected_codes([inst.values for inst in instances])
    decisions = np.empty(len(instances), dtype=int)
    for c, own in enumerate(owns):
        rows = (codes == c).nonzero()[0]
        # the original first, then its mutants in generate_mutants order
        columns = [0, *(1 + j for j in mutant_positions(own, domains, mutation, corr))]
        decisions[rows] = _decide(P.take(rows, 0).take(columns, 1), ensemble)
    return decisions


def _decide_one(classifier, instance, domains, mutation, ensemble, corr) -> int:
    """The black-box path: one ``predict_proba`` call per member."""
    members = [instance, *generate_mutants(instance, domains, mutation, corr).mutants]
    probabilities = tuple(classifier.predict_proba(m) for m in members)
    return aggregate(EnsembleInputs(probabilities), ensemble)


def fairhome_predict(
    classifier,
    instances,
    domains: ProtectedDomains,
    mutation: MutationStrategy = MutationStrategy.PROTECTED_ONLY,
    ensemble: EnsembleStrategy = EnsembleStrategy.MAJORITY_VOTE,
    corr: CorrelationModel | None = None,
):
    """Ensemble decision over each input and all its mutants.

    ``instances`` is one ``Instance`` (returns an int) or a sequence of them
    (returns an int array), each first checked against ``domains.schema``, once.
    Classifiers with ``encoding`` and ``proba_matrix`` take the batch engine;
    others are asked one member at a time.
    """
    single = isinstance(instances, Instance)
    batch = [instances] if single else list(instances)
    if hasattr(classifier, "encoding") and hasattr(classifier, "proba_matrix"):
        decisions = _decide_encoded(classifier, batch, domains, mutation, ensemble, corr)
    else:
        check_instances(batch, domains.schema)
        decisions = np.array(
            [_decide_one(classifier, inst, domains, mutation, ensemble, corr) for inst in batch],
            dtype=int,
        )
    return int(decisions[0]) if single else decisions
