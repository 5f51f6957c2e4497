"""Aggregate classifier outputs on an input and its mutants into one decision.

Tie conventions follow the decision rule "below 50% is unfavorable, otherwise
favorable": a probability (or vote split) landing exactly on the boundary
resolves to the favorable class.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Instance, ProtectedDomains
from .errors import UsageError
from .model import favorable
from .mutate import CorrelationModel, MutationStrategy, generate_mutants


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


def aggregate(inputs: EnsembleInputs, strategy: EnsembleStrategy) -> int:
    """Combine member probabilities into a single {0,1} decision.

    Each strategy reduces the members to one score in [0, 1] and ``favorable``
    turns that score into the decision. The majority-vote score is the share of
    favorable votes, so a vote split exactly in half is favorable.
    """
    p = np.asarray(inputs.probabilities, dtype=float)
    if strategy is EnsembleStrategy.MAJORITY_VOTE:
        score = np.count_nonzero(favorable(p)) / len(p)
    elif strategy is EnsembleStrategy.AVERAGING:
        score = p.mean()
    elif strategy is EnsembleStrategy.WEIGHTED_AVERAGING:
        w = np.abs(p - 0.5)
        total = w.sum()
        # every member on the boundary leaves the weighted mean undefined
        score = p.mean() if total == 0.0 else (w * p).sum() / total
    else:
        raise UsageError(f"unknown ensemble strategy {strategy!r}")
    return int(favorable(score))


def fairhome_predict(
    classifier,
    instance: Instance,
    domains: ProtectedDomains,
    mutation: MutationStrategy = MutationStrategy.PROTECTED_ONLY,
    ensemble: EnsembleStrategy = EnsembleStrategy.MAJORITY_VOTE,
    corr: CorrelationModel | None = None,
) -> int:
    """Ensemble decision over the original input and all its mutants."""
    mutant_set = generate_mutants(instance, domains, mutation, corr)
    members = [instance, *mutant_set.mutants]
    probabilities = tuple(classifier.predict_proba(m) for m in members)
    return aggregate(EnsembleInputs(probabilities), ensemble)
