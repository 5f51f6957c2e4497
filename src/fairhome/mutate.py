"""Higher-order mutant generation over protected attributes.

A mutant is a copy of the input whose protected values are replaced by a
different training-observed joint combination; non-protected cells stay fixed
except under the correlated-features variant, which shifts numeric features by
the delta predicted from the protected attributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import NUMERIC, Dataset, Instance, ProtectedDomains, protected_domains
from .errors import UsageError


class MutationStrategy(Enum):
    PROTECTED_ONLY = "protected_only"
    CORRELATED_FEATURES = "correlated_features"
    SINGLE_ATTRIBUTE_ONLY = "single_attribute_only"
    MULTI_ATTRIBUTE_ONLY = "multi_attribute_only"


@dataclass(frozen=True)
class MutantSet:
    original: Instance
    mutants: tuple
    strategy: MutationStrategy


@dataclass
class CorrelationModel:
    """Per numeric non-protected feature: a linear model over protected indicators.

    Indicator columns drop each attribute's first level so the design matrix
    stays full rank; a rank-deficient design falls back to intercept-only
    models (flagged via ``degenerate``).
    """

    schema: object
    columns: tuple  # ((attribute, level), ...) indicator columns
    coefficients: dict  # feature name -> array [intercept, *column coefs]
    ranges: dict  # feature name -> (train min, train max)
    degenerate: bool = False

    def _indicator(self, combo) -> np.ndarray:
        lookup = dict(zip(self.schema.protected, combo))
        return np.array([1.0 if lookup[a] == level else 0.0 for a, level in self.columns])

    def predict(self, feature: str, combo) -> float:
        coefs = self.coefficients[feature]
        if len(self.columns) == 0:
            return float(coefs[0])
        return float(coefs[0] + self._indicator(combo) @ coefs[1:])


def fit_extrapolation_models(train: Dataset) -> CorrelationModel:
    """OLS fit of each numeric non-protected feature on the protected attributes."""
    if len(train) < 2:
        raise UsageError("need at least 2 rows to fit extrapolation models")
    schema = train.schema
    numeric_features = [
        a.name for a in schema.attributes
        if a.kind == NUMERIC and a.name not in schema.protected
    ]
    if not numeric_features:
        raise UsageError("no numeric non-protected features to extrapolate")

    domains = protected_domains(train)
    columns = tuple(
        (attr, level)
        for attr in schema.protected
        for level in domains.per_attribute[attr][1:]
    )
    combos = [domains.combo_of(inst) for inst in train.instances()]
    n = len(train)
    design = np.ones((n, 1 + len(columns)))
    for j, (attr, level) in enumerate(columns, start=1):
        a_pos = schema.protected.index(attr)
        design[:, j] = [1.0 if combo[a_pos] == level else 0.0 for combo in combos]

    targets = np.array(
        [[row[schema.index_of(f)] for f in numeric_features] for row in train.rows]
    )
    solution, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)

    degenerate = rank < design.shape[1] or len(columns) == 0
    coefficients = {}
    ranges = {}
    for k, feature in enumerate(numeric_features):
        col = targets[:, k]
        if degenerate:
            coefs = np.zeros(1 + len(columns))
            coefs[0] = col.mean()
        else:
            coefs = solution[:, k]
        coefficients[feature] = coefs
        ranges[feature] = (float(col.min()), float(col.max()))
    return CorrelationModel(schema=schema, columns=columns, coefficients=coefficients,
                            ranges=ranges, degenerate=degenerate)


def _hamming(a, b) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def mutant_positions(original_combo, domains: ProtectedDomains,
                     strategy: MutationStrategy) -> list:
    """Positions in ``domains.joint_combos`` of the combinations an input with
    ``original_combo`` mutates into, in order.

    Every observed combination but the original's own; the single-attribute
    (multi-attribute) strategy keeps those at Hamming distance 1 (2 or more).
    """
    positions = [j for j, c in enumerate(domains.joint_combos) if c != original_combo]
    if strategy is MutationStrategy.SINGLE_ATTRIBUTE_ONLY:
        return [j for j in positions if _hamming(domains.joint_combos[j], original_combo) == 1]
    if strategy is MutationStrategy.MULTI_ATTRIBUTE_ONLY:
        return [j for j in positions if _hamming(domains.joint_combos[j], original_combo) >= 2]
    return positions


def generate_mutants(
    instance: Instance,
    domains: ProtectedDomains,
    strategy: MutationStrategy = MutationStrategy.PROTECTED_ONLY,
    corr: CorrelationModel | None = None,
) -> MutantSet:
    """Build the mutant set of one instance under the given strategy.

    Candidate protected tuples are the training-observed joint combinations
    minus the original's own tuple, ordered lexicographically.
    """
    if strategy is MutationStrategy.CORRELATED_FEATURES and corr is None:
        raise UsageError("correlated-features mutation requires a fitted CorrelationModel")

    schema = domains.schema
    p_idx = schema.protected_indices
    original_combo = domains.combo_of(instance)

    mutants = []
    for j in mutant_positions(original_combo, domains, strategy):
        combo = domains.joint_combos[j]
        values = list(instance.values)
        for i, v in zip(p_idx, combo):
            values[i] = v
        if strategy is MutationStrategy.CORRELATED_FEATURES:
            for feature in corr.coefficients:
                i = schema.index_of(feature)
                delta = corr.predict(feature, combo) - corr.predict(feature, original_combo)
                lo, hi = corr.ranges[feature]
                values[i] = min(hi, max(lo, values[i] + delta))
        mutants.append(Instance(tuple(values)))
    return MutantSet(original=instance, mutants=tuple(mutants), strategy=strategy)
