"""Higher-order mutant generation over protected attributes.

A mutant is a copy of the input whose protected values are replaced by a
different training-observed joint combination; non-protected cells stay fixed
except under the correlated-features variant, which shifts numeric features by
the delta predicted from the protected attributes (``CorrelationModel.shifted``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import NUMERIC, Dataset, Instance, ProtectedDomains
from .errors import DataError, UsageError


class MutationStrategy(Enum):
    PROTECTED_ONLY = "protected_only"
    CORRELATED_FEATURES = "correlated_features"
    SINGLE_ATTRIBUTE_ONLY = "single_attribute_only"
    MULTI_ATTRIBUTE_ONLY = "multi_attribute_only"


@dataclass(frozen=True)
class MutantSet:
    mutants: tuple


def _indicators(protected: tuple, columns: tuple, combos) -> np.ndarray:
    """(len(combos), len(columns)) 0/1 matrix: 1 where a combination holds the
    column's (attribute, level)."""
    keys = [(protected.index(attr), level) for attr, level in columns]
    rows = [[float(combo[a] == level) for a, level in keys] for combo in combos]
    return np.array(rows).reshape(len(combos), len(columns))


@dataclass
class CorrelationModel:
    """Per numeric non-protected feature: a linear model over protected indicators.

    Indicator columns drop each attribute's first level so the design matrix
    stays full rank; a rank-deficient design falls back to intercept-only
    models (flagged via ``degenerate``).
    """

    schema: object
    columns: tuple  # ((attribute, level), ...) indicator columns
    features: tuple  # the modelled feature names
    coefficients: np.ndarray  # (1 + len(columns), len(features)): intercepts, then column coefs
    ranges: np.ndarray  # (len(features), 2): each feature's train min and max
    degenerate: bool = False

    def __post_init__(self):  # each feature's schema column, resolved once
        self.feature_indices = tuple(map(self.schema.index_of, self.features))

    def predict(self, combos) -> np.ndarray:
        """(len(combos), len(features)) predictions: one matrix product, summed column
        by column as a per-feature dot product sums (a BLAS product may round otherwise)."""
        X = _indicators(self.schema.protected, self.columns, combos)
        total = np.zeros((len(combos), len(self.features)))
        for j in range(len(self.columns)):
            total += X[:, j, None] * self.coefficients[1 + j]
        return self.coefficients[0] + total

    def shifted(self, instances, targets) -> np.ndarray:
        """(N, C, len(features)) values of N instances shifted from their own combination
        to each of C targets by the predicted difference, clamped to the training range."""
        distinct, own = self.schema.protected_codes([inst.values for inst in instances])
        raw = np.array([[inst.values[i] for i in self.feature_indices] for inst in instances],
                       dtype=float).reshape(len(instances), len(self.features))  # also for none
        with np.errstate(over="ignore", invalid="ignore"):  # the clamp brings back overflows
            predicted = self.predict([*targets, *distinct])  # row by row: one call for both
            origin = predicted[len(targets):][own, None]
            values = np.clip(raw[:, None] + (predicted[:len(targets)] - origin), *self.ranges.T)
        if (undefined := np.isnan(values).any(axis=(0, 1))).any():  # NaN: inf - inf
            raise DataError(f"{self.features[undefined.argmax()]!r} has no finite shift")
        return values


def fit_extrapolation_models(train: Dataset) -> CorrelationModel:
    """OLS fit of each numeric non-protected feature on the protected attributes.
    A fit whose coefficients are not finite raises ``DataError`` naming its feature."""
    if len(train) < 2:
        raise UsageError("need at least 2 rows to fit extrapolation models")
    schema = train.schema
    features = tuple(a.name for a in schema.attributes
                     if a.kind == NUMERIC and a.name not in schema.protected)
    if not features:
        raise UsageError("no numeric non-protected features to extrapolate")

    # levels come from the rows' combinations: protected_domains would warn a second time
    combos, codes = schema.protected_codes(train.rows)
    columns = tuple((attr, level) for a, attr in enumerate(schema.protected)
                    for level in sorted({combo[a] for combo in combos})[1:])
    indicators = _indicators(schema.protected, columns, combos)[codes]  # one row per train row
    design = np.hstack([np.ones((len(train), 1)), indicators])
    f_idx = [schema.index_of(f) for f in features]
    targets = np.array([[row[i] for i in f_idx] for row in train.rows])
    solution, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)

    degenerate = rank < design.shape[1] or len(columns) == 0
    if degenerate:  # intercept-only models: each feature's mean
        solution = np.zeros_like(solution)
        with np.errstate(over="ignore"):  # a mean past the float range is caught below
            solution[0] = [targets[:, k].mean() for k in range(len(features))]
    # cells near the float limits can fit coefficients that are not finite
    if not (finite := np.isfinite(solution).all(axis=0)).all():
        raise DataError(f"{features[finite.argmin()]!r} has no finite extrapolation model")
    ranges = np.column_stack([targets.min(axis=0), targets.max(axis=0)])
    return CorrelationModel(schema=schema, columns=columns, features=features,
                            coefficients=solution, ranges=ranges, degenerate=degenerate)


def _hamming(a, b) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def mutant_positions(original_combo, domains: ProtectedDomains,
                     strategy: MutationStrategy, corr: CorrelationModel | None) -> list:
    """Positions in ``domains.joint_combos`` of the combinations an input with
    ``original_combo`` mutates into, in order: protected-only and correlated-features
    take every observed combination but the original's own, single-attribute-only
    (multi-attribute-only) those at Hamming distance 1 (2 or more). Any other value, or
    correlated-features mutation without a shift model ``corr``, raises ``UsageError``."""
    if not isinstance(strategy, MutationStrategy):
        raise UsageError(f"unknown mutation strategy {strategy!r}")
    if strategy is MutationStrategy.CORRELATED_FEATURES and corr is None:
        raise UsageError("correlated-features mutation requires a fitted CorrelationModel")
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

    Its protected tuples are the observed joint combinations ``mutant_positions``
    picks, in lexicographic order; that call also checks the request.
    """
    targets = [domains.joint_combos[j]
               for j in mutant_positions(domains.combo_of(instance), domains, strategy, corr)]
    indices, rows = domains.schema.protected_indices, targets
    if strategy is MutationStrategy.CORRELATED_FEATURES:
        indices += corr.feature_indices
        shifted = corr.shifted([instance], targets)[0].tolist()
        rows = [(*combo, *values) for combo, values in zip(targets, shifted)]

    mutants = []
    for row in rows:
        values = list(instance.values)
        for i, v in zip(indices, row):
            values[i] = v
        mutants.append(Instance(tuple(values)))
    return MutantSet(mutants=tuple(mutants))
