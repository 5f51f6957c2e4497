"""Mann-Whitney U test and the win-tie-loss comparison protocol.

The p-value is exact (enumeration over rank assignments) for small tie-free
samples and otherwise uses the normal approximation with tie and continuity
corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import UsageError

EXACT_LIMIT = 12  # combined sample size up to which the exact p is enumerated
DEFAULT_ALPHA = 0.05

WIN = "win"
TIE = "tie"
LOSS = "loss"


@dataclass(frozen=True)
class WtlOutcome:
    outcome: str  # WIN / TIE / LOSS
    p_value: float
    direction: str  # which sample had the lower median: "first", "second", or "none"


def _exact_p(rank_sum_a: float, n_a: int, n_b: int) -> float:
    n = n_a + n_b
    u_a = rank_sum_a - n_a * (n_a + 1) / 2
    u_low = min(u_a, n_a * n_b - u_a)
    count = 0
    total = 0
    for chosen in combinations(range(1, n + 1), n_a):
        u = sum(chosen) - n_a * (n_a + 1) / 2
        count += u <= u_low
        total += 1
    return min(1.0, 2 * count / total)


def _normal_p(u_a: float, n_a: int, n_b: int, tie_counts: np.ndarray) -> float:
    """``tie_counts``: how many pooled values share each distinct value."""
    n = n_a + n_b
    mu = n_a * n_b / 2
    tie_term = float(np.sum(tie_counts**3 - tie_counts)) / (n * (n - 1))
    var = n_a * n_b / 12 * ((n + 1) - tie_term)
    if var <= 0:
        return 1.0
    shift = u_a - mu
    shift -= 0.5 * np.sign(shift)  # continuity correction toward the mean
    z = shift / math.sqrt(var)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2)))


def mann_whitney_u(sample_a, sample_b):
    """Two-tailed Mann-Whitney U test; returns (U for sample_a, p-value)."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise UsageError("both samples must be non-empty")
    pooled = np.concatenate([a, b])
    if np.isnan(pooled).any():  # NaN has no rank
        raise UsageError("samples must not hold NaN")
    # one tie table: each distinct value's count, and each pooled value's position
    # among them; a value's midrank is the mean of ranks cumsum - count + 1 .. cumsum
    _, position, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[position]
    rank_sum_a = float(ranks[: len(a)].sum())
    u_a = rank_sum_a - len(a) * (len(a) + 1) / 2

    if len(counts) == len(pooled) and len(pooled) <= EXACT_LIMIT:
        p = _exact_p(rank_sum_a, len(a), len(b))
    else:
        p = _normal_p(u_a, len(a), len(b), counts)
    return u_a, p


def win_tie_loss(
    method_values,
    baseline_values,
    alpha: float = DEFAULT_ALPHA,
    lower_is_better: bool = True,
) -> WtlOutcome:
    """Label the method Win/Tie/Loss against the baseline per-repetition values.

    A Win or Loss requires significance at ``alpha``; direction then follows
    the median comparison (equal medians count as a Tie).
    """
    _, p = mann_whitney_u(method_values, baseline_values)
    med_m = float(np.median(np.asarray(method_values, dtype=float)))
    med_b = float(np.median(np.asarray(baseline_values, dtype=float)))
    if med_m < med_b:
        direction = "first"
    elif med_b < med_m:
        direction = "second"
    else:
        direction = "none"
    if p >= alpha or direction == "none":
        return WtlOutcome(outcome=TIE, p_value=p, direction=direction)
    method_is_lower = direction == "first"
    win = method_is_lower if lower_is_better else not method_is_lower
    return WtlOutcome(outcome=WIN if win else LOSS, p_value=p, direction=direction)
