import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairhome.errors import UsageError
from fairhome.stats import (
    LOSS,
    TIE,
    WIN,
    EXACT_LIMIT,
    _exact_p,
    _normal_p,
    mann_whitney_u,
    win_tie_loss,
)

import oracle


def test_disjoint_samples_exact_p():
    u, p = mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert u == 0.0
    assert p == pytest.approx(0.1, abs=1e-12)  # 2 / C(6,3)


def test_fully_tied_samples():
    _, p = mann_whitney_u([3, 3, 3], [3, 3, 3])
    assert p == 1.0


def test_empty_sample_rejected():
    with pytest.raises(UsageError):
        mann_whitney_u([], [1.0])
    with pytest.raises(UsageError, match="samples must not hold NaN"):
        mann_whitney_u([1.0, float("nan")], [2.0, 3.0])


def test_midranks_handle_ties():
    # ranks 1 | 2.5, 2.5 | 4: U for the first sample is 1 + 2.5 - 3
    u, _ = mann_whitney_u([10.0, 20.0], [20.0, 30.0])
    assert u == 0.5


def reference_midranks(pooled):
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(len(pooled))
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1  # average of ranks i+1 .. j+1
        i = j + 1
    return ranks


def reference_normal_p(u_a, n_a, n_b, pooled):
    n = n_a + n_b
    mu = n_a * n_b / 2
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(tie_counts**3 - tie_counts)) / (n * (n - 1))
    var = n_a * n_b / 12 * ((n + 1) - tie_term)
    if var <= 0:
        return 1.0
    shift = u_a - mu
    shift -= 0.5 * np.sign(shift)
    z = shift / math.sqrt(var)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2)))


def reference_mann_whitney_u(sample_a, sample_b):
    """The test as it was computed before the one tie table: a midrank loop over a
    stable sort, one ``np.unique`` to find ties and another for the tie correction."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    pooled = np.concatenate([a, b])
    rank_sum_a = float(reference_midranks(pooled)[: len(a)].sum())
    u_a = rank_sum_a - len(a) * (len(a) + 1) / 2
    has_ties = len(np.unique(pooled)) < len(pooled)
    if not has_ties and len(pooled) <= EXACT_LIMIT:
        return u_a, _exact_p(rank_sum_a, len(a), len(b))
    return u_a, reference_normal_p(u_a, len(a), len(b), pooled)


# a small pool makes ties common, 0.0 and -0.0 among them; the floats make them rare
VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -3.0]),
                   st.floats(allow_nan=False))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(VALUES, min_size=1, max_size=10), st.lists(VALUES, min_size=1, max_size=10))
@example([0.0, -0.0, 1.0], [-0.0, 0.5])
@example([0.0, 1.0, 2.0], [-0.0, 0.5, 3.0])
def test_tie_table_equals_the_three_pass_reference(a, b):
    assert mann_whitney_u(a, b) == reference_mann_whitney_u(a, b)


def test_exact_matches_value_enumeration_oracle(rng):
    for _ in range(30):
        n_a, n_b = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a = sorted(rng.choice(100, size=n_a, replace=False).tolist())
        b = sorted(rng.choice(np.arange(100, 200), size=n_b, replace=False).tolist())
        a = [float(x) for x in a]
        b = [float(x) for x in rng.permutation(a[:0] + b)]
        pool = rng.permutation(np.concatenate([a, b]))
        a, b = list(pool[:n_a]), list(pool[n_a:])
        _, p = mann_whitney_u(a, b)
        assert p == pytest.approx(oracle.exact_mwu_p(a, b), abs=1e-12)


def test_shifted_distributions_significant(rng):
    a = rng.normal(0.0, 0.05, 20)
    b = rng.normal(5.0, 0.05, 20)
    _, p = mann_whitney_u(a, b)
    assert p < 0.001


def test_symmetry_win_loss_swap(rng):
    for _ in range(100):
        a = rng.normal(0, 1, int(rng.integers(3, 15)))
        b = rng.normal(0.5, 1, int(rng.integers(3, 15)))
        _, p_ab = mann_whitney_u(a, b)
        _, p_ba = mann_whitney_u(b, a)
        assert p_ab == pytest.approx(p_ba, abs=1e-12)
        out_ab = win_tie_loss(a, b)
        out_ba = win_tie_loss(b, a)
        swap = {WIN: LOSS, LOSS: WIN, TIE: TIE}
        assert out_ba.outcome == swap[out_ab.outcome]


def test_monotone_transform_invariance(rng):
    transforms = [
        lambda x: 3.0 * x + 7.0,
        lambda x: x ** 3,
        lambda x: np.exp(x / 4.0),
        lambda x: np.arctan(x),
    ]
    for _ in range(100):
        a = rng.normal(0, 1, int(rng.integers(3, 12)))
        b = rng.normal(0.3, 1.2, int(rng.integers(3, 12)))
        _, p0 = mann_whitney_u(a, b)
        f = transforms[int(rng.integers(0, len(transforms)))]
        _, p1 = mann_whitney_u(f(a), f(b))
        assert p1 == pytest.approx(p0, abs=1e-12)


def test_exact_and_normal_agree_on_six_vs_six(rng):
    for _ in range(50):
        pool = rng.permutation(np.arange(12, dtype=float) + rng.uniform(0, 0.4, 12))
        a, b = pool[:6], pool[6:]
        u_a, _ = mann_whitney_u(a, b)
        exact = _exact_p(u_a + 6 * 7 / 2, 6, 6)
        approx = _normal_p(u_a, 6, 6, np.ones(12, dtype=int))  # tie-free: twelve counts of 1
        assert abs(exact - approx) < 0.02


def test_win_tie_loss_basic():
    win = win_tie_loss([0.1] * 6, [0.3] * 6, lower_is_better=True)
    assert win.outcome == WIN and win.p_value < 0.05

    tie = win_tie_loss([0.2] * 6, [0.2] * 6)
    assert tie.outcome == TIE

    # higher-is-better flips the direction
    loss = win_tie_loss([0.1] * 6, [0.3] * 6, lower_is_better=False)
    assert loss.outcome == LOSS


def test_non_significant_is_tie_regardless_of_medians():
    # exact p = 0.2 at n=3+3: only U=0 and U=1 assignments are as extreme
    a, b = [1.0, 2.0, 4.0], [3.0, 5.0, 6.0]
    _, p = mann_whitney_u(a, b)
    assert p == pytest.approx(0.2, abs=1e-12)
    out = win_tie_loss(a, b)
    assert out.outcome == TIE and out.direction == "first"
