import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairhome.data import Instance, protected_domains
from fairhome.errors import DataError, UsageError
from fairhome.mutate import (
    MutationStrategy,
    fit_extrapolation_models,
    generate_mutants,
)

from conftest import make_dataset, make_schema


def two_attr_domains():
    schema = make_schema()
    rows = [("M", "W", 1.0, "a"), ("F", "W", 2.0, "a"),
            ("M", "N", 3.0, "b"), ("F", "N", 4.0, "b")]
    ds = make_dataset(schema, rows, [1, 0, 1, 0])
    return ds, protected_domains(ds)


def three_attr_domains(all_observed=True):
    schema = make_schema(protected=("a", "b", "c"), extra=(("x", "numeric"),))
    combos = [(i, j, k) for i in "01" for j in "01" for k in "01"]
    if not all_observed:
        combos = combos[:-1]
    rows = [(i, j, k, 1.0) for i, j, k in combos]
    ds = make_dataset(schema, rows, [1, 0] * (len(rows) // 2) + [1] * (len(rows) % 2))
    return ds, protected_domains(ds)


def test_protected_only_count_law():
    ds, dom = two_attr_domains()
    ms = generate_mutants(ds.instance(0), dom, MutationStrategy.PROTECTED_ONLY)
    assert len(ms.mutants) == 3  # 2*2 - 1


def test_hamming_partition_three_attrs():
    ds, dom = three_attr_domains()
    inst = ds.instance(0)
    single = generate_mutants(inst, dom, MutationStrategy.SINGLE_ATTRIBUTE_ONLY).mutants
    multi = generate_mutants(inst, dom, MutationStrategy.MULTI_ATTRIBUTE_ONLY).mutants
    full = generate_mutants(inst, dom, MutationStrategy.PROTECTED_ONLY).mutants
    assert (len(single), len(multi), len(full)) == (3, 4, 7)
    assert set(single) | set(multi) == set(full)
    assert set(single) & set(multi) == set()


def test_unobserved_original_combo_yields_all_combos():
    ds, dom = two_attr_domains()
    # "X" never appears in training, so nothing is excluded
    outsider = Instance(("X", "W", 1.0, "a"))
    ms = generate_mutants(outsider, dom, MutationStrategy.PROTECTED_ONLY)
    assert len(ms.mutants) == 4


def test_mutants_keep_non_protected_cells():
    ds, dom = two_attr_domains()
    inst = ds.instance(2)
    for strategy in (MutationStrategy.PROTECTED_ONLY, MutationStrategy.SINGLE_ATTRIBUTE_ONLY,
                     MutationStrategy.MULTI_ATTRIBUTE_ONLY):
        for m in generate_mutants(inst, dom, strategy).mutants:
            assert m.values[2:] == inst.values[2:]
            assert m.values[:2] != inst.values[:2]


def test_exhaustive_union_property(rng):
    schema = make_schema(protected=("p1", "p2"), extra=(("x", "numeric"),))
    for _ in range(30):
        n = int(rng.integers(4, 30))
        rows = [(f"v{rng.integers(0, 3)}", f"w{rng.integers(0, 3)}", float(rng.uniform()))
                for _ in range(n)]
        ds = make_dataset(schema, rows, [int(rng.random() < 0.5) for _ in range(n)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dom = protected_domains(ds)
        inst = ds.instance(int(rng.integers(0, n)))
        ms = generate_mutants(inst, dom, MutationStrategy.PROTECTED_ONLY)
        tuples = {dom.combo_of(m) for m in ms.mutants}
        assert dom.combo_of(inst) not in tuples
        assert tuples | {dom.combo_of(inst)} == set(dom.joint_combos)
        assert len(tuples) == len(ms.mutants)  # no duplicates


def test_correlated_requires_model():
    ds, dom = two_attr_domains()
    with pytest.raises(UsageError):
        generate_mutants(ds.instance(0), dom, MutationStrategy.CORRELATED_FEATURES)


def test_extrapolation_exact_dependence():
    schema = make_schema(protected=("sex",), extra=(("flag", "numeric"),))
    rows = [("F", 1.0), ("M", 0.0), ("F", 1.0), ("M", 0.0), ("F", 1.0)]
    ds = make_dataset(schema, rows, [1, 0, 1, 0, 1])
    corr = fit_extrapolation_models(ds)
    assert corr.features == ("flag",)
    assert corr.predict([("F",), ("M",)])[:, 0] == pytest.approx([1.0, 0.0], abs=1e-9)
    assert not corr.degenerate


def test_extrapolation_independent_feature(rng):
    schema = make_schema(protected=("sex",), extra=(("x", "numeric"),))
    n = 2000
    rows = [(str(rng.choice(["F", "M"])), float(rng.normal(3.0, 1.0))) for _ in range(n)]
    ds = make_dataset(schema, rows, [int(rng.random() < 0.5) for _ in range(n)])
    corr = fit_extrapolation_models(ds)
    coefs = corr.coefficients[:, 0]
    assert abs(coefs[1]) < 0.05
    assert coefs[0] == pytest.approx(3.0, abs=0.15)


def test_extrapolation_single_level_falls_back_to_mean():
    schema = make_schema(protected=("sex",), extra=(("x", "numeric"),))
    rows = [("F", 1.0), ("F", 3.0)]
    ds = make_dataset(schema, rows, [1, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # only protected_domains warns of a single value
        corr = fit_extrapolation_models(ds)
    assert corr.degenerate
    assert corr.predict([("F",)])[0, 0] == pytest.approx(2.0)
    # a single row is too few to fit even the fallback
    with pytest.raises(UsageError, match="^need at least 2 rows to fit extrapolation models$"):
        fit_extrapolation_models(make_dataset(schema, rows[:1], [1]))


def test_extrapolation_models_that_are_not_finite_raise_at_fit_time():
    """Cells at the float limits fit an inf intercept (four rows over two
    attributes), and an intercept-only fallback's mean can overflow (one level):
    the fit raises a ``DataError`` naming the feature, unwarned."""
    two = make_schema(protected=("p", "q"), extra=(("x", "numeric"), ("z", "numeric")))
    rows = [("a", "u", 1.0, 1.7e308), ("b", "u", 2.0, 1.7e308), ("a", "v", 3.0, 1.7e308),
            ("b", "v", 4.0, -1.7e308)]
    one = make_schema(protected=("p",), extra=(("x", "numeric"),))
    cases = [(make_dataset(two, rows, [0, 1, 0, 1]), "'z'"),
             (make_dataset(one, [("a", 1.7e308), ("a", 1.7e308)], [0, 1]), "'x'")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for ds, feature in cases:
            with pytest.raises(DataError, match=f"{feature} has no finite extrapolation model"):
                fit_extrapolation_models(ds)


def test_correlated_mutants_shift_and_clamp():
    schema = make_schema(protected=("sex",), extra=(("pay", "numeric"), ("job", "categorical")))
    rows = [("F", 10.0, "a"), ("F", 12.0, "a"), ("M", 20.0, "b"), ("M", 22.0, "b")]
    ds = make_dataset(schema, rows, [0, 1, 0, 1])
    dom = protected_domains(ds)
    corr = fit_extrapolation_models(ds)
    # F -> M shifts pay by the fitted group gap (+10), clamped to [10, 22]
    ms = generate_mutants(ds.instance(0), dom, MutationStrategy.CORRELATED_FEATURES, corr)
    assert len(ms.mutants) == 1
    assert ms.mutants[0].values[0] == "M"
    assert ms.mutants[0].values[1] == pytest.approx(20.0, abs=1e-9)
    assert ms.mutants[0].values[2] == "a"  # categorical non-protected untouched

    ms2 = generate_mutants(ds.instance(3), dom, MutationStrategy.CORRELATED_FEATURES, corr)
    assert ms2.mutants[0].values[1] == pytest.approx(12.0, abs=1e-9)

    # clamping: an instance already at the max moving upward stays inside range
    probe = generate_mutants(ds.instance(1), dom, MutationStrategy.CORRELATED_FEATURES, corr)
    assert probe.mutants[0].values[1] == 22.0


def reference_predict(corr, k, combo) -> float:
    """Feature ``k``'s model on one combination, as a scalar: the intercept plus
    the combination's indicators dotted with the column coefficients.

    The dot product is summed term by term in column order. ``indicator @
    coefs[1:]`` sums in that order too for up to 3 columns, but OpenBLAS 0.3.31
    (Haswell kernels) pairs the terms of a strided vector of 4 or more,
    ((t0 + t2) + (t1 + t3)), so its result depends on the coefficient layout
    and the BLAS build.
    """
    coefs = corr.coefficients[:, k]
    lookup = dict(zip(corr.schema.protected, combo))
    indicator = [1.0 if lookup[a] == level else 0.0 for a, level in corr.columns]
    dot = 0.0
    for x, c in zip(indicator, coefs[1:]):
        dot += x * c
    return float(coefs[0] + dot)


def reference_shift(corr, k, value, own, target) -> float:
    lo, hi = corr.ranges[k]
    delta = reference_predict(corr, k, target) - reference_predict(corr, k, own)
    return min(hi, max(lo, value + delta))


@st.composite
def shift_cases(draw):
    """A training set over 1-3 protected attributes and 1-2 numeric features, and
    probes: combinations that may be unseen or hold unseen levels, with values
    that may lie beyond the training range. ``shape`` forces the degenerate
    cases: a single-level first attribute (an intercept-only fit when it is the
    only one), or a second attribute that mirrors the first (a rank-deficient
    design)."""
    n_attrs = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["free", "single_level", "collinear"] if n_attrs > 1
                                 else ["free", "single_level"]))
    n_features = draw(st.integers(1, 2))
    protected = tuple(f"p{a}" for a in range(n_attrs))
    schema = make_schema(protected=protected,
                         extra=tuple((f"x{k}", "numeric") for k in range(n_features)))
    levels = [draw(st.integers(1, 3)) for _ in protected]
    if shape == "single_level":
        levels[0] = 1
    value = st.floats(-50, 50, allow_nan=False)
    n = draw(st.integers(2, 20))
    rows = []
    for r in range(n):
        combo = [f"v{draw(st.integers(0, k - 1))}" for k in levels]
        if shape == "collinear":  # the first attribute is seen with two levels
            combo[0] = f"v{r}" if r < 2 else combo[0]
            combo[1] = combo[0]
        rows.append((*combo, *(draw(value) for _ in range(n_features))))
    probe_level = st.sampled_from(["v0", "v1", "v2", "unseen"])
    probe_value = st.floats(-500, 500, allow_nan=False)
    probes = draw(st.lists(
        st.tuples(st.tuples(*(probe_level for _ in protected)),
                  st.tuples(*(probe_value for _ in range(n_features)))),
        min_size=1, max_size=4))
    instances = [Instance((*combo, *values)) for combo, values in probes]
    return make_dataset(schema, rows, [0] * n), shape, instances


@settings(deadline=None, max_examples=200)
@given(shift_cases())
def test_predict_and_shift_match_the_scalar_formulas(case):
    """``predict`` and ``shifted`` equal the per-feature scalar formulas exactly,
    and so do the numeric cells of correlated-features mutants."""
    ds, shape, instances = case
    corr = fit_extrapolation_models(ds)
    if shape == "single_level":  # no column; degenerate when it is the only attribute
        assert all(attr != "p0" for attr, _ in corr.columns)
    if shape == "collinear":
        assert corr.degenerate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a single-valued attribute warns here
        dom = protected_domains(ds)
    features = range(len(corr.features))
    own = [dom.combo_of(inst) for inst in instances]
    targets = [*dom.joint_combos, *own]

    expected = [[reference_predict(corr, k, c) for k in features] for c in targets]
    assert np.array_equal(corr.predict(targets), expected)

    f_idx = [ds.schema.index_of(f) for f in corr.features]
    expected = [[[reference_shift(corr, k, inst.values[f_idx[k]], o, t) for k in features]
                 for t in targets] for inst, o in zip(instances, own)]
    assert np.array_equal(corr.shifted(instances, targets), expected)

    inst = instances[0]
    ms = generate_mutants(inst, dom, MutationStrategy.CORRELATED_FEATURES, corr)
    assert len(ms.mutants) == len(set(dom.joint_combos) - {own[0]})
    for m in ms.mutants:
        cells = [m.values[i] for i in f_idx]
        assert all(type(v) is float for v in cells)
        assert cells == [reference_shift(corr, k, inst.values[f_idx[k]], own[0],
                                         dom.combo_of(m)) for k in features]
