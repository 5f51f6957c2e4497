import warnings

import numpy as np
import pytest

from fairhome.data import Instance, protected_domains
from fairhome.errors import UsageError
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
    assert corr.predict("flag", ("F",)) == pytest.approx(1.0, abs=1e-9)
    assert corr.predict("flag", ("M",)) == pytest.approx(0.0, abs=1e-9)
    assert not corr.degenerate


def test_extrapolation_independent_feature(rng):
    schema = make_schema(protected=("sex",), extra=(("x", "numeric"),))
    n = 2000
    rows = [(str(rng.choice(["F", "M"])), float(rng.normal(3.0, 1.0))) for _ in range(n)]
    ds = make_dataset(schema, rows, [int(rng.random() < 0.5) for _ in range(n)])
    corr = fit_extrapolation_models(ds)
    coefs = corr.coefficients["x"]
    assert abs(coefs[1]) < 0.05
    assert coefs[0] == pytest.approx(3.0, abs=0.15)


def test_extrapolation_single_level_falls_back_to_mean():
    schema = make_schema(protected=("sex",), extra=(("x", "numeric"),))
    rows = [("F", 1.0), ("F", 3.0)]
    ds = make_dataset(schema, rows, [1, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # single-valued protected attribute warns
        corr = fit_extrapolation_models(ds)
    assert corr.degenerate
    assert corr.predict("x", ("F",)) == pytest.approx(2.0)


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
