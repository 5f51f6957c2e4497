"""The batch ensemble engine against the per-member reference path.

A trained model exposes ``encoding`` and ``proba_matrix`` and so takes the
engine; the same model behind a ``predict_proba``-only wrapper takes the
reference path (``generate_mutants`` -> ``predict_proba`` -> ``aggregate``).
"""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairhome.ensemble
from fairhome.data import (AttributeSpec, Dataset, Instance, Schema, build_encoding, encode,
                           load_dataset, protected_domains, split)
from fairhome.ensemble import EnsembleStrategy, fairhome_predict, member_probabilities
from fairhome.errors import DataError, ShapeError, UsageError
from fairhome.model import LogisticModel, MlpModel, TrainConfig, fit_logistic, fit_mlp
from fairhome.mutate import (CorrelationModel, MutationStrategy, fit_extrapolation_models,
                             generate_mutants)
from fairhome.runner import DESK_HIDDEN_LAYERS, METHODS, _method_predictions

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class BlackBox:
    """A model seen only through ``predict_proba(instance)``, as when deployed."""

    def __init__(self, model):
        self.model = model

    def predict_proba(self, instance):
        return self.model.predict_proba(instance)


def _weights(rng, shape, integral, numeric_inputs=()):
    """Real weights, or integers in {-1, 0, 1} with the numeric input rows zeroed,
    so that every logit is an exact integer: many members land exactly on 0.5
    and votes split k-vs-k."""
    if not integral:
        return rng.normal(0.0, 1.5, shape)
    w = rng.integers(-1, 2, shape).astype(float)
    for i in numeric_inputs:
        w[i] = 0.0
    return w


@st.composite
def cases(draw):
    """A random schema and training set, a random model and probe instances."""
    n_protected = draw(st.integers(1, 3))
    n_numeric = draw(st.integers(1, 2))
    with_category = draw(st.booleans())
    single_combo = draw(st.integers(0, 3)) == 0
    integral = draw(st.booleans())
    mlp = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    protected = tuple(f"p{i}" for i in range(n_protected))
    attrs = [AttributeSpec(p, "categorical") for p in protected]
    attrs += [AttributeSpec(f"x{i}", "numeric") for i in range(n_numeric)]
    if with_category:
        attrs.append(AttributeSpec("c", "categorical"))
    schema = Schema(attributes=tuple(attrs), protected=protected,
                    label_column="y", favorable_value="1")
    levels = {p: [f"{p}v{j}" for j in range(rng.choice([1, 2, 3], p=[0.15, 0.45, 0.4]))]
              for p in protected}

    def row(combo=None, lo=0.0, hi=10.0):
        combo = combo or tuple(str(rng.choice(levels[p])) for p in protected)
        numerics = tuple(float(np.round(rng.uniform(lo, hi), 2)) for _ in range(n_numeric))
        return combo + numerics + ((str(rng.choice(["a", "b"])),) if with_category else ())

    n = int(rng.integers(4, 25))
    fixed = row()[:n_protected] if single_combo else None
    rows = [row(fixed) for _ in range(n)]
    train = Dataset(schema=schema, rows=rows, labels=[i % 2 for i in range(n)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        domains = protected_domains(train)
    # the model never saw some of the domain's levels: their one-hot blocks are all zero
    encoding = build_encoding(Dataset(schema=schema, rows=rows[: n // 2], labels=[]))
    numeric_attrs = [i for i, a in enumerate(attrs) if a.kind == "numeric"]
    numeric_cols = [encoding.starts[i] for i in numeric_attrs]
    if mlp:
        hidden = int(rng.integers(1, 4))
        model = MlpModel(
            layer_weights=[_weights(rng, (encoding.dim, hidden), integral, numeric_cols),
                           _weights(rng, (hidden, 1), integral)],
            layer_biases=[_weights(rng, (hidden,), integral), _weights(rng, (1,), integral)],
            encoding=encoding, schema=schema)
    else:
        model = LogisticModel(weights=_weights(rng, encoding.dim, integral, numeric_cols),
                              bias=float(_weights(rng, (), integral)),
                              encoding=encoding, schema=schema)

    probes = [Instance(r) for r in rows[:5]]
    probes += [Instance(row()) for _ in range(4)]  # combos that may be unseen
    lo = [min(r[i] for r in rows) for i in numeric_attrs]
    hi = [max(r[i] for r in rows) for i in numeric_attrs]
    for values in (lo, hi, [v - 5.0 for v in lo], [v + 5.0 for v in hi]):
        cells = list(row())
        for i, v in zip(numeric_attrs, values):
            cells[i] = v
        probes.append(Instance(tuple(cells)))
    unseen_level = list(row())
    unseen_level[int(rng.integers(0, n_protected))] = "never-seen"
    probes.append(Instance(tuple(unseen_level)))
    order = rng.permutation(len(probes))
    # the shift model's numeric ranges differ from the encoding's, so both the
    # clamp to the shift model's range and the encoding's clamp to [0, 1] matter
    lo, hi = sorted(rng.uniform(-5.0, 15.0, 2))
    shift_rows = [row(fixed, lo, hi) for _ in range(n)]
    corr = fit_extrapolation_models(Dataset(schema=schema, rows=shift_rows, labels=[0] * n))
    return model, domains, corr, [probes[i] for i in order]


def one_feature_case(rows):
    """A protected ``p`` and a numeric ``x``: a fixed logistic model encoded from
    ``rows`` (labelled 0, 1, 0, 1), their domains and a shift model fitted on them."""
    schema = Schema(attributes=(AttributeSpec("p", "categorical"), AttributeSpec("x", "numeric")),
                    protected=("p",), label_column="y", favorable_value="1")
    train = Dataset(schema=schema, rows=rows, labels=[0, 1, 0, 1])
    model = LogisticModel(weights=np.array([0.3, -0.2, 1.0]), bias=0.1,
                          encoding=build_encoding(train), schema=schema)
    return model, protected_domains(train), fit_extrapolation_models(train)


def float_limit_case():
    """Numeric cells near the float limits, probed with the training rows: the
    encoding's span overflows to inf, so scaling a shifted cell divides inf by
    inf, which ``encode`` clamps to 0."""
    rows = [("a", -1.7e308), ("b", 1.7e308), ("a", 1e308), ("b", -1e308)]
    return (*one_feature_case(rows), [Instance(r) for r in rows])


# which Hamming distances from its own combination an input's members lie at
DISTANCES = {MutationStrategy.SINGLE_ATTRIBUTE_ONLY: lambda d: d == 1,
             MutationStrategy.MULTI_ATTRIBUTE_ONLY: lambda d: d >= 2}


def own_loop_decisions(model, probes, domains, mutation, ensemble, corr):
    """The decisions as the paper states them, sharing no code with either path's
    selection or reduction: the members are the input and the joint combinations
    at the strategy's Hamming distances from its own, each scored alone by
    ``predict_proba``; the vote, mean or weighted mean is a 1-D reduction of those
    scores, favorable from 0.5 up."""
    schema = domains.schema
    protected = [schema.index_of(p) for p in schema.protected]
    features = [schema.index_of(f) for f in corr.features]
    at = DISTANCES.get(mutation, lambda d: d >= 1)
    decisions = []
    for inst in probes:
        own = [inst.values[i] for i in protected]
        targets = [c for c in domains.joint_combos if at(sum(a != b for a, b in zip(c, own)))]
        members = [inst]
        shifts = (corr.shifted([inst], targets)[0]
                  if mutation is MutationStrategy.CORRELATED_FEATURES else [()] * len(targets))
        for target, shift in zip(targets, shifts):
            values = list(inst.values)
            for i, v in [*zip(protected, target), *zip(features, shift)]:
                values[i] = v
            members.append(Instance(tuple(values)))
        p = np.array([model.predict_proba(m) for m in members])
        if ensemble is EnsembleStrategy.MAJORITY_VOTE:
            score = np.count_nonzero(p >= 0.5) / len(p)
        elif ensemble is EnsembleStrategy.AVERAGING:
            score = p.mean()
        else:
            w = np.abs(p - 0.5)
            score = (w * p).sum() / w.sum() if w.sum() != 0.0 else p.mean()
        decisions.append(int(score >= 0.5))
    return decisions


@settings(deadline=None, max_examples=150)
@given(cases())
@example(float_limit_case())
def test_engine_decisions_equal_reference_for_batches_and_single_rows(case):
    model, domains, corr, probes = case
    box = BlackBox(model)
    for mutation in MutationStrategy:
        for ensemble in EnsembleStrategy:
            args = (domains, mutation, ensemble, corr)
            reference = fairhome_predict(box, probes, *args)
            batch = fairhome_predict(model, probes, *args)
            singles = [fairhome_predict(model, inst, *args) for inst in probes]
            assert isinstance(batch, np.ndarray) and batch.dtype.kind == "i"
            assert all(type(d) is int for d in singles)
            assert batch.tolist() == reference.tolist() == singles
            assert singles == own_loop_decisions(model, probes, *args), (mutation, ensemble)


@settings(deadline=None, max_examples=150)
@given(cases())
def test_member_probabilities_equal_per_mutant_scores(case):
    model, domains, corr, probes = case
    combos = domains.joint_combos
    for mutation, shift in ((MutationStrategy.PROTECTED_ONLY, None),
                            (MutationStrategy.CORRELATED_FEATURES, corr)):
        P = member_probabilities(model, probes, domains, shift)
        assert P.shape == (len(probes), 1 + len(combos))
        for i, inst in enumerate(probes):
            mutants = generate_mutants(inst, domains, mutation, corr).mutants
            columns = [0] + [1 + combos.index(domains.combo_of(m)) for m in mutants]
            expected = [model.predict_proba(m) for m in (inst, *mutants)]
            np.testing.assert_allclose(P[i, columns], expected, rtol=0, atol=1e-12)


class Table:
    """A classifier whose favorable-class probability is a fixed entry per level of
    its one categorical attribute: each row is one-hot, so its score is the entry."""

    def __init__(self, encoding, schema, table):
        self.encoding, self.schema, self.table = encoding, schema, np.array(table)

    def proba_matrix(self, X):
        return X @ self.table

    def predict_proba(self, instance):
        return float(self.proba_matrix(encode(instance, self.schema, self.encoding)))


def test_both_paths_reduce_the_members_in_one_order():
    """0.2, 0.6 and 0.7 average exactly 0.5 summed in that order, and just below
    it summed the other way round: the engine reduces an input and its mutants in
    ``generate_mutants`` order, the original first, as the reference does."""
    schema = Schema(attributes=(AttributeSpec("p", "categorical"),), protected=("p",),
                    label_column="y", favorable_value="1")
    train = Dataset(schema=schema, rows=[("a",), ("b",), ("c",)], labels=[0, 1, 0])
    table = Table(build_encoding(train), schema, [0.2, 0.6, 0.7])
    assert np.mean([0.2, 0.6, 0.7]) == 0.5 > np.mean([0.7, 0.6, 0.2])
    args = (protected_domains(train), MutationStrategy.PROTECTED_ONLY, EnsembleStrategy.AVERAGING)
    probe = Instance(("a",))
    assert fairhome_predict(table, [probe], *args).tolist() == [1]
    assert fairhome_predict(table, probe, *args) == fairhome_predict(BlackBox(table), probe,
                                                                     *args) == 1


class Recorder:
    """A model's ``encoding`` and ``proba_matrix``, keeping every row it scores."""

    def __init__(self, model):
        self.model, self.encoding, self.rows = model, model.encoding, []

    def proba_matrix(self, X):
        self.rows.extend(X.copy())
        return self.model.proba_matrix(X)


@settings(deadline=None, max_examples=150)
@given(cases())
@example(float_limit_case())
def test_member_rows_are_the_rows_encode_gives_each_member(case):
    """Byte for byte, so that neither a NaN nor a -0.0 cell gets past."""
    model, domains, corr, probes = case
    schema, combos = domains.schema, domains.joint_combos
    for mutation, shift in ((MutationStrategy.PROTECTED_ONLY, None),
                            (MutationStrategy.CORRELATED_FEATURES, corr)):
        recorder = Recorder(model)
        member_probabilities(recorder, probes, domains, shift)
        assert len(recorder.rows) == len(probes) * (1 + len(combos))
        for i, inst in enumerate(probes):
            rows = recorder.rows[i * (1 + len(combos)):(i + 1) * (1 + len(combos))]
            assert rows[0].tobytes() == encode(inst, schema, model.encoding).tobytes()
            for m in generate_mutants(inst, domains, mutation, corr).mutants:
                row = rows[1 + combos.index(domains.combo_of(m))]
                assert row.tobytes() == encode(m, schema, model.encoding).tobytes(), m


def test_shifts_past_the_float_range_clamp_without_a_warning():
    """A finite input past the shift model's training range overflows the shift to
    inf; the clamp brings it back to the range's end on both paths, unwarned."""
    model, domains, corr = one_feature_case([("a", 0.0), ("b", 1e308), ("a", 1.0),
                                             ("b", 1.5e308)])
    probe = Instance(("a", 1.7e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        [mutant] = generate_mutants(probe, domains, MutationStrategy.CORRELATED_FEATURES,
                                    corr).mutants
        assert mutant.values == ("b", 1.5e308)
        for ensemble in EnsembleStrategy:
            args = (domains, MutationStrategy.CORRELATED_FEATURES, ensemble, corr)
            assert fairhome_predict(model, probe, *args) == fairhome_predict(BlackBox(model),
                                                                             probe, *args)


def test_an_undefined_shift_raises_the_same_data_error_on_both_paths():
    """A shift model whose intercept is inf makes a shift inf - inf; every path
    raises one ``DataError`` naming the feature, unwarned, instead of deciding on
    (or building) a NaN cell. ``fit_extrapolation_models`` refuses to fit such a
    model, so this one is built by hand."""
    schema = Schema(attributes=(AttributeSpec("p", "categorical"),
                                AttributeSpec("q", "categorical"), AttributeSpec("x", "numeric")),
                    protected=("p", "q"), label_column="y", favorable_value="1")
    rows = [("a", "u", 1.7e308), ("b", "u", 1.7e308), ("a", "v", 1.7e308), ("b", "v", -1.7e308)]
    train = Dataset(schema=schema, rows=rows, labels=[0, 1, 0, 1])
    model = LogisticModel(weights=np.array([0.3, -0.2, 0.1, 0.2, 1.0]), bias=0.1,
                          encoding=build_encoding(train), schema=schema)
    domains, probes = protected_domains(train), [Instance(r) for r in rows]
    mutation = MutationStrategy.CORRELATED_FEATURES
    corr = CorrelationModel(schema=schema, columns=(("p", "b"), ("q", "v")), features=("x",),
                            coefficients=np.array([[np.inf], [-1.7e308], [-1.7e308]]),
                            ranges=np.array([[-1.7e308, 1.7e308]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for ensemble in EnsembleStrategy:
            for classifier in (model, BlackBox(model)):
                with pytest.raises(DataError, match="'x' has no finite shift"):
                    fairhome_predict(classifier, probes, domains, mutation, ensemble, corr)
        with pytest.raises(DataError, match="'x' has no finite shift"):
            generate_mutants(probes[0], domains, mutation, corr)


def _fixture_split(kind):
    schema = Schema.from_json(FIXTURES / f"{kind}_synth.schema.json")
    return split(load_dataset(FIXTURES / f"{kind}_synth.csv", schema), 0.3, 42)


@pytest.mark.parametrize("model_kind", ["logistic", "mlp"])
def test_a_model_with_a_nan_parameter_raises_on_every_path(model_kind):
    """A NaN parameter makes every probability NaN, which ``favorable`` reads as
    0: the engine, the per-member path, ``predict`` and ``predict_proba`` raise
    one UsageError instead of deciding."""
    train, test = _fixture_split("german")
    domains, probes = protected_domains(train), test.instances()[:5]
    config = TrainConfig(seed=0, epochs=2)
    model = (fit_logistic(train, config) if model_kind == "logistic"
             else fit_mlp(train, config, hidden_layers=DESK_HIDDEN_LAYERS))
    model.layer_weights[0][0, 0] = np.nan
    paths = {"engine": lambda: fairhome_predict(model, probes, domains),
             "per member": lambda: fairhome_predict(BlackBox(model), probes, domains),
             "predict": lambda: model.predict(probes),
             "predict_proba": lambda: model.predict_proba(probes[0])}
    for name, call in paths.items():
        with pytest.raises(UsageError, match="the model gives probability nan"):
            call()
            pytest.fail(f"{name} decided")


@pytest.mark.parametrize("kind", ["german", "compas"])
@pytest.mark.parametrize("model_kind", ["logistic", "mlp"])
def test_runner_variants_match_reference_on_fixtures(kind, model_kind):
    """Every method that mutates decides on the engine as on the per-member path."""
    train, test = _fixture_split(kind)
    domains = protected_domains(train)
    config = TrainConfig(seed=42)
    model = (fit_logistic(train, config) if model_kind == "logistic"
             else fit_mlp(train, config, hidden_layers=DESK_HIDDEN_LAYERS))
    corr = fit_extrapolation_models(train)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the fairhome5 fallback on german
        for method in (m for m, (_, mutation, _) in METHODS.items() if mutation is not None):
            fast = _method_predictions(method, model, test.instances(), domains, corr)
            slow = _method_predictions(method, BlackBox(model), test.instances(), domains, corr)
            assert fast.tolist() == slow.tolist(), method


def test_fairhome1_looks_up_no_attribute_by_name_per_call(monkeypatch):
    """A shift model resolves its features' schema columns once, when it is
    built: after that, fairhome1's decisions on both paths, and its mutants,
    look up no attribute by name and equal those made before."""
    train, test = _fixture_split("compas")
    domains, corr = protected_domains(train), fit_extrapolation_models(train)
    model = fit_logistic(train, TrainConfig(seed=0, epochs=5))
    assert corr.feature_indices == tuple(map(train.schema.index_of, corr.features))
    mutation = MutationStrategy.CORRELATED_FEATURES
    args = (domains, mutation, EnsembleStrategy.MAJORITY_VOTE, corr)
    before = fairhome_predict(model, test.instances(), *args).tolist()
    mutants = generate_mutants(test.instance(0), domains, mutation, corr)

    def looked_up(schema, name):
        raise AssertionError(f"looked up {name!r}")

    monkeypatch.setattr(Schema, "index_of", looked_up)
    for classifier in (model, BlackBox(model)):
        assert fairhome_predict(classifier, test.instances(), *args).tolist() == before
    assert generate_mutants(test.instance(0), domains, mutation, corr) == mutants


def test_one_encoding_serves_interleaved_domains():
    """Calls with two domains, in the order A, B, A, on one model: B lacks a
    joint combination that A has, and each call matches the per-member path."""
    train, test = _fixture_split("german")
    model = fit_logistic(train, TrainConfig(seed=0, epochs=5))
    corr = fit_extrapolation_models(train)
    full = protected_domains(train)
    dropped = full.joint_combos[0]
    kept = [i for i, row in enumerate(train.rows) if full.combo_of(Instance(row)) != dropped]
    fewer = protected_domains(Dataset(schema=train.schema, rows=[train.rows[i] for i in kept],
                                      labels=[train.labels[i] for i in kept]))
    assert fewer.joint_combos == full.joint_combos[1:]
    probes = test.instances()[:40]
    for domains in (full, fewer, full):
        for mutation in MutationStrategy:
            args = (domains, mutation, EnsembleStrategy.MAJORITY_VOTE, corr)
            assert (fairhome_predict(model, probes, *args).tolist()
                    == fairhome_predict(BlackBox(model), probes, *args).tolist()), mutation


def test_the_member_template_is_built_once_per_domains_and_read_only():
    """The engine's template is kept with the encoding, keyed by the domains' values:
    a later call, even with an equal ``ProtectedDomains`` built anew, reuses the
    same read-only arrays."""
    train, test = _fixture_split("compas")
    model = fit_logistic(train, TrainConfig(seed=0, epochs=5))
    domains = protected_domains(train)
    fairhome_predict(model, test.instances()[:5], domains)
    first = model.encoding.member_template(train.schema.protected_indices, domains.joint_combos)
    anew = protected_domains(train)
    fairhome_predict(model, test.instance(5), anew)
    second = model.encoding.member_template(train.schema.protected_indices, anew.joint_combos)
    assert all(a is b for a, b in zip(first, second))
    for array in first:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1


class Scribbler:
    """A model's ``encoding`` and ``proba_matrix`` that overwrites every row it
    scores, once scored."""

    def __init__(self, model):
        self.model, self.encoding = model, model.encoding

    def proba_matrix(self, X):
        p = self.model.proba_matrix(X)
        X[:] = 1.0
        return p


def test_a_classifier_that_writes_into_its_rows_leaves_later_decisions_unchanged():
    train, test = _fixture_split("compas")
    model = fit_mlp(train, TrainConfig(seed=0, epochs=5), hidden_layers=DESK_HIDDEN_LAYERS)
    domains, corr = protected_domains(train), fit_extrapolation_models(train)
    scribbler, probes = Scribbler(model), test.instances()[:30]
    for _ in range(2):
        for mutation in MutationStrategy:
            for ensemble in EnsembleStrategy:
                args = (domains, mutation, ensemble, corr)
                expected = fairhome_predict(BlackBox(model), probes, *args).tolist()
                assert fairhome_predict(scribbler, probes, *args).tolist() == expected
                singles = [fairhome_predict(scribbler, inst, *args) for inst in probes[:3]]
                assert singles == expected[:3]


def test_engine_path_is_chosen_by_the_classifier(monkeypatch):
    train, test = _fixture_split("german")
    domains = protected_domains(train)
    model = fit_logistic(train, TrainConfig(seed=0, epochs=5))
    reference = fairhome_predict(BlackBox(model), test.instances()[:20], domains)

    def no_mutants(*args, **kwargs):
        raise AssertionError("the engine built mutant instances")

    monkeypatch.setattr(fairhome.ensemble, "generate_mutants", no_mutants)
    assert fairhome_predict(model, test.instances()[:20], domains).tolist() == reference.tolist()
    with pytest.raises(AssertionError):
        fairhome_predict(BlackBox(model), test.instance(0), domains)


def test_engine_edge_inputs():
    train, _ = _fixture_split("german")
    domains = protected_domains(train)
    model = fit_logistic(train, TrainConfig(seed=0, epochs=5))
    corr = fit_extrapolation_models(train)
    values = train.rows[0]
    numeric = next(i for i, a in enumerate(train.schema.attributes) if a.kind == "numeric")
    bad = [(values[:-1], ShapeError), ((*values, "extra"), ShapeError)]
    for cell in (float("nan"), float("inf"), "3.0", 10**400):
        bad.append((values[:numeric] + (cell,) + values[numeric + 1:], DataError))
    for classifier in (model, BlackBox(model)):
        # every input is checked before either path runs, one at a time or in a batch
        for cells, error in bad:
            for mutation in MutationStrategy:
                with pytest.raises(error):
                    fairhome_predict(classifier, Instance(cells), domains, mutation, corr=corr)
                with pytest.raises(error):
                    fairhome_predict(classifier, [train.instance(1), Instance(cells)], domains,
                                     mutation, corr=corr)
            # a bad input raises before a missing shift model does
            with pytest.raises(error):
                fairhome_predict(classifier, [train.instance(1), Instance(cells)], domains,
                                 MutationStrategy.CORRELATED_FEATURES)


def _outcome(classifier, batch, domains, mutation, ensemble, corr):
    """What ``fairhome_predict`` answers: its decisions, or its exception's type and message."""
    try:
        out = fairhome_predict(classifier, batch, domains, mutation, ensemble, corr)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(out, np.ndarray):
        return out.dtype.kind, out.shape, out.tolist()
    return type(out), out


def test_every_request_gets_the_same_answer_on_both_paths():
    """Every mutation request, good or bad, on every batch shape: the engine and the
    per-member path give equal decisions, or the same exception type and message.
    An empty batch is an empty int array whatever the request; a bad input raises
    before a bad request does; a value string is never run as its strategy."""
    train, test = _fixture_split("german")
    domains = protected_domains(train)
    model = fit_logistic(train, TrainConfig(seed=0, epochs=5))
    corr = fit_extrapolation_models(train)
    values = test.rows[0]
    numeric = next(i for i, a in enumerate(train.schema.attributes) if a.kind == "numeric")
    bad = Instance(values[:numeric] + (float("nan"),) + values[numeric + 1:])
    batches = {"empty": [], "one instance": test.instance(0),
               "one-element list": [test.instance(0)], "ten instances": test.instances()[:10],
               "a bad input": [test.instance(0), bad]}

    majority, correlated = EnsembleStrategy.MAJORITY_VOTE, MutationStrategy.CORRELATED_FEATURES
    # (mutation, ensemble, shift model, the UsageError message or None for a good request)
    requests = [(m, e, corr, None) for m in MutationStrategy for e in EnsembleStrategy]
    requests += [(m, majority, corr, f"unknown mutation strategy {m!r}")
                 for m in ("correlated_features", "single_attribute_only", None, 3)]
    requests += [(MutationStrategy.PROTECTED_ONLY, e, corr, f"unknown ensemble strategy {e!r}")
                 for e in ("averaging", None)]
    requests.append((correlated, majority, None,
                     "correlated-features mutation requires a fitted CorrelationModel"))

    for mutation, ensemble, shift, message in requests:
        for name, batch in batches.items():
            args = (batch, domains, mutation, ensemble, shift)
            engine = _outcome(model, *args)
            assert engine == _outcome(BlackBox(model), *args), (mutation, ensemble, shift, name)
            if name == "empty":
                assert engine == ("i", (0,), [])
            elif name == "a bad input":
                assert engine[0] is DataError
            elif message is not None:
                assert engine == (UsageError, message)
            else:
                assert engine[0] in ("i", int), (mutation, ensemble, name, engine)
        # generate_mutants takes no ensemble strategy: it answers the bad mutation requests
        if message is not None and isinstance(ensemble, EnsembleStrategy):
            with pytest.raises(UsageError) as raised:
                generate_mutants(test.instance(0), domains, mutation, shift)
            assert str(raised.value) == message
