import codecs
import json
import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from fairhome.cli import main as cli_main
from fairhome.runner import (
    METHODS,
    ExperimentConfig,
    RunRecord,
    emit_report,
    improvement_table,
    read_records_csv,
    region_distribution,
    run_experiment,
    write_tables,
    wtl_matrix,
)
from fairhome.metrics import MetricReport, compute_reports
from fairhome.model import TrainConfig

from conftest import make_dataset, make_schema

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def small_config(tmp_path, **overrides):
    kwargs = dict(
        dataset_path=str(FIXTURES / "german_synth.csv"),
        schema_path=str(FIXTURES / "german_synth.schema.json"),
        model_kind="logistic",
        methods=("original", "fairhome"),
        repetitions=2,
        test_fraction=0.3,
        base_seed=42,
        fairea_degrees=(0.0, 0.5, 1.0),
        fairea_reps=3,
        output_dir=str(tmp_path / "out"),
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def test_matrix_size_and_shared_model(tmp_path):
    result = run_experiment(small_config(tmp_path))
    assert len(result.records) == 4  # 2 methods x 2 reps
    by_rep = {}
    for r in result.records:
        assert r.error is None
        by_rep.setdefault(r.repetition, set()).add(r.model_fingerprint)
    for fingerprints in by_rep.values():
        assert len(fingerprints) == 1  # methods share the trained model


def test_rew_refits_model(tmp_path):
    result = run_experiment(small_config(tmp_path, methods=("original", "rew"), repetitions=1))
    fp = {r.method: r.model_fingerprint for r in result.records}
    assert fp["original"] != fp["rew"]


def test_bad_rew_weights_fail_the_rew_cells_alone(tmp_path, monkeypatch):
    """REW's weights are checked before the lockstep fit: when they are bad, the
    main model trains alone, unchanged, and only the rew cells fail."""
    import fairhome.runner

    config = small_config(tmp_path, methods=("original", "fairhome", "rew"))
    good = run_experiment(config)
    monkeypatch.setattr(fairhome.runner, "reweighting_weights",
                        lambda train: np.zeros(len(train)))
    bad = run_experiment(config)
    assert len(bad.records) == len(good.records) == 6
    for before, after in zip(good.records, bad.records):
        assert before.error is None
        if after.method == "rew":
            assert after.error == "UsageError: weights must be positive and finite"
            assert after.model_fingerprint == ""
        else:
            assert after.error is None
            assert after.model_fingerprint == before.model_fingerprint


def test_bad_rew_weights_in_one_repetition_fail_its_rew_cells_alone(tmp_path, monkeypatch):
    """When one repetition's REW weights are bad, its main model trains in one
    descent beside the other repetitions' main and REW models (one parameter
    set beside two): that repetition's other cells keep a good run's
    fingerprints and metric values, and so do the other repetitions' rew cells."""
    import fairhome.model
    import fairhome.runner

    config = small_config(tmp_path, methods=("original", "fairhome", "rew"), repetitions=3)
    good = run_experiment(config)
    rew, descend = fairhome.runner.reweighting_weights, fairhome.model._descend
    splits, descents = [], []

    def bad_for_the_second_split(train):
        splits.append(train)
        return np.zeros(len(train)) if len(splits) == 2 else rew(train)

    monkeypatch.setattr(fairhome.runner, "reweighting_weights", bad_for_the_second_split)
    monkeypatch.setattr(fairhome.model, "_descend",
                        lambda *args: descents.append(len(args[3])) or descend(*args))
    bad = run_experiment(config)
    assert descents == [5]  # 2 + 1 + 2 sets
    assert len(bad.records) == len(good.records) == 9
    for before, after in zip(good.records, bad.records):
        assert (before.repetition, before.method) == (after.repetition, after.method)
        assert before.error is None
        if (after.repetition, after.method) == (1, "rew"):
            assert after.error == "UsageError: weights must be positive and finite"
            assert after.model_fingerprint == "" and after.report is None
        else:
            assert (after.error, after.model_fingerprint) == (None, before.model_fingerprint)
            assert after.report.to_flat_dict() == before.report.to_flat_dict()
    assert bad.fairea_cases == [c for c in good.fairea_cases
                                if (c.repetition, c.method) != (1, "rew")]


@pytest.mark.parametrize("methods, sets", [(("original", "fairhome", "fairhome1"), 3),
                                           (("original", "fairhome", "fairhome1", "rew"), 6)])
def test_rew_trains_only_when_a_method_needs_it(tmp_path, monkeypatch, methods, sets):
    """A 3-repetition run trains one lockstep descent: of the 3 main models
    alone, or of those and their 3 REW models when rew is listed."""
    import fairhome.model

    descend, descents = fairhome.model._descend, []
    monkeypatch.setattr(fairhome.model, "_descend",
                        lambda *args: descents.append(len(args[3])) or descend(*args))
    result = run_experiment(small_config(tmp_path, methods=methods, repetitions=3))
    assert descents == [sets]
    assert all(r.error is None for r in result.records)


def split_one_single_label(dataset, test_fraction, seed):
    """``split``, except that the training split of seed 43 holds one label."""
    from fairhome.data import split

    train, test = split(dataset, test_fraction, seed)
    if seed == 43:
        train.labels = [1] * len(train)
    return train, test


def test_an_untrainable_split_fails_its_own_repetition_alone(tmp_path, monkeypatch):
    """Every repetition trains in one fit call, after a trainability check: a
    repetition whose training split holds a single label class fails every cell
    of its own with the training error, and the others equal runs of each
    repetition alone (``repetitions`` 1 at ``base_seed + r``)."""
    import fairhome.runner

    methods = ("original", "fairhome", "rew")
    alone = {rep: run_experiment(small_config(tmp_path, methods=methods, repetitions=1,
                                              base_seed=42 + rep)).records
             for rep in (0, 2)}
    monkeypatch.setattr(fairhome.runner, "split", split_one_single_label)
    result = run_experiment(small_config(tmp_path, methods=methods, repetitions=3))
    assert [(r.repetition, r.method) for r in result.records] == [
        (rep, method) for rep in range(3) for method in methods]
    assert {c.repetition for c in result.fairea_cases} == {0, 2}
    for record in result.records:
        if record.repetition == 1:
            assert record.error == "TrainingError: training data contains a single label class"
            assert record.model_fingerprint == "" and record.report is None
            continue
        single = alone[record.repetition][methods.index(record.method)]
        assert record.error is None and single.error is None
        assert record.model_fingerprint == single.model_fingerprint
        assert record.report.to_flat_dict() == single.report.to_flat_dict()


def test_a_failed_lockstep_fit_fails_every_repetition_it_trained(tmp_path, monkeypatch):
    """When the one fit call raises, every cell of each repetition it trained
    fails with the fit's error and no fingerprint, rew's too although its
    weights are bad as well; an untrainable repetition keeps its training
    error, no extrapolation model is fitted and no Fairea case is made."""
    import fairhome.runner

    def diverging_fit(*args, **kwargs):
        raise FloatingPointError("descent diverged")

    extrapolated = []
    monkeypatch.setattr(fairhome.runner, "split", split_one_single_label)
    monkeypatch.setattr(fairhome.runner, "fit_logistic", diverging_fit)
    monkeypatch.setattr(fairhome.runner, "fit_extrapolation_models", extrapolated.append)
    monkeypatch.setattr(fairhome.runner, "reweighting_weights",
                        lambda train: np.zeros(len(train)))
    methods = ("original", "fairhome", "fairhome1", "rew")
    result = run_experiment(small_config(tmp_path, methods=methods, repetitions=3))
    assert [(r.repetition, r.method) for r in result.records] == [
        (rep, method) for rep in range(3) for method in methods]
    for record in result.records:
        assert record.error == ("TrainingError: training data contains a single label class"
                                if record.repetition == 1
                                else "FloatingPointError: descent diverged")
        assert record.model_fingerprint == "" and record.report is None
    assert result.fairea_cases == [] and extrapolated == []


@pytest.mark.parametrize("train", [{"learning_rate": 1e300}, {"l2_penalty": 1e308}])
def test_a_diverged_model_fails_its_cells(tmp_path, capsys, train):
    """A model that descent leaves with a non-finite parameter fails every cell
    it scores: exit 1, no Fairea case, and fairhome1's extrapolation models
    are never fitted."""
    import fairhome.runner

    config = json.loads((FIXTURES.parent / "configs" / "german_logistic.json").read_text())
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        **config, "dataset_path": str(FIXTURES / "german_synth.csv"),
        "schema_path": str(FIXTURES / "german_synth.schema.json"),
        "train": {**train, "epochs": 3}}))
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli_main(["run", "--config", str(config_path), "--reps", "1",
                         "--out", str(out)]) == 1
    rows = read_records_csv(out / "metrics.csv")
    assert [row["method"] for row in rows] == config["methods"]
    assert all(row["status"] == "failed" and row["error"] == "TrainingError: descent diverged"
               for row in rows)
    assert not (out / "fairea_regions.csv").exists()
    assert capsys.readouterr().err.count("TrainingError: descent diverged") == len(rows)

    extrapolated = []
    with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
        patch.setattr(fairhome.runner, "fit_extrapolation_models", extrapolated.append)
        result = run_experiment(small_config(tmp_path, methods=("original", "fairhome1"),
                                             train=TrainConfig(**train, epochs=3)))
    assert {r.error for r in result.records} == {"TrainingError: descent diverged"}
    assert extrapolated == [] and result.fairea_cases == []


def test_fairhome1_fits_its_shift_model_once_per_repetition_that_trained(tmp_path, monkeypatch):
    """fairhome1's shift model is fitted in its own cell, on its repetition's
    training split: once for each repetition whose model trained when fairhome1
    is listed, never for a repetition whose split cannot train, and never when
    fairhome1 is not listed."""
    import fairhome.runner
    from fairhome.data import Schema, load_dataset, split
    from fairhome.mutate import fit_extrapolation_models

    fitted = []

    def spy(train):
        fitted.append(train.rows)
        return fit_extrapolation_models(train)

    monkeypatch.setattr(fairhome.runner, "fit_extrapolation_models", spy)
    monkeypatch.setattr(fairhome.runner, "split", split_one_single_label)
    methods = ("original", "fairhome1", "fairhome", "rew")
    result = run_experiment(small_config(tmp_path, methods=methods, repetitions=3))
    dataset = load_dataset(FIXTURES / "german_synth.csv",
                           Schema.from_json(FIXTURES / "german_synth.schema.json"))
    assert fitted == [split(dataset, 0.3, seed)[0].rows for seed in (42, 44)]
    assert [r.error is None for r in result.records if r.method == "fairhome1"] == [
        True, False, True]

    fitted.clear()
    run_experiment(small_config(tmp_path, methods=("original", "fairhome", "fairhome2", "rew"),
                                repetitions=3))
    assert fitted == []


def test_a_diverged_rew_model_fails_the_rew_cells_alone(tmp_path, monkeypatch):
    """A REW model with a non-finite parameter fails only the rew cells, which
    carry no fingerprint; every other cell and Fairea case is unchanged."""
    import fairhome.runner
    from fairhome.model import fit_logistic

    config = small_config(tmp_path, methods=("original", "fairhome", "rew"))
    good = run_experiment(config)

    def rew_diverges(trains, configs, weights):
        results = fit_logistic(trains, configs, weights=weights)
        for _, rew in results:
            rew.weights[0] = np.nan
        return results

    monkeypatch.setattr(fairhome.runner, "fit_logistic", rew_diverges)
    bad = run_experiment(config)
    assert len(bad.records) == len(good.records) == 6
    for before, after in zip(good.records, bad.records):
        if after.method == "rew":
            assert after.error == "TrainingError: descent diverged"
            assert after.model_fingerprint == "" and after.report is None
        else:
            assert (after.error, after.model_fingerprint) == (None, before.model_fingerprint)
            assert after.report.to_flat_dict() == before.report.to_flat_dict()
    assert bad.fairea_cases == [c for c in good.fairea_cases if c.method != "rew"]


def test_a_config_and_a_schema_with_a_byte_order_mark_run_like_the_plain_files(tmp_path):
    schema = tmp_path / "schema.json"
    schema.write_bytes(codecs.BOM_UTF8 + (FIXTURES / "german_synth.schema.json").read_bytes())
    for name, bom, schema_path in (("plain", b"", FIXTURES / "german_synth.schema.json"),
                                   ("bom", codecs.BOM_UTF8, schema)):
        (tmp_path / f"{name}.json").write_bytes(bom + json.dumps({
            "dataset_path": str(FIXTURES / "german_synth.csv"), "schema_path": str(schema_path),
            "methods": ["original", "fairhome", "rew"], "repetitions": 1,
            "fairea_reps": 2, "output_dir": str(tmp_path / name), "train": {"epochs": 2},
        }).encode())
        assert cli_main(["run", "--config", str(tmp_path / f"{name}.json")]) == 0
    for table in ("metrics", "improvement", "win_tie_loss", "fairea_regions",
                  "region_distribution"):
        assert ((tmp_path / "bom" / f"{table}.csv").read_bytes()
                == (tmp_path / "plain" / f"{table}.csv").read_bytes())


def test_a_variant_that_fails_to_score_fails_its_own_cells_alone(tmp_path, monkeypatch):
    """A fairhome variant that raises while predicting fails its own cells,
    which keep the model's fingerprint; every other cell and every other
    method's Fairea case is unchanged."""
    import fairhome.runner
    from fairhome.ensemble import EnsembleStrategy, fairhome_predict

    config = small_config(tmp_path, methods=("original", "fairhome", "fairhome2", "rew"))
    good = run_experiment(config)

    def averaging_fails(model, instances, domains, mutation, strategy, corr=None):
        if strategy is EnsembleStrategy.AVERAGING:
            raise FloatingPointError("scores overflowed")
        return fairhome_predict(model, instances, domains, mutation, strategy, corr)

    monkeypatch.setattr(fairhome.runner, "fairhome_predict", averaging_fails)
    bad = run_experiment(config)
    assert len(bad.records) == len(good.records) == 8
    for before, after in zip(good.records, bad.records):
        assert before.error is None and after.model_fingerprint == before.model_fingerprint
        if after.method == "fairhome2":
            assert after.error == "FloatingPointError: scores overflowed"
            assert after.report is None
        else:
            assert after.error is None
            assert after.report.to_flat_dict() == before.report.to_flat_dict()
    assert any(c.method == "fairhome2" for c in good.fairea_cases)
    assert bad.fairea_cases == [c for c in good.fairea_cases if c.method != "fairhome2"]


def test_original_record_matches_direct_evaluation(tmp_path):
    from fairhome.data import Schema, load_dataset, split, encode_matrix
    from fairhome.metrics import LabeledPredictions, compute_report
    from fairhome.model import TrainConfig, favorable, fit_logistic

    config = small_config(tmp_path, repetitions=1)
    result = run_experiment(config)
    record = next(r for r in result.records if r.method == "original")

    schema = Schema.from_json(config.schema_path)
    ds = load_dataset(config.dataset_path, schema)
    train, test = split(ds, config.test_fraction, config.base_seed)
    model = fit_logistic(train, TrainConfig(seed=config.base_seed))
    X = encode_matrix(test.instances(), schema, model.encoding)
    direct = compute_report(LabeledPredictions.from_dataset(test, favorable(model.proba_matrix(X))))
    assert record.report.to_flat_dict() == direct.to_flat_dict()


def test_full_run_determinism_byte_identical(tmp_path):
    paths = []
    for name in ("a", "b"):
        config = small_config(tmp_path, output_dir=str(tmp_path / name))
        result = run_experiment(config)
        out = emit_report(result.records, result.fairea_cases, config.output_dir)
        paths.append(out)
    for key in paths[0]:
        assert Path(paths[0][key]).read_bytes() == Path(paths[1][key]).read_bytes()


def test_mlp_model_kind_and_architectures(tmp_path):
    from fairhome.model import TrainConfig

    base = dict(
        dataset_path=str(FIXTURES / "german_synth.csv"),
        schema_path=str(FIXTURES / "german_synth.schema.json"),
        model_kind="mlp", methods=("original", "fairhome"), repetitions=1,
        fairea_degrees=(0.0, 1.0), fairea_reps=1, base_seed=3,
        train=TrainConfig(epochs=3),
    )
    desk = run_experiment(ExperimentConfig(output_dir=str(tmp_path / "d"), **base))
    assert all(r.error is None for r in desk.records)

    base["train"] = TrainConfig(epochs=1)
    wide = run_experiment(ExperimentConfig(output_dir=str(tmp_path / "p"),
                                           paper_arch=True, **base))
    assert all(r.error is None for r in wide.records)
    assert desk.records[0].model_fingerprint != wide.records[0].model_fingerprint


def test_the_bundled_compas_config_trains_models_that_decide_both_ways(tmp_path, monkeypatch):
    """At its learning rate, 0.05, the bundled compas mlp config trains a model
    that does not collapse to one class: at 1 repetition no method decides
    favorable for more than 95% of the test split. At the default 0.01 every
    method did so for 99.7-100% of it."""
    import fairhome.runner

    shares = []

    def spy(labeled, decisions):
        shares.extend(np.mean(decisions, axis=1).tolist())
        return compute_reports(labeled, decisions)

    monkeypatch.setattr(fairhome.runner, "compute_reports", spy)
    config = ExperimentConfig.from_json(
        FIXTURES.parent / "configs" / "compas_mlp.json", repetitions=1, fairea_reps=3,
        dataset_path=str(FIXTURES / "compas_synth.csv"),
        schema_path=str(FIXTURES / "compas_synth.schema.json"), output_dir=str(tmp_path))
    result = run_experiment(config)
    assert [r.error for r in result.records] == [None] * len(config.methods)
    assert len(shares) == len(config.methods)
    assert max(shares) <= 0.95, dict(zip(config.methods, shares))


def test_config_from_json_train_overrides(tmp_path):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({
        "dataset_path": "d.csv", "schema_path": "s.json",
        "methods": ["original"], "repetitions": 2,
        "train": {"epochs": 7, "learning_rate": 0.2},
    }))
    config = ExperimentConfig.from_json(config_path, base_seed=5)
    assert config.train.epochs == 7
    assert config.train.learning_rate == 0.2
    assert config.base_seed == 5
    assert config.repetitions == 2


def test_config_in_python_rejects_a_train_seed(tmp_path):
    """Each repetition sets the train seed from ``base_seed``, so a config that
    sets it is rejected, built in Python or read from a file alike."""
    from fairhome.errors import UsageError
    from fairhome.model import TrainConfig

    with pytest.raises(UsageError, match="train seed is set by each repetition"):
        small_config(tmp_path, train=TrainConfig(seed=5))
    assert small_config(tmp_path, train=TrainConfig(seed=0, epochs=3)).train.epochs == 3


def test_manifest_config_hash_is_pinned():
    """The manifest's config and its hash leave out the per-repetition train
    seed and hold no field that a config file may not set."""
    config = ExperimentConfig.from_json(Path(__file__).resolve().parent.parent
                                        / "configs" / "german_logistic.json")
    assert config.config_hash() == "70ea1b4bf1ea6071"
    assert sorted(config.to_dict()["train"]) == [
        "batch_size", "epochs", "l2_penalty", "learning_rate"]


def test_readme_methods_table_lists_the_method_table_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Methods\n", 1)[1].split("\n## ", 1)[0]
    names = [line.split("|")[1].strip().strip("`") for line in section.splitlines()
             if line.startswith("| `")]
    assert tuple(names) == tuple(METHODS)


def test_fairhome5_two_attribute_fallback(tmp_path):
    config = small_config(tmp_path, methods=("original", "fairhome5"), repetitions=1)
    with pytest.warns(UserWarning, match="2-member ensembles"):
        result = run_experiment(config)
    rec = next(r for r in result.records if r.method == "fairhome5")
    assert rec.error is None


def test_fairhome5_under_one_protected_attribute_decides_as_original(tmp_path):
    """With one protected attribute no input has a multi-attribute mutant: each
    fairhome5 ensemble is the input alone, which decides as the model does, unwarned."""
    schema = json.loads((FIXTURES / "german_synth.schema.json").read_text())
    schema_path = tmp_path / "sex.schema.json"
    schema_path.write_text(json.dumps({**schema, "protected": ["sex"]}))
    config = small_config(tmp_path, schema_path=str(schema_path),
                          methods=("original", "fairhome5"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_experiment(config)
    flats = {(r.repetition, r.method): r.report.to_flat_dict() for r in result.records}
    for rep in range(config.repetitions):
        assert flats[(rep, "fairhome5")] == flats[(rep, "original")]


def _fairhome5_case(combos):
    """A logistic model, its training rows as instances, and their protected
    domains: 3-level attributes ``p`` and ``q`` observed in ``combos`` only."""
    from fairhome.data import protected_domains
    from fairhome.model import fit_logistic

    rng = np.random.default_rng(3)
    schema = make_schema(protected=("p", "q"), extra=(("x", "numeric"),))
    rows = [(*combos[i % len(combos)], float(rng.uniform(0, 10))) for i in range(120)]
    train = make_dataset(schema, rows, rng.integers(0, 2, len(rows)))
    model = fit_logistic(train, TrainConfig(learning_rate=0.1, epochs=30, seed=1))
    return model, train.instances(), protected_domains(train)


def test_fairhome5_votes_on_a_three_by_three_schema():
    """With every combination of two 3-level attributes observed, each input has
    4 multi-attribute mutants: fairhome5 votes, unwarned."""
    from fairhome.ensemble import EnsembleStrategy, fairhome_predict
    from fairhome.mutate import MutationStrategy
    from fairhome.runner import _method_predictions

    combos = [(p, q) for p in ("a", "b", "c") for q in ("u", "v", "w")]
    model, instances, domains = _fairhome5_case(combos)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _method_predictions("fairhome5", model, instances, domains, None)
    want = fairhome_predict(model, instances, domains, MutationStrategy.MULTI_ATTRIBUTE_ONLY,
                            EnsembleStrategy.MAJORITY_VOTE)
    assert np.array_equal(got, want)
    assert not np.array_equal(want, fairhome_predict(
        model, instances, domains, MutationStrategy.MULTI_ATTRIBUTE_ONLY,
        EnsembleStrategy.AVERAGING))


def test_fairhome5_falls_back_where_an_observed_combination_has_one_mutant():
    """Two 3-level attributes with 5 of 9 combinations unobserved: (a, u) differs
    in both attributes from (b, v) alone, a 2-member ensemble, so fairhome5
    averages for every input."""
    from fairhome.ensemble import EnsembleStrategy, fairhome_predict
    from fairhome.mutate import MutationStrategy, mutant_positions
    from fairhome.runner import _method_predictions

    model, instances, domains = _fairhome5_case([("a", "u"), ("a", "v"), ("b", "v"), ("c", "u")])
    multi = MutationStrategy.MULTI_ATTRIBUTE_ONLY
    assert len(mutant_positions(("a", "u"), domains, multi, None)) == 1
    with pytest.warns(UserWarning, match="2-member ensembles"):
        got = _method_predictions("fairhome5", model, instances, domains, None)
    assert np.array_equal(got, fairhome_predict(model, instances, domains, multi,
                                                EnsembleStrategy.AVERAGING))


def test_failure_isolation(tmp_path):
    # compas fixture has numeric features, german too; force a failure by
    # requesting fairhome1 on a dataset stripped of numeric non-protected columns
    csv_path = tmp_path / "cat_only.csv"
    schema_path = tmp_path / "cat_only.schema.json"
    schema = {
        "attributes": [{"name": "sex", "kind": "categorical"},
                       {"name": "race", "kind": "categorical"},
                       {"name": "job", "kind": "categorical"}],
        "protected": ["sex", "race"],
        "label_column": "y",
        "favorable_value": "yes",
    }
    schema_path.write_text(json.dumps(schema))
    rng = np.random.default_rng(0)
    lines = ["sex,race,job,y"]
    for _ in range(60):
        lines.append(",".join([
            str(rng.choice(["M", "F"])), str(rng.choice(["W", "N"])),
            str(rng.choice(["a", "b"])), str(rng.choice(["yes", "no"])),
        ]))
    csv_path.write_text("\n".join(lines) + "\n")

    config = ExperimentConfig(
        dataset_path=str(csv_path), schema_path=str(schema_path),
        methods=("original", "fairhome1", "fairhome"), repetitions=1,
        fairea_degrees=(0.0, 1.0), fairea_reps=1,
        output_dir=str(tmp_path / "out"), base_seed=1,
    )
    result = run_experiment(config)
    by_method = {r.method: r for r in result.records}
    # the cell carries the extrapolation fit's own failure, and the fingerprint
    # of the model it scores with
    assert by_method["fairhome1"].error == (
        "UsageError: no numeric non-protected features to extrapolate")
    assert by_method["fairhome1"].model_fingerprint == by_method["original"].model_fingerprint
    assert by_method["original"].model_fingerprint != ""
    assert by_method["original"].error is None
    assert by_method["fairhome"].error is None


def test_a_metric_the_labels_leave_undefined_fails_every_cell_that_decided(tmp_path):
    """Favorable labels only in the (M, W) subgroup leave one subgroup eligible
    for TPR terms: every cell that made decisions fails with the same
    MetricUndefinedError and keeps its fingerprint, a cell that failed before
    deciding keeps its own error, and no Fairea case is written."""
    schema = {"attributes": [{"name": "sex", "kind": "categorical"},
                             {"name": "race", "kind": "categorical"},
                             {"name": "job", "kind": "categorical"}],
              "protected": ["sex", "race"], "label_column": "y", "favorable_value": "yes"}
    (tmp_path / "one.schema.json").write_text(json.dumps(schema))
    rng = np.random.default_rng(0)
    lines = ["sex,race,job,y"]
    for _ in range(80):
        sex, race = str(rng.choice(["M", "F"])), str(rng.choice(["W", "N"]))
        favorable = (sex, race) == ("M", "W") and rng.random() < 0.5
        lines.append(",".join([sex, race, str(rng.choice(["a", "b"])),
                               "yes" if favorable else "no"]))
    (tmp_path / "one.csv").write_text("\n".join(lines) + "\n")
    methods = ("original", "fairhome", "fairhome1", "fairhome2", "rew")
    config = ExperimentConfig(
        dataset_path=str(tmp_path / "one.csv"), schema_path=str(tmp_path / "one.schema.json"),
        methods=methods, repetitions=2, fairea_degrees=(0.0, 1.0), fairea_reps=1,
        output_dir=str(tmp_path / "out"), base_seed=1)
    result = run_experiment(config)
    assert [(r.repetition, r.method) for r in result.records] == [
        (rep, method) for rep in range(2) for method in methods]
    for record in result.records:
        assert record.report is None and record.model_fingerprint != ""
        assert record.error == (
            "UsageError: no numeric non-protected features to extrapolate"
            if record.method == "fairhome1"
            else "MetricUndefinedError: fewer than 2 subgroups eligible for TPR terms")
    assert result.fairea_cases == []


def test_an_extrapolation_fit_that_is_not_finite_fails_the_fairhome1_cells_alone(tmp_path):
    """Pay at the float limits, far apart by sex, fits an inf coefficient: the
    extrapolation fit raises, once, and only the fairhome1 cells carry it."""
    schema = {"attributes": [{"name": "sex", "kind": "categorical"},
                             {"name": "race", "kind": "categorical"},
                             {"name": "pay", "kind": "numeric"}],
              "protected": ["sex", "race"], "label_column": "y", "favorable_value": "yes"}
    (tmp_path / "limits.schema.json").write_text(json.dumps(schema))
    rng = np.random.default_rng(0)
    lines = ["sex,race,pay,y"]
    for _ in range(60):
        sex = str(rng.choice(["M", "F"]))
        lines.append(",".join([sex, str(rng.choice(["W", "N"])),
                               "1.7e308" if sex == "M" else "-1.7e308",
                               str(rng.choice(["yes", "no"]))]))
    (tmp_path / "limits.csv").write_text("\n".join(lines) + "\n")
    config = ExperimentConfig(
        dataset_path=str(tmp_path / "limits.csv"),
        schema_path=str(tmp_path / "limits.schema.json"),
        methods=("original", "fairhome1", "fairhome"), repetitions=2,
        fairea_degrees=(0.0, 1.0), fairea_reps=1, output_dir=str(tmp_path / "out"), base_seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_experiment(config)
    assert len(result.records) == 6
    for record in result.records:
        if record.method == "fairhome1":
            assert record.error == "DataError: 'pay' has no finite extrapolation model"
            assert record.model_fingerprint != ""
        else:
            assert record.error is None


def fake_records(means_by_method, reps=3):
    records = []
    for method, wc_spd in means_by_method.items():
        for rep in range(reps):
            report = MetricReport(
                wc_spd=wc_spd, wc_aod=0.1, wc_eod=0.1, ac_spd=0.05, ac_aod=0.05,
                ac_eod=0.05, accuracy=0.8, macro_precision=0.7, macro_recall=0.7,
                macro_f1=0.7, mcc=0.4,
            )
            records.append(RunRecord(task="toy", method=method, repetition=rep,
                                     seed=rep, report=report))
    return [r.to_row() for r in records]


def test_improvement_table_known_changes():
    rows = fake_records({"original": 0.195, "fairhome": 0.116})
    table = improvement_table(rows)
    entry = next(t for t in table if t["method"] == "fairhome" and t["metric"] == "wc_spd")
    assert entry["absolute_change"] == pytest.approx(-0.079, abs=1e-12)
    expected_rel = 100.0 * (0.116 - 0.195) / 0.195
    assert entry["relative_change_pct"] == pytest.approx(expected_rel, abs=1e-9)
    assert abs(entry["relative_change_pct"] - (-40.7)) < 0.5  # within rounding of the target
    # a negative original mean (mcc's) divides by its size, so the change keeps its sign
    rows = [{**row, "mcc": -0.1 if row["method"] == "original" else 0.1}
            for row in fake_records({"original": 0.195, "fairhome": 0.116})]
    entry = next(t for t in improvement_table(rows)
                 if t["method"] == "fairhome" and t["metric"] == "mcc")
    assert entry["absolute_change"] == pytest.approx(0.2, abs=1e-12)
    assert entry["relative_change_pct"] == pytest.approx(200.0, abs=1e-9)


def test_single_method_single_rep_renders():
    rows = fake_records({"fairhome": 0.1}, reps=1)
    table = improvement_table(rows)  # no original present: change columns stay blank
    assert all(t["original_mean"] == "" for t in table)
    assert wtl_matrix(rows) == [{"metric": m} for m in
                                ("wc_spd", "wc_aod", "wc_eod", "ac_spd", "ac_aod", "ac_eod")]


def test_region_distribution_partitions():
    case_rows = [{"method": "fairhome", "region": r}
                 for r in ["win-win"] * 3 + ["good"] * 4 + ["poor"] * 2 + ["lose-lose"]]
    dist = region_distribution(case_rows)
    assert dist[0]["total"] == 10
    assert sum(dist[0][k] for k in ("win-win", "good", "poor", "lose-lose", "inverted")) == 10
    assert dist[0]["beats_baseline_pct"] == pytest.approx(70.0)


def test_read_records_round_trip(tmp_path):
    config = small_config(tmp_path, repetitions=1)
    result = run_experiment(config)
    rows = [r.to_row() for r in result.records]
    paths = emit_report(result.records, result.fairea_cases, config.output_dir)
    loaded = read_records_csv(paths["metrics"])
    assert len(loaded) == len(rows)
    for orig, back in zip(rows, loaded):
        assert back["wc_spd"] == orig["wc_spd"]
        assert back["method"] == orig["method"]


def test_cli_run_report_metrics(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "dataset_path": str(FIXTURES / "german_synth.csv"),
        "schema_path": str(FIXTURES / "german_synth.schema.json"),
        "model_kind": "logistic",
        "methods": ["original", "fairhome"],
        "repetitions": 1,
        "test_fraction": 0.3,
        "base_seed": 7,
        "fairea_degrees": [0.0, 0.5, 1.0],
        "fairea_reps": 2,
        "output_dir": str(tmp_path / "out"),
    }))
    assert cli_main(["run", "--config", str(config_path)]) == 0
    out_dir = tmp_path / "out"
    for name in ("metrics.csv", "improvement.csv", "win_tie_loss.csv",
                 "fairea_regions.csv", "region_distribution.csv", "manifest.json"):
        assert (out_dir / name).exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["base_seed"] == 7

    assert cli_main(["report", "--records", str(out_dir / "metrics.csv"),
                     "--regions", str(out_dir / "fairea_regions.csv"),
                     "--out", str(tmp_path / "rep")]) == 0
    for name in ("improvement.csv", "win_tie_loss.csv", "region_distribution.csv"):
        assert (tmp_path / "rep" / name).read_bytes() == (out_dir / name).read_bytes()
    # a regions file with no rows: region_distribution.csv is its header alone
    no_cases = tmp_path / "no_cases.csv"
    no_cases.write_text("task,method,repetition,fairness_metric,performance_metric,region\n")
    assert cli_main(["report", "--records", str(out_dir / "metrics.csv"),
                     "--regions", str(no_cases), "--out", str(tmp_path / "rep0")]) == 0
    assert ((tmp_path / "rep0" / "region_distribution.csv").read_bytes()
            == b"method,win-win,good,poor,lose-lose,inverted,total,beats_baseline_pct\r\n")

    preds_path = tmp_path / "preds.csv"
    lines = ["y_true,y_pred,sex,race"]
    rng = np.random.default_rng(3)
    for _ in range(40):
        lines.append(f"{rng.integers(0, 2)},{rng.integers(0, 2)},"
                     f"{rng.choice(['M', 'F'])},{rng.choice(['W', 'N'])}")
    preds_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli_main(["metrics", "--predictions", str(preds_path)]) == 0
    printed = capsys.readouterr().out
    assert "wc_spd=" in printed and "mcc=" in printed
    # --json prints the same metrics, in the same order, each value as key=value shows it
    assert cli_main(["metrics", "--predictions", str(preds_path), "--json"]) == 0
    as_json = json.loads(capsys.readouterr().out)
    assert [f"{key}={value}" for key, value in as_json.items()] == printed.splitlines()
    # a leading byte-order mark is dropped
    preds_path.write_bytes(codecs.BOM_UTF8 + preds_path.read_bytes())
    assert cli_main(["metrics", "--predictions", str(preds_path)]) == 0
    assert capsys.readouterr() == (printed, "")


def test_cli_seed_and_reps_overrides(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "dataset_path": str(FIXTURES / "german_synth.csv"),
        "schema_path": str(FIXTURES / "german_synth.schema.json"),
        "methods": ["original"],
        "repetitions": 3,
        "base_seed": 0,
        "fairea_degrees": [0.0, 1.0],
        "fairea_reps": 1,
        "output_dir": str(tmp_path / "ignored"),
    }))
    out = tmp_path / "o2"
    assert cli_main(["run", "--config", str(config_path), "--seed", "9",
                     "--reps", "1", "--out", str(out)]) == 0
    rows = read_records_csv(out / "metrics.csv")
    assert len(rows) == 1
    assert rows[0]["seed"] == 9.0


@pytest.mark.parametrize("fairea", [
    {"fairea_reps": 0},
    {"fairea_reps": "3"},
    {"fairea_degrees": [0.0, 0.5]},
    {"fairea_degrees": [0.5, 0.0, 1.0]},
    {"fairea_degrees": []},
    {"fairea_degrees": [0.0, 0.5, True]},
    {"fairea_degrees": [False, 1.0]},
])
def test_bad_fairea_settings_rejected_by_config(tmp_path, fairea):
    from fairhome.errors import UsageError

    with pytest.raises(UsageError):
        small_config(tmp_path, **fairea)


def test_cli_run_bad_fairea_reps_exits_2_before_training(tmp_path, capsys, monkeypatch):
    """Bad Fairea settings, unknown or missing config keys, config values of
    the wrong type, not finite or past the float range, an empty or repeating
    method list, missing data files and config files that are missing, not a
    regular file or not a JSON object: exit 2 before loading any data. A
    schema file that is not JSON, declares an unknown attribute kind, holds an
    attribute entry that is not an object or a ``protected`` that is not a
    list of strings, has an unknown key at the top level or in an attribute
    entry, or a name, label column or favorable value that is not a string,
    and a data file with an empty cell or with a header and no rows: exit 2
    before training. An output directory that names a file, lies under one, is
    empty or is not a valid name: exit 2 before loading any data.
    ``fairhome report`` on a missing file, an empty path or such an ``--out``
    (before reading any input), a regions file without a region column, with a repeated
    column, a ragged row or a row whose region is not a trade-off region, a
    metrics file that is empty, without a task or method column, with a repeated
    column or a ragged row, a metric value that is not a finite number in a
    cell that ran, or a method named ``metric``: exit 2 before writing
    anything. ``fairhome metrics`` on a missing file: exit 2."""
    import fairhome.runner
    from fairhome.data import load_dataset

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    def no_loading(*args, **kwargs):
        raise AssertionError("data loaded")

    monkeypatch.setattr(fairhome.runner, "fit_logistic", no_training)
    monkeypatch.setattr(fairhome.runner, "load_dataset", no_loading)
    config_path = tmp_path / "config.json"
    base = {
        "dataset_path": str(FIXTURES / "german_synth.csv"),
        "schema_path": str(FIXTURES / "german_synth.schema.json"),
        "methods": ["original", "fairhome"],
        "repetitions": 1,
        "output_dir": str(tmp_path / "out"),
    }
    missing = str(tmp_path / "missing.csv")

    def run_exits_2(message):
        capsys.readouterr()
        assert cli_main(["run", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err
        assert not (tmp_path / "out").exists()

    cases = [(json.dumps({**base, **bad}), message) for bad, message in (
        ({"fairea_reps": 0}, "reps must be"),
        ({"modle_kind": "mlp"}, "unknown config key(s) ['modle_kind']"),
        ({"train": {"epoch": 3}}, "unknown train key(s) ['epoch']"),
        ({"dataset_path": missing}, f"no such file: {missing}"),
        ({"schema_path": missing}, f"no such file: {missing}"),
        ({"train": 3}, f"{config_path}: train must be a JSON object, not int"),
        ({"repetitions": "2"}, "repetitions must be int, got '2'"),
        ({"repetitions": True}, "repetitions must be int, got True"),
        ({"paper_arch": 1}, "paper_arch must be bool, got 1"),
        ({"methods": "fairhome"}, "methods must be a list of strings, got 'fairhome'"),
        ({"methods": [[]]}, "methods must be a list of strings, got [[]]"),
        ({"methods": []}, "methods must name at least one method"),
        ({"methods": ["fairhome9"]},
         "unknown method 'fairhome9'; valid: ('original', 'fairhome', 'fairhome1', 'fairhome2', "
         "'fairhome3', 'fairhome4', 'fairhome5', 'rew')"),
        ({"methods": ["original", "original", "fairhome"]},
         "methods must not repeat, got ['original'] more than once"),
        ({"fairea_degrees": [0.0, "0.5", 1.0]}, "degrees must be ascending numbers"),
        ({"train": {"epochs": "3"}}, "epochs must be int, got '3'"),
        ({"train": {"learning_rate": "0.1"}}, "learning_rate must be float, got '0.1'"),
        ({"train": {"batch_size": 1.5}}, "batch_size must be int | None, got 1.5"),
        ({"train": {"epochs": 0}}, "epochs must be >= 1"),
        ({"train": {"batch_size": 0}}, "batch_size must be >= 1 or None"),
        ({"model_kind": "svm"}, "unknown model kind 'svm'"),
        ({"train": {"learning_rate": float("nan")}}, "learning_rate must be positive and finite"),
        ({"train": {"learning_rate": float("inf")}}, "learning_rate must be positive and finite"),
        ({"train": {"l2_penalty": float("nan")}}, "l2_penalty must be non-negative and finite"),
        ({"train": {"l2_penalty": float("inf")}}, "l2_penalty must be non-negative and finite"),
        ({"train": {"learning_rate": 10**400}}, "learning_rate must be positive and finite"),
        ({"train": {"l2_penalty": 10**400}}, "l2_penalty must be non-negative and finite"),
        ({"test_fraction": float("nan")}, "test_fraction must be in (0, 1), got nan"),
        ({"test_fraction": float("inf")}, "test_fraction must be in (0, 1), got inf"),
        ({"base_seed": -1}, "base_seed must be >= 0, got -1"),
        ({"fairea_degrees": [0.0, float("nan"), 1.0]}, "degrees must be ascending numbers"),
        ({"fairea_degrees": [0.0, 0.5, True]}, "degrees must be ascending numbers"),
        ({"train": {"seed": 5}}, "train key 'seed' is set by each repetition"),
        ({"train": {"seed": 0}}, "train key 'seed' is set by each repetition"),
        ({"train": {"instance_weights": [1.0, 2.0]}},
         "unknown train key(s) ['instance_weights']"),
    )]
    cases += [(json.dumps({k: v for k, v in base.items() if k not in absent}),
               f"{config_path}: missing config key(s) {sorted(absent)}")
              for absent in ({"dataset_path"}, {"schema_path"}, {"dataset_path", "schema_path"})]
    cases += [("[1, 2]", f"{config_path}: config must be a JSON object, not list"),
              ('{"methods": ', f"{config_path}: not a JSON file")]
    for text, message in cases:
        config_path.write_text(text)
        run_exits_2(message)
    # an error from a file value names the config file, and an override does not
    # rescue that value; an error from an override names no file
    config_path.write_text(json.dumps({**base, "repetitions": "2"}))
    assert cli_main(["run", "--config", str(config_path), "--reps", "2"]) == 2
    assert capsys.readouterr().err.startswith(f"fairhome: error: {config_path}: repetitions")
    config_path.write_text(json.dumps(base))
    assert cli_main(["run", "--config", str(config_path), "--reps", "0"]) == 2
    assert capsys.readouterr() == ("", "fairhome: error: repetitions must be >= 1\n")
    none = tmp_path / "none.json"
    assert cli_main(["run", "--config", str(none)]) == 2
    assert capsys.readouterr() == ("", f"fairhome: error: no such file: {none}\n")
    # a config that is a FIFO is not a file, and is not opened: a writer thread
    # would let an open go on, so that the run fails this test rather than hangs
    fifo = tmp_path / "config.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(json.dumps(base),))
    writer.start()
    assert cli_main(["run", "--config", str(fifo)]) == 2
    assert capsys.readouterr() == ("", f"fairhome: error: no such file: {fifo}\n")
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer finish
    writer.join()
    os.close(reader)
    # an output directory that is a file, lies under one or is empty, in the
    # config or from --out
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    # and a directory name that holds a NUL or a lone surrogate, or is too long
    bad_names = [str(tmp_path / name) for name in ("a\x00b", "\ud800", "a" * 256)]
    for out, message in ((afile, f"{afile}: not a directory"),
                         (afile / "sub", f"{afile / 'sub'}: not a directory"),
                         ("", "output directory path is empty"),
                         *((name, f"{name!r}: not a valid directory name") for name in bad_names)):
        for text, flags in ((json.dumps({**base, "output_dir": str(out)}), []),
                            (json.dumps(base), ["--out", str(out)])):
            config_path.write_text(text)
            assert cli_main(["run", "--config", str(config_path), *flags]) == 2
            assert capsys.readouterr() == ("", f"fairhome: error: {message}\n")
        # a malformed metrics.csv shows that the output is checked before any input is read
        assert cli_main(["report", "--records", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"fairhome: error: {message}\n")
        assert afile.read_text() == "kept\n" and not (tmp_path / "out").exists()

    # bad schema and data files, which are read before training
    monkeypatch.setattr(fairhome.runner, "load_dataset", load_dataset)
    schema_path, data_path = tmp_path / "schema.json", tmp_path / "data.csv"
    config_path.write_text(json.dumps(
        {**base, "schema_path": str(schema_path), "dataset_path": str(data_path)}))
    schema = json.loads((FIXTURES / "german_synth.schema.json").read_text())

    def with_first_attribute(**entry):
        return {**schema, "attributes": [{**schema["attributes"][0], **entry},
                                         *schema["attributes"][1:]]}

    rows = (FIXTURES / "german_synth.csv").read_text().splitlines()
    empty_cell = [*rows[:2], "," + rows[2].split(",", 1)[1], *rows[3:]]
    for schema_text, data_rows, message in (
        ('{"attributes": ', rows, f"{schema_path}: not a JSON file"),
        ("[1, 2]", rows, f"{schema_path}: schema must be a JSON object, not list"),
        (json.dumps(with_first_attribute(kind="text")), rows,
         f"{schema_path}: unknown kind 'text' for attribute 'checking_status'"),
        (json.dumps({**schema, "attributes": [1]}), rows,
         f"{schema_path}: attributes must be a list of JSON objects"),
        (json.dumps({**schema, "protected": "ab"}), rows,
         f"{schema_path}: protected must be a list of strings"),
        (json.dumps({**schema, "extra": 1}), rows,
         f"{schema_path}: unknown schema key(s) ['extra']"),
        (json.dumps(with_first_attribute(sex="M")), rows,
         f"{schema_path}: unknown attribute key(s) ['sex']"),
        (json.dumps(with_first_attribute(name=["a"])), rows,
         f"{schema_path}: name must be str, got ['a']"),
        (json.dumps(with_first_attribute(name=3)), rows, f"{schema_path}: name must be str, got 3"),
        (json.dumps({**schema, "label_column": ["credit_risk"]}), rows,
         f"{schema_path}: label_column must be str, got ['credit_risk']"),
        (json.dumps({**schema, "favorable_value": None}), rows,
         f"{schema_path}: favorable_value must be str, got None"),
        (json.dumps(schema), empty_cell,
         f"{data_path}: line 3: missing value for 'checking_status'"),
        (json.dumps(schema), rows[:1], f"{data_path}: no data rows"),
    ):
        schema_path.write_text(schema_text)
        data_path.write_text("\n".join(data_rows))
        run_exits_2(f"fairhome: error: {message}")
    # a test fraction that leaves no test rows, which the data's row count shows
    config_path.write_text(json.dumps({**base, "test_fraction": 1e-300}))
    run_exits_2("fairhome: error: test_fraction 1e-300 leaves no test rows out of 1000")
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("task,method\n")
    for args in (["--records", missing],
                 ["--records", str(FIXTURES / "german_synth.csv"), "--regions", missing],
                 ["--records", str(metrics), "--regions", ""]):
        assert cli_main(["report", *args, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"fairhome: error: no such file: {args[-1]}\n")
        assert not (tmp_path / "out").exists()
    assert cli_main(["metrics", "--predictions", missing]) == 2
    assert capsys.readouterr() == ("", f"fairhome: error: no such file: {missing}\n")
    regions = tmp_path / "regions.csv"
    regions.write_text("task,method,fairness_metric\nt,fairhome,wc_spd\n")
    assert cli_main(["report", "--records", str(FIXTURES / "german_synth.csv"),
                     "--regions", str(regions), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == (
        "", f"fairhome: error: {regions}: header lacks column(s) ['region']\n")
    assert not (tmp_path / "out").exists()
    # a region that is not a trade-off region, a row without one or with one
    # cell too many, and a repeated column
    for text, message in (
        ("method,region\nfairhome,win-win\nfairhome,bogus\n",
         "line 3: region must be one of ['win-win', 'good', 'poor', 'lose-lose', 'inverted'], "
         "got 'bogus'"),
        ("method,region\nfairhome,win-win\nfairhome\n", "line 3: expected 2 cells, got 1"),
        ("method,region\nfairhome,win-win\n\nfairhome,good,x\n",
         "line 4: expected 2 cells, got 3"),
        ("method,region,region\nfairhome,win-win,good\n",
         "duplicate header columns ['region']"),
    ):
        regions.write_text(text)
        assert cli_main(["report", "--records", str(FIXTURES / "german_synth.csv"),
                         "--regions", str(regions), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"fairhome: error: {regions}: {message}\n")
        assert not (tmp_path / "out").exists()
    # a metrics.csv that is empty, lacks a task or method column, repeats a
    # column, holds a ragged row, or whose cell that ran holds a metric value
    # that is not a number; a failed cell's blanks are fine
    records = tmp_path / "records.csv"
    for text, message in (
        ("", "empty file"),
        ("\n\n", "empty file"),
        ("task,method,wc_spd,wc_spd\nt,fairhome,0.1,9.0\n", "duplicate header columns ['wc_spd']"),
        ("task,method,wc_spd\nt,fairhome,0.1\nt,fairhome\n", "line 3: expected 3 cells, got 2"),
        ("task,method,wc_spd\n\nt,fairhome,0.1,0.2\n", "line 3: expected 3 cells, got 4"),
        ("method,wc_spd\nfairhome,0.1\n", "header lacks column(s) ['task']"),
        ("task,wc_spd\nt,0.1\n", "header lacks column(s) ['method']"),
        ("wc_spd\n0.1\n", "header lacks column(s) ['task', 'method']"),
        ("task,method,wc_spd\nt,fairhome,0.1\nt,fairhome,abc\n",
         "line 3: wc_spd must be a finite number, got 'abc'"),
        ("task,method,status,mcc\nt,rew,failed,\nt,fairhome,ok,\n",
         "line 3: mcc must be a finite number, got ''"),
        *((f"task,method,wc_spd\nt,fairhome,0.1\nt,fairhome,{v}\n",
           f"line 3: wc_spd must be a finite number, got '{v}'") for v in ("nan", "inf", "-inf")),
        ("task,method,wc_spd\nt,fairhome,0.1\nt,metric,0.2\n",
         "line 3: method 'metric' names win_tie_loss.csv's label column"),
    ):
        records.write_text(text)
        assert cli_main(["report", "--records", str(records),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"fairhome: error: {records}: {message}\n")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("methods", [("original", "fairhome"), ("original", "fairhome2"),
                                     ("fairhome",)])
def test_win_tie_loss_written_iff_fairhome_ran(tmp_path, methods):
    """Through ``fairhome run`` and ``fairhome report`` alike."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "dataset_path": str(FIXTURES / "german_synth.csv"),
        "schema_path": str(FIXTURES / "german_synth.schema.json"),
        "methods": list(methods), "repetitions": 1, "fairea_degrees": [0.0, 1.0],
        "fairea_reps": 1, "output_dir": str(tmp_path / "run"), "train": {"epochs": 2},
    }))
    assert cli_main(["run", "--config", str(config_path)]) == 0
    assert cli_main(["report", "--records", str(tmp_path / "run" / "metrics.csv"),
                     "--out", str(tmp_path / "report")]) == 0
    (tmp_path / "tables").mkdir()
    paths = write_tables(tmp_path / "tables", read_records_csv(tmp_path / "run" / "metrics.csv"),
                         None)
    assert ("wtl" in paths) == ("fairhome" in methods)
    for out in ("run", "report", "tables"):
        assert (tmp_path / out / "win_tie_loss.csv").exists() == ("fairhome" in methods)
    if "fairhome" in methods:
        assert ((tmp_path / "run" / "win_tie_loss.csv").read_bytes()
                == (tmp_path / "report" / "win_tie_loss.csv").read_bytes())


def run_cli(tmp_path, methods):
    """``fairhome run`` of a 2-repetition german logistic matrix into ``tmp_path / "run"``."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "dataset_path": str(FIXTURES / "german_synth.csv"),
        "schema_path": str(FIXTURES / "german_synth.schema.json"),
        "methods": list(methods), "repetitions": 2, "fairea_degrees": [0.0, 1.0],
        "fairea_reps": 1, "output_dir": str(tmp_path / "run"), "train": {"epochs": 2},
    }))
    return cli_main(["run", "--config", str(config_path)])


def test_report_rebuilds_tables_of_a_run_with_failed_cells(tmp_path, monkeypatch):
    """Failed cells (bad REW weights) are left out of the tables of ``fairhome
    run`` and of ``fairhome report`` alike, byte for byte."""
    import fairhome.runner

    monkeypatch.setattr(fairhome.runner, "reweighting_weights",
                        lambda train: np.zeros(len(train)))
    assert run_cli(tmp_path, ("original", "fairhome", "fairhome2", "rew")) == 1
    run = tmp_path / "run"
    assert "failed" in (run / "metrics.csv").read_text()
    assert cli_main(["report", "--records", str(run / "metrics.csv"),
                     "--out", str(tmp_path / "report")]) == 0
    for name in ("improvement.csv", "win_tie_loss.csv"):
        assert (tmp_path / "report" / name).read_bytes() == (run / name).read_bytes()
        assert "rew" not in (run / name).read_text()
    assert "fairhome2" in (run / "win_tie_loss.csv").read_text()


def test_report_counts_every_row_of_a_metrics_csv_without_status(tmp_path):
    """A row without a status column counts as a cell that ran."""
    import csv

    assert run_cli(tmp_path, ("original", "fairhome", "fairhome2")) == 0
    run = tmp_path / "run"
    with open(run / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    columns = [c for c in rows[0] if c not in ("status", "error")]
    with open(tmp_path / "bare.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    assert len(rows) == 6
    assert cli_main(["report", "--records", str(tmp_path / "bare.csv"),
                     "--out", str(tmp_path / "report")]) == 0
    for name in ("improvement.csv", "win_tie_loss.csv"):
        assert (tmp_path / "report" / name).read_bytes() == (run / name).read_bytes()
    table = improvement_table(read_records_csv(tmp_path / "bare.csv"))
    entry = next(t for t in table if t["method"] == "fairhome" and t["metric"] == "wc_spd")
    assert entry["method_mean"] == float(np.mean(
        [float(r["wc_spd"]) for r in rows if r["method"] == "fairhome"]))


def test_cli_metrics_bad_label_cell_exits_2(tmp_path, capsys):
    preds_path = tmp_path / "preds.csv"
    for bad_line in ("x,1,M", "1,,M", "2,1,M"):
        preds_path.write_text("\n".join(["y_true,y_pred,sex", "1,0,M", bad_line, "0,1,F"]) + "\n")
        capsys.readouterr()
        assert cli_main(["metrics", "--predictions", str(preds_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and f"{preds_path}: line 3: " in captured.err
        assert repr(bad_line.split(",")[0]) in captured.err
    # a file that is not UTF-8 text
    preds_path.write_bytes("y_true,y_pred,sex\n1,0,\xe9\n0,1,F\n".encode("latin-1"))
    assert cli_main(["metrics", "--predictions", str(preds_path)]) == 2
    assert capsys.readouterr() == ("", f"fairhome: error: {preds_path}: not UTF-8 text\n")
    # a header that repeats a column, lacks y_true or y_pred, or names no
    # protected attribute: rejected before any row is read
    for header, message in (
        ("y_true,y_pred,g,g", "duplicate header columns ['g']"),
        ("y_true,g", "header lacks column(s) ['y_pred']"),
        ("y_pred,g", "header lacks column(s) ['y_true']"),
        ("y_true,y_pred", "header needs at least one protected-attribute column"),
    ):
        preds_path.write_text("\n".join([header, "1,0,M,M", "x"]) + "\n")
        assert cli_main(["metrics", "--predictions", str(preds_path)]) == 2
        assert capsys.readouterr() == ("", f"fairhome: error: {preds_path}: {message}\n")
    # a row with too few or too many cells, checked before its labels
    for bad_line, got in (("1,1", 2), ("1,1,F,x", 4), ("0", 1), ("x", 1), ("x,1,F,x", 4)):
        preds_path.write_text("\n".join(["y_true,y_pred,g", "1,0,M", bad_line, "0,1,F"]) + "\n")
        assert cli_main(["metrics", "--predictions", str(preds_path)]) == 2
        assert capsys.readouterr() == (
            "", f"fairhome: error: {preds_path}: line 3: expected 3 cells, got {got}\n")


def test_cli_metrics_undefined_metric_exits_2(tmp_path, capsys):
    preds_path = tmp_path / "preds.csv"
    preds_path.write_text("y_true,y_pred,sex\n1,0,M\n0,1,M\n")  # one subgroup only
    assert cli_main(["metrics", "--predictions", str(preds_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"{preds_path}: fewer than 2 subgroups with test rows" in captured.err
