"""Experiment orchestration: (dataset x model x method x repetition) matrices.

Each repetition re-splits with its own seed and trains one model that every
method but REW shares. All repetitions' models, and their REW models, are
trained in one fit call, in lockstep, with parameters identical to those of
separate fits. Failures are isolated per cell: a repetition whose split cannot
train, a failed fit or a failed method is recorded in its own cells and the
matrix goes on. All randomness flows from the base seed, making report CSVs
byte-identical across runs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import time
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import (Dataset, ProtectedDomains, Schema, check_field_types, check_keys,
                   check_test_fraction, load_dataset, protected_domains, read_json, read_table,
                   split)
from .ensemble import EnsembleStrategy, fairhome_predict
from .errors import TrainingError, UsageError
from .fairea import (DEFAULT_DEGREES, DEFAULT_REPS, TradeoffPoint, TradeoffRegion,
                     build_baseline, check_curve_settings, classify_case, mutation_curve)
from .metrics import (
    FAIRNESS_METRICS,
    PERFORMANCE_METRICS,
    LabeledPredictions,
    compute_report,
)
from .model import (
    DEFAULT_HIDDEN_LAYERS,
    TrainConfig,
    check_trainable,
    check_weights,
    fit_logistic,
    fit_mlp,
    reweighting_weights,
)
from .mutate import MutationStrategy, fit_extrapolation_models, mutant_positions
from .stats import LOSS, TIE, WIN, win_tie_loss

DESK_HIDDEN_LAYERS = (16, 8)

FAIRHOME_VARIANTS = {
    "fairhome": (MutationStrategy.PROTECTED_ONLY, EnsembleStrategy.MAJORITY_VOTE),
    "fairhome1": (MutationStrategy.CORRELATED_FEATURES, EnsembleStrategy.MAJORITY_VOTE),
    "fairhome2": (MutationStrategy.PROTECTED_ONLY, EnsembleStrategy.AVERAGING),
    "fairhome3": (MutationStrategy.PROTECTED_ONLY, EnsembleStrategy.WEIGHTED_AVERAGING),
    "fairhome4": (MutationStrategy.SINGLE_ATTRIBUTE_ONLY, EnsembleStrategy.MAJORITY_VOTE),
    "fairhome5": (MutationStrategy.MULTI_ATTRIBUTE_ONLY, EnsembleStrategy.MAJORITY_VOTE),
}
VALID_METHODS = ("original", *FAIRHOME_VARIANTS, "rew")
# the leading columns of metrics.csv, ahead of the report's metric columns
RECORD_HEAD = ("task", "method", "repetition", "seed", "model_fingerprint", "status", "error")
REGIONS = tuple(r.value for r in TradeoffRegion)
IMPROVEMENT_COLUMNS = ("task", "method", "metric", "original_mean", "method_mean",
                       "absolute_change", "relative_change_pct")
DISTRIBUTION_COLUMNS = ("method", *REGIONS, "total", "beats_baseline_pct")


@dataclass
class ExperimentConfig:
    dataset_path: str
    schema_path: str
    model_kind: str = "logistic"
    methods: tuple[str, ...] = ("original", "fairhome")
    repetitions: int = 5
    test_fraction: float = 0.3
    base_seed: int = 0
    fairea_degrees: tuple = DEFAULT_DEGREES
    fairea_reps: int = DEFAULT_REPS
    output_dir: str = "out"
    paper_arch: bool = False
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        check_field_types(self)
        if self.model_kind not in ("logistic", "mlp"):
            raise UsageError(f"unknown model kind {self.model_kind!r}")
        for m in self.methods:
            if m not in VALID_METHODS:
                raise UsageError(f"unknown method {m!r}; valid: {VALID_METHODS}")
        if not self.methods:
            raise UsageError("methods must name at least one method")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise UsageError(f"methods must not repeat, got {repeated} more than once")
        if self.repetitions < 1:
            raise UsageError("repetitions must be >= 1")
        if self.base_seed < 0:
            raise UsageError(f"base_seed must be >= 0, got {self.base_seed}")
        check_test_fraction(self.test_fraction)
        if self.train.seed != TrainConfig().seed:
            raise UsageError(f"train seed is set by each repetition (base_seed + repetition), "
                             f"got {self.train.seed}; set base_seed instead")
        self.methods = tuple(self.methods)
        self.fairea_degrees = check_curve_settings(self.fairea_degrees, self.fairea_reps)

    @property
    def task_id(self) -> str:
        stem = os.path.splitext(os.path.basename(self.dataset_path))[0]
        return f"{stem}-{self.model_kind}"

    def to_dict(self) -> dict:
        """The fields as JSON values, without the train seed, which each
        repetition sets itself."""
        doc = asdict(self)
        del doc["train"]["seed"]
        return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentConfig":
        """The config in the file ``path``, then the ``overrides`` that are not None;
        an error from a file value names the path, one from an override does not."""
        raw = read_json(path)
        try:
            check_keys(raw, cls, "config")
            train = check_keys(raw.pop("train", {}), TrainConfig, "train")
            if "seed" in train:
                raise UsageError("train key 'seed' is set by each repetition, not by the config")
            config = cls(**raw, train=TrainConfig(**train))
        except UsageError as e:
            raise UsageError(f"{path}: {e}") from None
        return replace(config, **{k: v for k, v in overrides.items() if v is not None})


@dataclass
class RunRecord:
    task: str
    method: str
    repetition: int
    seed: int
    model_fingerprint: str = ""
    report: object = None  # MetricReport, None when the cell failed
    duration_s: float = 0.0
    error: str | None = None

    @property
    def status(self) -> str:
        return "ok" if self.error is None else "failed"

    def to_row(self) -> dict:
        row = {name: getattr(self, name) for name in RECORD_HEAD}
        row["error"] = self.error or ""
        if self.report is not None:
            row.update(self.report.to_flat_dict())
        return row


@dataclass
class FaireaCase:
    task: str
    method: str
    repetition: int
    fairness_metric: str
    performance_metric: str
    region: str

    def to_row(self) -> dict:
        return dict(vars(self))


@dataclass
class ExperimentResult:
    records: list
    fairea_cases: list


def _method_predictions(method, model, instances, domains, corr):
    """Decisions of ``method`` on the test ``instances``; ``model`` is the
    reweighted one for rew."""
    if method in ("original", "rew"):
        return model.predict(instances)
    mutation, strategy = FAIRHOME_VARIANTS[method]
    if method == "fairhome5" and any(len(mutant_positions(own, domains, mutation, None)) == 1
                                     for own in domains.joint_combos):
        # an observed combination with a single multi-attribute mutant leaves only two
        # voters; vote ties are meaningless there, so fall back to probability averaging
        warnings.warn(
            f"fairhome5 with {len(domains.schema.protected)} protected attributes yields "
            "2-member ensembles; using averaging instead of majority vote",
            stacklevel=2,
        )
        strategy = EnsembleStrategy.AVERAGING
    return fairhome_predict(model, instances, domains, mutation, strategy, corr)


def require_files(*paths) -> None:
    """UsageError naming the first of ``paths`` that is not an existing file."""
    for path in paths:
        if not os.path.isfile(path):
            raise UsageError(f"no such file: {path}")


def require_output_dir(path) -> None:
    """UsageError naming ``path`` unless it is a directory or can be made one:
    its nearest existing ancestor must be a directory, and each name to be
    made below it must hold no NUL and fit the file system."""
    if not path:
        raise UsageError("output directory path is empty")
    nearest = os.path.abspath(path)
    while not os.path.exists(nearest):
        nearest = os.path.dirname(nearest)
    if not os.path.isdir(nearest):
        raise UsageError(f"{path}: not a directory")
    longest = os.pathconf(nearest, "PC_NAME_MAX")
    for name in os.path.relpath(os.path.abspath(path), nearest).split(os.sep):
        try:
            valid = "\0" not in name and len(os.fsencode(name)) <= longest
        except UnicodeError:  # a lone surrogate, which no file name holds
            valid = False
        if not valid:
            raise UsageError(f"{path!r}: not a valid directory name")


@dataclass
class _Repetition:
    """One repetition's split and what is trained on it."""

    index: int
    seed: int
    train: Dataset
    test: Dataset
    domains: ProtectedDomains
    # need -> its trained model, or the exception that fails the cells needing
    # it: "model" (every method but rew) and "rew"
    needs: dict = field(default_factory=dict)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full matrix and classify every mitigation case against Fairea.

    Three passes: split every repetition and check what its training needs;
    train the models of every repetition that passed in one fit call (a model
    left with a non-finite parameter fails as diverged); then run the methods
    and the Fairea classification repetition by repetition.
    """
    require_files(config.schema_path, config.dataset_path)
    schema = Schema.from_json(config.schema_path)
    dataset = load_dataset(config.dataset_path, schema)

    reps, ready, weights = [], [], []
    for index in range(config.repetitions):
        seed = config.base_seed + index
        train, test = split(dataset, config.test_fraction, seed)
        rep = _Repetition(index, seed, train, test, protected_domains(train))
        reps.append(rep)
        try:
            check_trainable(train)
        except TrainingError as e:  # every cell of this repetition fails
            rep.needs["model"] = e
            continue
        ready.append(rep)
        weights.append([None])  # the fit's weights entry: the main model's, then REW's
        # REW's model is trained in the same descent as the main one; its
        # weights are checked first, so that bad weights fail its cells alone
        if "rew" in config.methods:
            try:
                weights[-1].append(check_weights(reweighting_weights(train)))
            except Exception as e:
                rep.needs["rew"] = e

    trains = [rep.train for rep in ready]
    configs = [replace(config.train, seed=rep.seed) for rep in ready]
    try:
        if config.model_kind == "logistic":
            results = fit_logistic(trains, configs, weights=weights)
        else:
            hidden = DEFAULT_HIDDEN_LAYERS if config.paper_arch else DESK_HIDDEN_LAYERS
            results = fit_mlp(trains, configs, hidden_layers=hidden, weights=weights)
    except Exception as e:  # every cell of these repetitions fails
        results = [[e]] * len(ready)
    for rep, result in zip(ready, results):
        model, *companion_models = map(_unless_diverged, result)
        rep.needs["model"] = model
        rep.needs.update(zip(("rew",), companion_models))

    records: list = []
    cases: list = []
    task = config.task_id
    for rep in reps:
        _run_repetition(config, task, rep, records, cases)
    return ExperimentResult(records=records, fairea_cases=cases)


def _unless_diverged(model):
    """``model``, or a TrainingError in its place when descent left one of its
    parameters non-finite; an exception passes through."""
    if isinstance(model, Exception) or all(np.isfinite(p).all() for p in model.parameters()):
        return model
    return TrainingError("descent diverged")


def _run_repetition(config, task, rep, records, cases) -> None:
    """Append one repetition's records, and its Fairea cases, to ``records``
    and ``cases``. A cell fails with the main model's exception, else with that
    of its own model (rew's) or of fairhome1's extrapolation fit, which runs in
    its cell; it carries the fingerprint of the model it scores with whenever
    that model trained."""
    # the test split's instances and group keys are built once for every method
    instances = rep.test.instances()
    labeled = LabeledPredictions.from_dataset(rep.test, rep.test.labels)
    first, original_preds = len(records), None
    for method in config.methods:
        start = time.perf_counter()
        model = rep.needs.get("rew") if method == "rew" else rep.needs["model"]
        fingerprint = model.fingerprint() if hasattr(model, "fingerprint") else ""
        record = RunRecord(task, method, rep.index, rep.seed, fingerprint)
        try:
            for need in (rep.needs["model"], model):
                if isinstance(need, Exception):
                    raise need
            corr = fit_extrapolation_models(rep.train) if method == "fairhome1" else None
            preds = labeled.with_predictions(
                _method_predictions(method, model, instances, rep.domains, corr))
            record.report = compute_report(preds)
            if method == "original":
                original_preds = preds
        except Exception as e:  # isolate the cell, keep the matrix going
            record.error = f"{type(e).__name__}: {e}"
        record.duration_s = time.perf_counter() - start
        records.append(record)
    if original_preds is not None:
        cases.extend(_classify_rep(config, task, rep, original_preds, records[first:]))


def _classify_rep(config, task, rep, original_preds, records):
    """Fairea-classify every mitigation method of one repetition whose cell in
    ``records`` ran.

    Each (fairness, performance) baseline is built once and shared by every
    method; its degree-0 point is the original model's.
    """
    curve = mutation_curve(original_preds, config.fairea_degrees, config.fairea_reps, rep.seed)
    baselines = {
        (fm, pm): build_baseline(original_preds, fm, pm, config.fairea_degrees,
                                 config.fairea_reps, rep.seed, curve=curve)
        for fm in FAIRNESS_METRICS for pm in PERFORMANCE_METRICS
    }
    flats = {r.method: r.report.to_flat_dict() for r in records
             if r.report is not None and r.method != "original"}
    cases = []
    for method, flat in flats.items():
        for (fm, pm), baseline in baselines.items():
            region = classify_case(TradeoffPoint(flat[fm], flat[pm], fm, pm), baseline)
            cases.append(FaireaCase(task, method, rep.index, fm, pm, region.value))
    return cases


def _cell_values(rows) -> dict:
    """(task, method) -> metric -> float values in row order, over rows that ran or
    carry no status."""
    cells: dict = {}
    for r in rows:
        if r.get("status", "ok") == "ok":
            values = cells.setdefault((r["task"], r["method"]), {})
            for metric in FAIRNESS_METRICS + PERFORMANCE_METRICS:
                if metric in r:
                    values.setdefault(metric, []).append(float(r[metric]))
    return cells


def improvement_table(rows) -> list:
    """Per (method, metric): mean values and absolute/relative change vs original."""
    cells = _cell_values(rows)
    table = []
    for (task, method), values in sorted(cells.items()):
        if method == "original":
            continue
        base = cells.get((task, "original"), {})
        for metric, vals in values.items():
            mean_m = float(np.mean(vals))
            entry = dict.fromkeys(IMPROVEMENT_COLUMNS, "")
            entry.update(task=task, method=method, metric=metric, method_mean=mean_m)
            if metric in base:
                mean_o = float(np.mean(base[metric]))
                entry.update(original_mean=mean_o, absolute_change=mean_m - mean_o)
                if mean_o != 0:
                    entry["relative_change_pct"] = 100.0 * (mean_m - mean_o) / mean_o
            table.append(entry)
    return table


def wtl_matrix(rows) -> list:
    """Win/tie/loss counts of fairhome vs every other method per fairness metric."""
    cells = _cell_values(rows)
    subject = {task: values for (task, method), values in cells.items() if method == "fairhome"}
    out = []
    for metric in FAIRNESS_METRICS:
        row = {"metric": metric}
        for opp in sorted({m for _, m in cells if m != "fairhome"}):
            outcomes = [win_tie_loss(subj[metric], cells[(task, opp)][metric]).outcome
                        for task, subj in subject.items()
                        if metric in subj and metric in cells.get((task, opp), {})]
            row[opp] = "/".join(str(outcomes.count(o)) for o in (WIN, TIE, LOSS))
        out.append(row)
    return out


def region_distribution(case_rows) -> list:
    """Count of each trade-off region per method, plus the beats-baseline share."""
    by_method: dict = {}
    for r in case_rows:
        by_method.setdefault(r["method"], []).append(r["region"])
    out = []
    for method, regions in sorted(by_method.items()):
        counts = {name: regions.count(name) for name in REGIONS}
        beats = counts[TradeoffRegion.WIN_WIN.value] + counts[TradeoffRegion.GOOD.value]
        out.append(dict(zip(DISTRIBUTION_COLUMNS, (method, *counts.values(), len(regions),
                                                   100.0 * beats / len(regions)))))
    return out


def _write_csv(output_dir, name, rows, columns) -> str:
    """Write ``rows`` under the header ``columns`` to the file ``name`` in
    ``output_dir``; returns its path."""
    path = os.path.join(output_dir, name)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_tables(output_dir, rows, case_rows) -> dict:
    """Write improvement.csv from metric rows, win_tie_loss.csv when fairhome is
    among them, and region_distribution.csv unless ``case_rows`` is None.

    Returns the paths written.
    """
    paths = {"improvement": _write_csv(output_dir, "improvement.csv", improvement_table(rows),
                                       IMPROVEMENT_COLUMNS)}
    if any(r.get("method") == "fairhome" for r in rows):
        wtl_rows = wtl_matrix(rows)  # one row per fairness metric, each with the same columns
        paths["wtl"] = _write_csv(output_dir, "win_tie_loss.csv", wtl_rows, list(wtl_rows[0]))
    if case_rows is not None:
        paths["regions"] = _write_csv(output_dir, "region_distribution.csv",
                                      region_distribution(case_rows), DISTRIBUTION_COLUMNS)
    return paths


def emit_report(records, fairea_cases, output_dir) -> dict:
    """Write the per-cell metrics, improvement, win-tie-loss, and region CSVs.

    Returns the paths written. Wall-clock durations go to the manifest only so
    the metric CSVs stay byte-identical across reruns.
    """
    os.makedirs(output_dir, exist_ok=True)
    rows = [r.to_row() for r in records]
    core = [k for k in FAIRNESS_METRICS + PERFORMANCE_METRICS if any(k in r for r in rows)]
    extra = sorted({k for r in rows for k in r} - set(RECORD_HEAD) - set(core))
    paths = {"metrics": _write_csv(output_dir, "metrics.csv", rows, [*RECORD_HEAD, *core, *extra])}

    case_rows = [c.to_row() for c in fairea_cases] or None
    if case_rows:
        paths["fairea_cases"] = _write_csv(output_dir, "fairea_regions.csv", case_rows,
                                           [f.name for f in fields(FaireaCase)])
    paths.update(write_tables(output_dir, rows, case_rows))
    return paths


def write_manifest(config: ExperimentConfig, records, output_dir) -> str:
    path = os.path.join(output_dir, "manifest.json")
    doc = {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "seeds": sorted({r.seed for r in records}),
        "cells": [
            {"task": r.task, "method": r.method, "repetition": r.repetition,
             "fingerprint": r.model_fingerprint, "duration_s": round(r.duration_s, 4),
             "status": r.status}
            for r in records
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def _read_rows(path, required, check) -> list:
    """The rows of ``path`` as dicts keyed by its header; ``check(where, row)`` sees
    each as it is read. ``read_table`` checks the file and its ``required`` columns."""
    lines = read_table(path, required=required)
    header = next(lines)
    rows = []
    for where, cells in lines:
        row = dict(zip(header, cells))
        check(where, row)
        rows.append(row)
    return rows


def read_records_csv(path) -> list:
    """Load a metrics.csv back into row dicts (numbers parsed where possible).

    ``read_table`` checks the file and its ``task`` and ``method`` columns;
    UsageError when a cell that ran holds a metric value that is not a finite
    number, or a method is named ``metric``, win_tie_loss.csv's label column.
    """
    text = {*RECORD_HEAD, "excluded_subgroups"} - {"repetition", "seed"}

    def parse(where, row):
        if row["method"] == "metric":
            raise UsageError(f"{where}: method 'metric' names win_tie_loss.csv's label column")
        ran = row.get("status", "ok") == "ok"
        for k, v in row.items():
            if k not in text:
                with contextlib.suppress(ValueError):
                    row[k] = float(v)
            if (ran and k in FAIRNESS_METRICS + PERFORMANCE_METRICS
                    and not (isinstance(row[k], float) and math.isfinite(row[k]))):
                raise UsageError(f"{where}: {k} must be a finite number, got {v!r}")

    return _read_rows(path, ("task", "method"), parse)


def read_regions_csv(path) -> list:
    """Load a fairea_regions.csv back into row dicts. ``read_table`` checks the
    file and its columns; UsageError when a region is not a trade-off region."""

    def check(where, row):
        if row["region"] not in REGIONS:
            raise UsageError(f"{where}: region must be one of {list(REGIONS)}, "
                             f"got {row['region']!r}")

    return _read_rows(path, ("method", "region"), check)
