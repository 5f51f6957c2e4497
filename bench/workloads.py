"""The benchmark's workloads, driven from outside ``src/`` through public entry points.

A workload has a repeatable ``setup()`` and a ``run_unit()`` that does one
unit of timed work and returns a ``UnitResult``:

- a matrix workload's unit is one ``fairhome run`` (``fairhome.cli.main``):
  every method on every repetition, the Fairea classification, win-tie-loss,
  and the CSV and manifest emit;
- the online workload's unit is one pass of single ``fairhome_predict`` calls
  over every held-out instance in order, rotating through the six variants.

The benchmark seed picks the generated data (offset from the generators'
default seeds, so seed 0 writes the bundled fixtures byte for byte) and the
experiment's ``base_seed``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass

DEFAULT_SEED = 0
BASE_SEED = 42  # the base seed of configs/german_logistic.json
TEST_FRACTION = 0.3
REPETITIONS = 2
FAIREA_REPS = 10
HIDDEN_LAYERS = (16, 8)
METHODS = ("original", "fairhome", "fairhome1", "fairhome2", "fairhome3",
           "fairhome4", "fairhome5", "rew")
# the 11 report values that the output check hashes; other CSV columns may come and go
CORE_METRICS = ("wc_spd", "wc_aod", "wc_eod", "ac_spd", "ac_aod", "ac_eod",
                "accuracy", "macro_precision", "macro_recall", "macro_f1", "mcc")
FIXTURE_STEMS = {"german": "german_synth", "compas": "compas_synth"}


@dataclass
class UnitResult:
    busy_s: float  # wall time of the unit's operations only
    latencies: list  # seconds per attempted operation (one matrix, or one predict call)
    attempted: int  # matrix cells or predict calls
    failed: int
    digest: str | None  # None when the outputs could not be read


class _Fixture:
    """Generated dataset files for one workload seed."""

    def __init__(self, fh, kind: str, seed: int, workdir: str, n: int | None):
        self.synth = importlib.import_module("fairhome.synth")
        default_seed = {"german": self.synth.GERMAN_SEED, "compas": self.synth.COMPAS_SEED}[kind]
        self.fh = fh
        self.kind = kind
        self.n = n
        self.data_seed = default_seed + seed
        stem = FIXTURE_STEMS[kind]
        self.csv_path = os.path.join(workdir, f"{stem}.csv")
        self.schema_path = os.path.join(workdir, f"{stem}.schema.json")

    def write_and_load(self):
        self.synth.write_fixture(self.kind, self.csv_path, self.schema_path, self.n, self.data_seed)
        return self.fh.load_dataset(self.csv_path, self.fh.Schema.from_json(self.schema_path))


class MatrixWorkload:
    setup_repeats = 5

    def __init__(self, fh, kind: str, model_kind: str, seed: int, workdir: str, *,
                 n: int | None = None, repetitions: int = REPETITIONS,
                 fairea_reps: int = FAIREA_REPS):
        self.fixture = _Fixture(fh, kind, seed, workdir, n)
        self.out_dir = os.path.join(workdir, "out")
        self.config_path = os.path.join(workdir, "config.json")
        self.config = {
            "dataset_path": self.fixture.csv_path,
            "schema_path": self.fixture.schema_path,
            "model_kind": model_kind,
            "methods": list(METHODS),
            "repetitions": repetitions,
            "test_fraction": TEST_FRACTION,
            "base_seed": BASE_SEED + seed,
            "fairea_reps": fairea_reps,
            "output_dir": self.out_dir,
        }

    def setup(self) -> None:
        self.fixture.write_and_load()
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)

    def run_unit(self) -> UnitResult:
        shutil.rmtree(self.out_dir, ignore_errors=True)  # no stale CSV can pass the check
        cli = importlib.import_module("fairhome.cli")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["run", "--config", self.config_path])
        except Exception:  # noqa: BLE001 - a crashed matrix is one failed operation
            traceback.print_exc(file=sys.stderr)
            busy = time.perf_counter() - start
            return UnitResult(busy, [busy], 1, 1, None)
        busy = time.perf_counter() - start
        try:
            cells, failed = _cell_status(self.out_dir)
            digest = matrix_digest(self.out_dir)
        except (OSError, KeyError, csv.Error) as e:
            print(f"output check could not read {self.out_dir}: {e!r}", file=sys.stderr)
            return UnitResult(busy, [busy], 1, 1, None)
        return UnitResult(busy, [busy], cells, failed, digest)


def _cell_status(out_dir: str) -> tuple:
    with open(os.path.join(out_dir, "metrics.csv"), newline="", encoding="utf-8") as fh:
        statuses = [row["status"] for row in csv.DictReader(fh)]
    return len(statuses), sum(s != "ok" for s in statuses)


def matrix_digest(out_dir: str) -> str:
    """sha256 over the core report values, the Fairea regions and win-tie-loss."""
    h = hashlib.sha256()
    with open(os.path.join(out_dir, "metrics.csv"), newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = [row["task"], row["method"], row["repetition"]]
            h.update(("\x1f".join(key + [row[m] for m in CORE_METRICS]) + "\n").encode())
    h.update(b"\x1eregions\n")
    with open(os.path.join(out_dir, "fairea_regions.csv"), newline="",
              encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            h.update((row["region"] + "\n").encode())
    h.update(b"\x1ewin_tie_loss\n")
    with open(os.path.join(out_dir, "win_tie_loss.csv"), "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def variants(fh) -> tuple:
    """(mutation, ensemble) of fairhome .. fairhome5, in method order."""
    m, e = fh.MutationStrategy, fh.EnsembleStrategy
    return (
        (m.PROTECTED_ONLY, e.MAJORITY_VOTE),
        (m.CORRELATED_FEATURES, e.MAJORITY_VOTE),
        (m.PROTECTED_ONLY, e.AVERAGING),
        (m.PROTECTED_ONLY, e.WEIGHTED_AVERAGING),
        (m.SINGLE_ATTRIBUTE_ONLY, e.MAJORITY_VOTE),
        (m.MULTI_ATTRIBUTE_ONLY, e.MAJORITY_VOTE),
    )


class OnlinePredictWorkload:
    setup_repeats = 3

    def __init__(self, fh, seed: int, workdir: str, *, n: int | None = None):
        self.fh = fh
        self.fixture = _Fixture(fh, "compas", seed, workdir, n)
        self.base_seed = BASE_SEED + seed
        self.variants = variants(fh)

    def setup(self) -> None:
        fh = self.fh
        train, test = fh.split(self.fixture.write_and_load(), TEST_FRACTION, self.base_seed)
        self.domains = fh.protected_domains(train)
        self.model = fh.fit_mlp(train, fh.TrainConfig(seed=self.base_seed),
                                hidden_layers=HIDDEN_LAYERS)
        self.corr = fh.fit_extrapolation_models(train)
        self.instances = test.instances()

    def run_unit(self) -> UnitResult:
        # looked up per pass, so a traced pass goes through the traced name
        predict = self.fh.fairhome_predict
        model, domains, corr = self.model, self.domains, self.corr
        clock = time.perf_counter
        latencies = []
        decisions = []
        failed = 0
        start = clock()
        for instance in self.instances:
            for mutation, ensemble in self.variants:
                t = clock()
                try:
                    decisions.append(predict(model, instance, domains, mutation, ensemble, corr))
                except Exception:  # noqa: BLE001 - a raising call is one failed operation
                    failed += 1
                    decisions.append("x")
                latencies.append(clock() - t)
        busy = clock() - start
        digest = hashlib.sha256("".join(map(str, decisions)).encode()).hexdigest()
        return UnitResult(busy, latencies, len(latencies), failed, digest)


def make(name: str, fh, seed: int, workdir: str, **sizes):
    """Build the named workload; ``sizes`` shrinks it for smoke tests."""
    if name == "matrix-german-logistic":
        return MatrixWorkload(fh, "german", "logistic", seed, workdir, **sizes)
    if name == "matrix-compas-mlp":
        return MatrixWorkload(fh, "compas", "mlp", seed, workdir, **sizes)
    if name == "online-predict":
        return OnlinePredictWorkload(fh, seed, workdir, **sizes)
    raise ValueError(f"unknown workload {name!r}")
