"""Tiny-size smoke runs of every workload, and the benchmark's contract files."""

import json
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import fairhome
from bench import layers, run, spec, workloads
from bench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
TINY = {
    "matrix-german-logistic": {"n": 160, "repetitions": 1, "fairea_reps": 2},
    "matrix-compas-mlp": {"n": 160, "repetitions": 1, "fairea_reps": 2},
    "online-predict": {"n": 60},
}


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_tiny_workload_runs_clean_and_traced_digest_matches(name, tmp_path):
    wl = workloads.make(name, fairhome, 3, str(tmp_path), **TINY[name])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wl.setup()
        first = wl.run_unit()
        second = wl.run_unit()
    assert first.attempted > 0 and first.failed == 0
    assert first.digest is not None and first.digest == second.digest

    tracer = Tracer()
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        with tracer.install(layers.SITES) as installed:
            wl.setup()
            traced = wl.run_unit()
    assert installed.absent == []
    assert traced.digest == first.digest
    metrics = layers.layer_metrics(tracer.spans, traced.busy_s + 1.0, 1)
    assert metrics["ensemble.fairhome_predict.calls"] > 0
    assert metrics["model.fit.calls"] >= 1


def test_measure_reports_every_end_to_end_metric(tmp_path):
    wl = workloads.make("online-predict", fairhome, 0, str(tmp_path), n=60)
    results, latencies, metrics = run.measure(wl, seconds=0.0, import_s=0.1)
    assert set(metrics) == {m["name"] for m in spec.END_TO_END}
    assert all(v > 0 for v in metrics.values())
    assert len(latencies) == results[0].attempted == 6 * 18


def test_measure_traced_reports_every_per_layer_metric(tmp_path):
    wl = workloads.make("matrix-german-logistic", fairhome, 0, str(tmp_path),
                        **TINY["matrix-german-logistic"])
    results, metrics, _ = run.measure_traced(wl, 0.0)
    assert all(run.check_outputs(results, None))
    assert set(metrics) == set(layers.metric_units())
    assert metrics["warnings.fairhome5_fallback"] == 1  # german has 2 protected attributes
    assert metrics["runner.run_experiment.calls"] == 1


def test_default_seed_reproduces_the_bundled_fixtures(tmp_path):
    for name, stem in (("matrix-german-logistic", "german_synth"),
                       ("online-predict", "compas_synth")):
        wl = workloads.make(name, fairhome, workloads.DEFAULT_SEED, str(tmp_path))
        wl.fixture.write_and_load()
        for suffix in (".csv", ".schema.json"):
            produced = (tmp_path / f"{stem}{suffix}").read_bytes()
            assert produced == (ROOT / "fixtures" / f"{stem}{suffix}").read_bytes()


def test_benchmark_json_is_generated_from_the_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == spec.benchmark_json()


def test_spec_respects_the_contract_limits():
    doc = spec.benchmark_json()
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert unit_re.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in doc["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    # a full comparison (4 + 22 runs per workload), with start-up, set-up and
    # the last unit's overrun, stays under 57 minutes
    assert (4 + 22 * len(doc["workloads"])) * (doc["run_seconds"] + 15) < 3420
    pinned = json.loads((ROOT / "bench" / "pinned.json").read_text(encoding="utf-8"))
    assert set(pinned) == set(spec.WORKLOADS)


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "online-predict", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
