"""The traced call sites and the per-layer metrics derived from their spans.

Each function is wrapped where its caller looks it up, so a call is counted
once whichever module makes it. The benchmark's own calls go through the
``fairhome`` package namespace and ``fairhome.cli``.
"""

from __future__ import annotations

from .tracer import Site, nearest_ancestor, totals_by_name


def _fit_tag(args, kwargs, result):
    train = args[0] if args else kwargs["train"]
    config = args[1] if len(args) > 1 else kwargs["config"]
    return {"rows": len(train), "rew": config.instance_weights is not None}


def _rows_tag(args, kwargs, result):
    return len(args[2] if len(args) > 2 else kwargs["X"])


def _mutants_tag(args, kwargs, result):
    return len(result.mutants)


SITES = (
    Site("data.load_dataset", "fairhome.runner", "load_dataset"),
    Site("data.load_dataset", "fairhome", "load_dataset"),
    Site("data.split", "fairhome.runner", "split"),
    Site("data.split", "fairhome", "split"),
    Site("data.encode", "fairhome.model", "encode"),
    Site("data.encode_matrix", "fairhome.model", "encode_matrix"),
    # the runner imports encode_matrix inside a function, from fairhome.data
    Site("data.encode_matrix", "fairhome.data", "encode_matrix"),
    Site("model.fit", "fairhome.runner", "fit_logistic", _fit_tag),
    Site("model.fit", "fairhome.runner", "fit_mlp", _fit_tag),
    Site("model.fit", "fairhome", "fit_mlp", _fit_tag),
    Site("model.logistic_loss_grad", "fairhome.model", "logistic_loss_grad", _rows_tag),
    Site("model.mlp_loss_grad", "fairhome.model", "mlp_loss_grad", _rows_tag),
    Site("model.predict_proba", "fairhome.model", "LogisticModel.predict_proba"),
    Site("model.predict_proba", "fairhome.model", "MlpModel.predict_proba"),
    Site("model.proba_matrix", "fairhome.model", "LogisticModel.proba_matrix"),
    Site("model.proba_matrix", "fairhome.model", "MlpModel.proba_matrix"),
    Site("mutate.generate_mutants", "fairhome.ensemble", "generate_mutants", _mutants_tag),
    Site("mutate.fit_extrapolation_models", "fairhome.runner", "fit_extrapolation_models"),
    Site("mutate.fit_extrapolation_models", "fairhome", "fit_extrapolation_models"),
    Site("ensemble.fairhome_predict", "fairhome.runner", "fairhome_predict"),
    Site("ensemble.fairhome_predict", "fairhome", "fairhome_predict"),
    Site("ensemble.aggregate", "fairhome.ensemble", "aggregate"),
    Site("metrics.compute_report", "fairhome.runner", "compute_report"),
    Site("metrics.compute_report", "fairhome.fairea", "compute_report"),
    Site("fairea.mutation_curve", "fairhome.runner", "mutation_curve"),
    Site("fairea.build_baseline", "fairhome.runner", "build_baseline"),
    Site("fairea.classify_case", "fairhome.runner", "classify_case"),
    Site("stats.win_tie_loss", "fairhome.runner", "win_tie_loss"),
    Site("runner.run_experiment", "fairhome.cli", "run_experiment"),
    Site("runner.emit_report", "fairhome.cli", "emit_report"),
    Site("runner.write_manifest", "fairhome.cli", "write_manifest"),
)

FUNCTIONS = tuple(dict.fromkeys(site.name for site in SITES))

LOSS_GRADS = ("model.logistic_loss_grad", "model.mlp_loss_grad")

# message fragment -> counter; matched against str(warning.message)
WARNING_SOURCES = (
    ("fairhome5 with 2 protected attributes", "warnings.fairhome5_fallback"),
    ("beyond the baseline curve", "warnings.fairea_clamped"),
    ("has a single observed value", "warnings.single_value_protected"),
)
OTHER_WARNINGS = "warnings.other"


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for fn in FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_pct"] = "%"
        units[f"{fn}.errors"] = "count"
    units["model.fit.rew_calls"] = "count"
    for fn in LOSS_GRADS:
        units[f"{fn}.fullbatch_calls"] = "count"
    units["model.minibatch_grad_share"] = "ratio"
    units["mutate.generate_mutants.mutants_per_call"] = "count"
    units["ensemble.members_per_decision"] = "count"
    for caller in ("method", "fairea"):
        units[f"metrics.compute_report.{caller}.calls"] = "count"
        units[f"metrics.compute_report.{caller}.self_pct"] = "%"
    for _, name in WARNING_SOURCES:
        units[name] = "count"
    units[OTHER_WARNINGS] = "count"
    units["trace.wall_s"] = "s"
    units["trace.outside_pct"] = "%"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


def count_warnings(caught) -> dict:
    counts = {name: 0 for _, name in WARNING_SOURCES}
    counts[OTHER_WARNINGS] = 0
    for w in caught:
        text = str(w.message)
        name = next((n for frag, n in WARNING_SOURCES if frag in text), OTHER_WARNINGS)
        counts[name] += 1
    return counts


def layer_metrics(spans, wall_s: float, units: int) -> dict:
    """Per-layer values for ``units`` traced units that took ``wall_s`` in all.

    Counts are per unit; ``self_pct`` is a share of the traced wall time, so
    the shares of all functions plus ``trace.outside_pct`` make 100.
    """
    pct = 100.0 / wall_s
    totals = totals_by_name(spans)
    out = {}
    for fn in FUNCTIONS:
        t = totals.get(fn)
        out[f"{fn}.calls"] = (t.calls if t else 0) / units
        out[f"{fn}.self_pct"] = (t.self_s if t else 0.0) * pct
        out[f"{fn}.errors"] = (t.errors if t else 0) / units

    fits = [s for s in spans if s.name == "model.fit"]
    out["model.fit.rew_calls"] = sum(bool(s.tag and s.tag["rew"]) for s in fits) / units

    minibatch = full = 0
    for name in LOSS_GRADS:
        n_full = 0
        for i, span in enumerate(spans):
            if span.name != name:
                continue
            fit = nearest_ancestor(spans, i, "model.fit")
            # a call over every training row is the per-epoch loss_history pass;
            # this holds while batch_size is below the training size
            if fit is not None and fit.tag and span.tag == fit.tag["rows"]:
                n_full += 1
            else:
                minibatch += 1
        full += n_full
        out[f"{name}.fullbatch_calls"] = n_full / units
    out["model.minibatch_grad_share"] = minibatch / (minibatch + full) if minibatch + full else 0.0

    mutant_calls = [s.tag for s in spans if s.name == "mutate.generate_mutants" and s.tag is not None]
    out["mutate.generate_mutants.mutants_per_call"] = (
        sum(mutant_calls) / len(mutant_calls) if mutant_calls else 0.0)
    decisions = out["ensemble.fairhome_predict.calls"]
    out["ensemble.members_per_decision"] = (
        out["model.predict_proba.calls"] / decisions if decisions else 0.0)

    def by_caller(i):
        span = spans[i]
        if span.name != "metrics.compute_report":
            return span.name
        inside_curve = nearest_ancestor(spans, i, "fairea.mutation_curve") is not None
        return "metrics.compute_report." + ("fairea" if inside_curve else "method")

    split_totals = totals_by_name(spans, key=by_caller)
    for caller in ("method", "fairea"):
        t = split_totals.get(f"metrics.compute_report.{caller}")
        out[f"metrics.compute_report.{caller}.calls"] = (t.calls if t else 0) / units
        out[f"metrics.compute_report.{caller}.self_pct"] = (t.self_s if t else 0.0) * pct
    return out
