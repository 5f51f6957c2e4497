"""Span, self-time, site-patching and percentile arithmetic, against a fake clock."""

import math
import sys
import types

import pytest

from bench import layers
from bench.tracer import (
    Site,
    Span,
    Tracer,
    covered_time,
    percentile,
    self_times,
    tail_percentile,
    totals_by_name,
)


class FakeClock:
    """Each reading advances time by the next step."""

    def __init__(self, steps):
        self.now = 0.0
        self.steps = iter(steps)

    def __call__(self):
        self.now += next(self.steps)
        return self.now


def test_nested_spans_self_time_is_duration_minus_children():
    # readings: outer start 1, inner#1 2..5, inner#2 6..8, outer end 10
    tracer = Tracer(FakeClock([1, 1, 3, 1, 2, 2]))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()
        return "done"

    outer = tracer.wrap("outer", body)
    assert outer() == "done"

    outer_span, first, second = tracer.spans
    assert (outer_span.start, outer_span.end) == (1, 10)
    assert (first.parent, second.parent, outer_span.parent) == (0, 0, None)
    assert (first.duration, second.duration) == (3, 2)
    assert self_times(tracer.spans) == [9 - 3 - 2, 3, 2]
    totals = totals_by_name(tracer.spans)
    assert totals["inner"].calls == 2 and totals["inner"].self_s == 5
    assert totals["outer"].self_s == 4
    assert covered_time(tracer.spans) == 9


def test_exceptions_and_results_pass_through_unchanged():
    tracer = Tracer(FakeClock([1] * 10))
    err = KeyError("boom")

    def fail():
        raise err

    wrapped = tracer.wrap("fail", fail)
    with pytest.raises(KeyError) as info:
        wrapped()
    assert info.value is err
    assert tracer.spans[0].error
    sentinel = object()
    assert tracer.wrap("ok", lambda x: x)(sentinel) is sentinel
    # the failing span was closed, so the next span is top level
    assert tracer.spans[1].parent is None and not tracer.spans[1].error
    assert totals_by_name(tracer.spans)["fail"].errors == 1


def test_a_failing_tag_never_reaches_the_caller():
    tracer = Tracer(FakeClock([1] * 4))
    wrapped = tracer.wrap("f", lambda: 7, tag=lambda args, kwargs, result: result["rows"])
    assert wrapped() == 7
    assert tracer.spans[0].tag is None


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("bench_fake_target")

    class Model:
        def predict(self, x):
            return x + 1

    class Child(Model):
        pass

    mod.Model = Model
    mod.Child = Child
    mod.double = lambda x: 2 * x
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_install_patches_functions_and_methods_and_restores(fake_module):
    original_double = fake_module.double
    original_predict = fake_module.Model.predict
    tracer = Tracer(FakeClock([1] * 20))
    sites = (
        Site("t.double", fake_module.__name__, "double"),
        Site("t.predict", fake_module.__name__, "Model.predict"),
        # inherited: patched through the defining class, never on the subclass
        Site("t.predict", fake_module.__name__, "Child.predict"),
        Site("t.gone", fake_module.__name__, "removed_function"),
        Site("t.gone", "bench_no_such_module", "anything"),
    )
    with tracer.install(sites) as installed:
        assert fake_module.double(3) == 6
        assert fake_module.Child().predict(1) == 2
    assert [s.attr for s in installed.absent] == ["Child.predict", "removed_function", "anything"]
    assert fake_module.double is original_double
    assert fake_module.Model.predict is original_predict
    assert "predict" not in vars(fake_module.Child)
    totals = totals_by_name(tracer.spans)
    assert (totals["t.double"].calls, totals["t.predict"].calls) == (1, 1)


def test_absent_functions_report_zero_calls():
    spans = [Span("model.fit", None, 0.0)]
    spans[0].end = 2.0
    spans[0].tag = {"rows": 10, "rew": False}
    metrics = layers.layer_metrics(spans, wall_s=4.0, units=1)
    assert set(metrics) <= set(layers.metric_units())
    assert metrics["ensemble.fairhome_predict.calls"] == 0
    assert metrics["ensemble.fairhome_predict.self_pct"] == 0.0
    assert metrics["ensemble.members_per_decision"] == 0.0
    assert metrics["model.fit.self_pct"] == 50.0


def _span(name, parent, start, end, tag=None):
    span = Span(name, parent, start)
    span.end = end
    span.tag = tag
    return span


def test_layer_metrics_split_callers_and_batches():
    spans = [
        _span("model.fit", None, 0.0, 4.0, {"rows": 100, "rew": True}),
        _span("model.mlp_loss_grad", 0, 0.5, 1.0, 32),  # mini-batch
        _span("model.mlp_loss_grad", 0, 1.0, 1.5, 4),  # last, short mini-batch
        _span("model.mlp_loss_grad", 0, 2.0, 3.0, 100),  # per-epoch loss_history
        _span("fairea.mutation_curve", None, 5.0, 7.0),
        _span("metrics.compute_report", 4, 5.5, 6.5),
        _span("metrics.compute_report", None, 7.0, 8.0),
    ]
    m = layers.layer_metrics(spans, wall_s=10.0, units=1)
    assert m["model.fit.rew_calls"] == 1
    assert m["model.mlp_loss_grad.fullbatch_calls"] == 1
    assert m["model.minibatch_grad_share"] == pytest.approx(2 / 3)
    assert m["metrics.compute_report.fairea.calls"] == 1
    assert m["metrics.compute_report.method.calls"] == 1
    assert m["metrics.compute_report.fairea.self_pct"] == pytest.approx(10.0)
    self_total = sum(v for k, v in m.items() if k.endswith(".self_pct") and k.count(".") == 2)
    outside = 100.0 * (10.0 - covered_time(spans)) / 10.0
    assert self_total + outside == pytest.approx(100.0)


def test_warnings_are_counted_by_source():
    msgs = [
        "fairhome5 with 2 protected attributes yields 2-member ensembles; using averaging",
        "method performance lies beyond the baseline curve; compared against the nearest endpoint",
        "method performance lies beyond the baseline curve; compared against the nearest endpoint",
        "protected attribute 'sex' has a single observed value; no mutation is possible along it",
        "something else",
    ]
    counts = layers.count_warnings([types.SimpleNamespace(message=m) for m in msgs])
    assert counts == {"warnings.fairhome5_fallback": 1, "warnings.fairea_clamped": 2,
                      "warnings.single_value_protected": 1, "warnings.other": 1}


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([5.0], 99) == 5.0
    assert percentile([1, 2, 3, 4], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(values, 0)


def test_tail_percentile_keeps_ten_samples_above():
    assert tail_percentile(100_000) == 99.9
    assert tail_percentile(1_000) == 99.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(25) == 50.0
    assert tail_percentile(9) is None
    for n in (20, 100, 1_000, 10_000):
        q = tail_percentile(n)
        assert n - math.ceil(q / 100 * n) >= 10
