"""What the benchmark measures; ``BENCHMARK.json`` is written from this module.

Every workload reports every end-to-end metric, so each is defined for both
kinds of operation: one full matrix (matrix workloads) or one
``fairhome_predict`` call (online-predict). A failed operation shows in the
result's ``attempted``/``failed`` counts rather than as a metric, because a
metric here must never read 0.
"""

from __future__ import annotations

from .layers import metric_units

RUN_SECONDS = 30

WORKLOADS = {
    "matrix-german-logistic": (
        "fairhome run, 8 methods x 2 reps, logistic, german-like data (2 protected, 1000 rows): "
        "the Fairea curve's compute_report calls dominate"
    ),
    "matrix-compas-mlp": (
        "fairhome run, 8 methods x 2 reps, mlp (16, 8), compas-like data (3 protected, 1200 rows): "
        "training and 8-member per-instance ensembles dominate"
    ),
    "online-predict": (
        "closed loop, one caller: single fairhome_predict calls over held-out compas-like rows, "
        "6 variants; no training, metrics or Fairea timed"
    ),
}

# Work per second over the whole timed part is the gated timing: on the shared
# 2-vCPU VM the bounds were set on, the same unit's time drifts by up to a
# quarter over minutes, and across ten seeds throughput spread by 7-16% while
# the per-call median spread by up to 22%. The median and tail are printed,
# not gated. The timing bounds are the widest allowed.
END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
)

HIGHER_IS_BETTER = {"model.minibatch_grad_share"}


def per_layer() -> list:
    return [
        {"name": name, "unit": unit,
         "better": "higher" if name in HIGHER_IS_BETTER else "lower"}
        for name, unit in metric_units().items()
    ]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [dict(m) for m in END_TO_END],
        "per_layer": per_layer(),
    }
