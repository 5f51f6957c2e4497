#!/usr/bin/env python3
"""fairhome benchmark.

Run from the repository root:

  python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]   # every workload
  python3 bench/run.py --write-spec   # rewrite BENCHMARK.json from bench/spec.py
  python3 bench/run.py --pin          # rewrite bench/pinned.json at the default seed

A single-workload run prints its metrics by name and unit, then, as its last
line, one JSON object with the keys correct, attempted, failed and metrics.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. Without ``--workload`` each workload runs in a fresh process.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not __package__:  # run as a script: make the checkout's packages importable
    sys.path[:0] = [str(SRC), str(ROOT)]

from bench import layers, spec, workloads  # noqa: E402
from bench.tracer import Tracer, covered_time, percentile, tail_percentile  # noqa: E402

WORK_DIR = ROOT / "bench" / "_work"
PINNED = ROOT / "bench" / "pinned.json"


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, wrong package)."""


def import_fairhome():
    if not (SRC / "fairhome" / "__init__.py").is_file():
        raise BenchError(f"no fairhome package under {SRC}; run from a repository checkout")
    import fairhome

    if Path(fairhome.__file__).resolve().parent != SRC / "fairhome":
        raise BenchError(f"imported fairhome from {fairhome.__file__}, not from {SRC}")
    return fairhome


def pinned_digest(workload: str, seed: int):
    if seed != workloads.DEFAULT_SEED or not PINNED.is_file():
        return None
    return json.loads(PINNED.read_text(encoding="utf-8")).get(workload)


def timed_loop(step, seconds: float) -> list:
    """Call ``step()`` at least once, and again while the next call should end in time."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def check_outputs(results, pinned: str | None) -> list:
    """Per unit: its digest equals the first unit's (and the pinned one, if any)."""
    reference = results[0].digest
    return [r.digest is not None and r.digest == reference
            and (pinned is None or r.digest == pinned) for r in results]


def measure(wl, seconds: float, import_s: float) -> tuple:
    setup_times = []
    for _ in range(wl.setup_repeats):
        start = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - start)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = timed_loop(wl.run_unit, seconds)
    latencies = sorted(x for r in results for x in r.latencies)
    busy = sum(r.busy_s for r in results)
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "throughput_per_s": len(latencies) / busy,
        "peak_rss_mb": peak_rss_mb(),
    }
    return results, latencies, metrics


def measure_traced(wl, seconds: float) -> tuple:
    """Alternate untraced and traced (setup + unit) pairs; per-layer values per unit.

    Each traced pair member runs with every site installed and every warning
    recorded; the untraced member gives the wall time the overhead is taken from.
    A first untimed unit keeps one-off warm-up costs out of that difference.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wl.setup()
        wl.run_unit()
    tracer = Tracer()
    caught: list = []
    absent: set = set()
    walls = {False: 0.0, True: 0.0}
    pairs: list = []
    last_unit_first_span = 0

    def one(traced: bool):
        nonlocal last_unit_first_span
        with contextlib.ExitStack() as stack:
            seen = stack.enter_context(warnings.catch_warnings(record=True))
            warnings.simplefilter("always" if traced else "ignore")
            if traced:
                last_unit_first_span = len(tracer.spans)
                installed = stack.enter_context(tracer.install(layers.SITES))
                absent.update(f"{s.name} <- {s.module}.{s.attr}" for s in installed.absent)
            start = time.perf_counter()
            wl.setup()
            setup_s = time.perf_counter() - start
            result = wl.run_unit()
        if traced:
            caught.extend(seen)
        walls[traced] += setup_s + result.busy_s
        return result

    def pair():
        order = (False, True) if len(pairs) % 2 == 0 else (True, False)
        pairs.append({traced: one(traced) for traced in order})

    timed_loop(pair, seconds)
    units = len(pairs)
    results = [p[False] for p in pairs] + [p[True] for p in pairs]

    wall = walls[True]
    metrics = layers.layer_metrics(tracer.spans, wall, units)
    metrics.update({k: v / units for k, v in layers.count_warnings(caught).items()})
    metrics["trace.wall_s"] = wall / units
    metrics["trace.outside_pct"] = 100.0 * (wall - covered_time(tracer.spans)) / wall
    metrics["trace.overhead_s"] = (walls[True] - walls[False]) / units
    metrics["trace.spans"] = len(tracer.spans) / units
    for line in sorted(absent):
        print(f"absent site (0 calls): {line}")
    return results, metrics, (tracer.spans, last_unit_first_span)


def write_spans(spans, first: int, workload: str) -> None:
    """Keep the spans from index ``first`` on (the last traced unit) for inspection."""
    path = WORK_DIR / f"spans-{workload}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(first, len(spans)):
            fh.write(json.dumps(spans[i].to_dict(i, first)) + "\n")
    print(f"spans: {path.relative_to(ROOT)}")


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_lines,
    }


def print_metric(workload: str, name: str, value: float, unit: str) -> None:
    print(f"{workload}  {name} = {value:.6g} {unit}")


def run_workload(args) -> dict:
    fh = import_fairhome()
    import_s = time.perf_counter() - PROCESS_START
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        wl = workloads.make(args.workload, fh, args.seed, workdir)
        pinned = pinned_digest(args.workload, args.seed)
        if args.trace:
            results, metrics, (spans, first) = measure_traced(wl, args.seconds)
            write_spans(spans, first, args.workload)
            units = layers.metric_units()
        else:
            results, latencies, metrics = measure(wl, args.seconds, import_s)
            units = {m["name"]: m["unit"] for m in spec.END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = check_outputs(results, pinned)
    attempted = sum(r.attempted for r in results) + len(results)
    failed = sum(r.failed for r in results) + ok.count(False)
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"{args.workload}  digest = {results[0].digest} "
          f"({'pinned' if pinned else 'not pinned'} at this seed)")
    for name, unit in units.items():
        print_metric(args.workload, name, metrics[name], unit)
    if not args.trace:
        print_views(args.workload, latencies, metrics)
    print_metric(args.workload, "failed_ratio", failed / attempted, f"of {attempted}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def print_views(workload: str, latencies: list, metrics: dict) -> None:
    """Latency (not gated) and throughput under the names a researcher or deployer uses."""
    n = len(latencies)
    p50 = statistics.median(latencies)
    if workload.startswith("matrix-"):
        print_metric(workload, "matrix_s", p50, f"s (median of {n})")
        return
    print_metric(workload, "predict_p50_us", p50 * 1e6, f"us ({n} calls)")
    tail = tail_percentile(n)
    if tail is not None and tail > 50:
        print_metric(workload, f"predict_p{tail:g}_us", percentile(latencies, tail) * 1e6,
                     f"us ({n} calls)")
    print_metric(workload, "predictions_per_s", metrics["throughput_per_s"], "1/s")


def run_all(args) -> int:
    """Each workload in a fresh process; exit 1 if any run is incorrect or fails."""
    status = 0
    for name in spec.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            status = 1
            continue
        if proc.returncode != 0 or not result["correct"]:
            status = 1
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
    return status


def pin() -> int:
    """Record each workload's output digest at the default seed."""
    fh = import_fairhome()
    digests = {}
    for name in spec.WORKLOADS:
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"pin-{name}-", dir=WORK_DIR)
        try:
            wl = workloads.make(name, fh, workloads.DEFAULT_SEED, workdir)
            wl.setup()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = wl.run_unit()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if result.failed or result.digest is None:
            print(f"{name}: {result.failed} failed operations; not pinning", file=sys.stderr)
            return 1
        digests[name] = result.digest
    PINNED.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {PINNED.relative_to(ROOT)}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--pin", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # one caller thread, one BLAS thread: nothing competes with the caller for
    # the cores, and the figures do not depend on how many a run happens to get;
    # set before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    if args.write_spec:
        path = ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
        return 0
    try:
        if args.pin:
            return pin()
        if args.workload is None:
            return run_all(args)
        result = run_workload(args)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
