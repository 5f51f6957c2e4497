"""Command-line interface: run experiments, regenerate reports, score predictions."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .data import read_table
from .errors import DataError, MetricUndefinedError, SchemaError, UsageError
from .metrics import LabeledPredictions, compute_report
from .runner import (
    ExperimentConfig,
    emit_report,
    read_records_csv,
    read_regions_csv,
    require_files,
    require_output_dir,
    run_experiment,
    write_manifest,
    write_tables,
)


def cmd_run(args) -> int:
    require_files(args.config)
    config = ExperimentConfig.from_json(
        args.config,
        base_seed=args.seed,
        repetitions=args.reps,
        output_dir=args.out,
        paper_arch=True if args.paper_arch else None,
    )
    require_output_dir(config.output_dir)
    result = run_experiment(config)
    paths = emit_report(result.records, result.fairea_cases, config.output_dir)
    paths["manifest"] = write_manifest(config, result.records, config.output_dir)
    failed = [r for r in result.records if r.error]
    for r in failed:
        print(f"FAILED {r.task}/{r.method}/rep{r.repetition}: {r.error}", file=sys.stderr)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 1 if failed else 0


def cmd_report(args) -> int:
    require_files(args.records, *filter(None, [args.regions]))
    require_output_dir(args.out)
    case_rows = read_regions_csv(args.regions) if args.regions else None
    rows = read_records_csv(args.records)
    os.makedirs(args.out, exist_ok=True)
    for path in write_tables(args.out, rows, case_rows).values():
        print(f"wrote {path}")
    return 0


def cmd_metrics(args) -> int:
    require_files(args.predictions)
    lines = read_table(args.predictions, required=("y_true", "y_pred"))
    header = next(lines)
    protected = [c for c in header if c not in ("y_true", "y_pred")]
    if not protected:
        raise UsageError(f"{args.predictions}: header needs at least one "
                         "protected-attribute column")
    y_true, y_pred, groups = [], [], {a: [] for a in protected}
    for where, cells in lines:
        row = dict(zip(header, cells))
        if row["y_true"] not in ("0", "1") or row["y_pred"] not in ("0", "1"):
            raise UsageError(f"{where}: y_true and y_pred must be 0 or 1, "
                             f"got {row['y_true']!r}, {row['y_pred']!r}")
        y_true.append(int(row["y_true"]))
        y_pred.append(int(row["y_pred"]))
        for a in protected:
            groups[a].append(row[a])
    data = LabeledPredictions.from_columns(y_true, y_pred, groups)
    try:
        flat = compute_report(data).to_flat_dict()
    except MetricUndefinedError as e:
        raise UsageError(f"{args.predictions}: {e}") from None
    if args.json:
        print(json.dumps(flat, indent=2))
    else:
        for key, value in flat.items():
            print(f"{key}={value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairhome",
        description="Inference-time bias mitigation and intersectional fairness evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment matrix from a JSON config")
    run_p.add_argument("--config", required=True, help="experiment config JSON")
    run_p.add_argument("--seed", type=int, default=None, help="override base seed")
    run_p.add_argument("--reps", type=int, default=None, help="override repetition count")
    run_p.add_argument("--out", default=None, help="override output directory")
    run_p.add_argument("--paper-arch", action="store_true",
                       help="use the full (64,32,16,8,4) hidden layout for the mlp")
    run_p.set_defaults(func=cmd_run)

    rep_p = sub.add_parser("report", help="regenerate tables from a stored metrics.csv")
    rep_p.add_argument("--records", required=True, help="metrics.csv from a previous run")
    rep_p.add_argument("--regions", default=None, help="fairea_regions.csv (optional)")
    rep_p.add_argument("--out", required=True, help="output directory")
    rep_p.set_defaults(func=cmd_report)

    met_p = sub.add_parser("metrics", help="score a predictions CSV "
                           "(columns: y_true, y_pred, one per protected attribute)")
    met_p.add_argument("--predictions", required=True)
    met_p.add_argument("--json", action="store_true", help="emit JSON instead of key=value")
    met_p.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, SchemaError, DataError) as e:  # bad input, reported like argparse's
        print(f"fairhome: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
