"""Command-line surface: train, eval, bench, ablate, synth, dump-embeddings.

Exit codes: 0 ok, 2 config error, 3 data/checkpoint error, 4 numerical
divergence. Every command validates its inputs before any model state is
allocated.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from . import config as C
from .checkpoint import load_into, save_checkpoint
from .data import apply_zscore, fit_normalizer, load_series, make_windows, save_series
from .errors import CheckpointError, ConfigError, DataError, DivergenceError
from .fileio import atomic_open
from .metrics import MAPE_FLOOR, MetricAccumulator
from .synth import generate_series
from .tokenize import export_embeddings
from .train import (
    BENCH_COLUMNS,
    TRAIN_LOG_COLUMNS,
    Forecaster,
    bench,
    evaluate,
    format_rows,
    sample_geometry,
    train,
)
from .visibility import STRATEGIES

CHECKPOINT_NAME = "checkpoint.bin"
LOG_NAME = "train_log.csv"
SNAPSHOT_NAME = "config.resolved"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="foldcast",
        description="Long-horizon traffic forecasting with temporal-folding tokens",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument(
            "--set",
            dest="sets",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )
        return p

    common(sub.add_parser("train", help="train a forecaster"))

    p = common(sub.add_parser("eval", help="evaluate a checkpoint"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", help="override the config dataset path")
    p.add_argument("--split", choices=["train", "val", "test"], default="test")

    p = common(sub.add_parser("bench", help="resource report over a config grid"))
    p.add_argument("--mask-ratios", default="0,0.2,0.5,0.8")
    p.add_argument("--subgraph-sizes", default=None, help="defaults to the config value")
    p.add_argument("--epochs", type=int, default=3)

    p = common(sub.add_parser("ablate", help="train one model per axis value"))
    p.add_argument(
        "--axis",
        required=True,
        choices=["mask_ratio", "subgraph_size", "mask_strategy", "folding"],
    )
    p.add_argument("--values", help="comma-separated axis values (defaults per axis)")

    p = common(sub.add_parser("synth", help="generate a synthetic dataset"))
    p.add_argument("--nodes", type=int, default=20)
    p.add_argument("--days", type=int, default=14)
    p.add_argument("--freq", type=int, default=48)
    p.add_argument("--noise", type=float, default=2.0)
    p.add_argument("--path", help="output file (default <out>/synthetic.txt)")
    p.add_argument("--format", choices=["text", "binary"], default="text")

    p = common(sub.add_parser("dump-embeddings", help="export embedding tables as CSV"))
    p.add_argument("--checkpoint", required=True)

    return parser


def _overrides(args):
    over = {}
    for item in args.sets:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        over[key.strip()] = val.strip()
    if args.seed is not None:
        over["seed"] = str(args.seed)
    if getattr(args, "dataset", None):  # eval's --dataset
        over["dataset"] = args.dataset
    return over


def _resolve(args, require_dataset=True, snapshot_dir=None):
    file_values = None
    if args.config:
        file_values = C.parse_config_file(args.config)
    elif snapshot_dir is not None:
        snap = os.path.join(snapshot_dir, SNAPSHOT_NAME)
        if os.path.exists(snap):
            file_values = C.parse_config_file(snap)
    run = C.resolve(file_values, _overrides(args))
    if require_dataset:
        if not run.dataset:
            raise ConfigError("no dataset path configured (set the 'dataset' key)")
        if not os.path.exists(run.dataset):
            raise ConfigError(f"dataset path not found: {run.dataset}")
    return run


def _write(path, text):
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write(text)


def _write_rows(out_dir, name, columns, rows):
    """Write ``rows`` as CSV text to ``out_dir/name`` and echo them."""
    text = format_rows(columns, rows)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    _write(path, text)
    print(text, end="")
    print(f"wrote {path}")


def _fmt(v):
    return repr(v) if isinstance(v, float) else str(v)


def cmd_train(args):
    run = _resolve(args)
    series = load_series(run.dataset)
    os.makedirs(args.out, exist_ok=True)
    result = train(run.train, series)
    # the snapshot is written only once there is a run for it to describe
    _write(os.path.join(args.out, SNAPSHOT_NAME), C.snapshot(run))
    _write(os.path.join(args.out, LOG_NAME), format_rows(TRAIN_LOG_COLUMNS, result.log_rows))
    save_checkpoint(result.forecaster.params, os.path.join(args.out, CHECKPOINT_NAME))
    test_w = result.windows[2] or result.windows[1] or result.windows[0]
    test = evaluate(result.forecaster, test_w, result.stats)
    print(
        f"trained {result.epochs_run} epochs (best epoch {result.best_epoch}, "
        f"val MAE {result.best_val_mae:.6g})"
    )
    print(f"test rmse={test.rmse:.6g} mae={test.mae:.6g} mape={test.mape:.6g}%")
    print(f"wrote {os.path.join(args.out, CHECKPOINT_NAME)}")
    return 0


def _load_checkpoint(args):
    """(run, series, forecaster) for ``args.checkpoint``: the run config
    from ``--config`` or the snapshot beside the checkpoint, its dataset,
    and the trained model."""
    if not os.path.exists(args.checkpoint):
        raise CheckpointError(f"checkpoint not found: {args.checkpoint}")
    run = _resolve(args, snapshot_dir=os.path.dirname(args.checkpoint))
    series = load_series(run.dataset)
    forecaster = Forecaster.build(
        run.train, series.node_count, series.frequency, np.random.default_rng(0)
    )
    load_into(forecaster.params, args.checkpoint)
    return run, series, forecaster


def cmd_eval(args):
    run, series, forecaster = _load_checkpoint(args)
    stats = fit_normalizer(series, run.train.split[0])
    windows = make_windows(
        apply_zscore(series, stats), run.train.t_in, run.train.horizon, run.train.split
    )
    chosen = windows[{"train": 0, "val": 1, "test": 2}[args.split]]
    if not chosen:
        raise DataError(f"no windows in split {args.split!r}")
    per_horizon = [MetricAccumulator() for _ in range(run.train.horizon)]
    overall = evaluate(forecaster, chosen, stats, per_horizon=per_horizon)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"eval_{args.split}.csv")
    with atomic_open(out_path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["horizon_step", "rmse", "mae", "mape"])
        writer.writerow(["all"] + [_fmt(v) for v in overall.row()])
        for j, acc in enumerate(per_horizon, start=1):
            writer.writerow([j] + [_fmt(v) for v in acc.result().row()])
    print(f"metrics in original units; mape skips |truth| < {MAPE_FLOOR}")
    print(
        f"{args.split} rmse={_fmt(overall.rmse)} mae={_fmt(overall.mae)} "
        f"mape={_fmt(overall.mape)}"
    )
    print(f"wrote {out_path}")
    return 0


def _variants(cfg, key, raw_values):
    """(raw, config) for each comma-separated value of config key ``key``:
    ``cfg`` with that value, parsed as the config file parses it and
    validated; a bad value raises ConfigError."""
    variants = []
    for raw in raw_values.split(","):
        raw = raw.strip()
        try:
            variant = replace(cfg, **{key: C.SCHEMA[key][0](raw)})
            variant.validate()
        except ValueError as exc:
            raise ConfigError(f"bad {key} value {raw!r}: {exc}") from exc
        variants.append((raw, variant))
    return variants


def cmd_bench(args):
    run = _resolve(args)
    if args.epochs < 1:
        raise ConfigError(f"--epochs must be >= 1, got {args.epochs}")
    sizes = args.subgraph_sizes or str(run.train.subgraph_size)
    grid = [
        (cfg.mask_ratio, cfg.subgraph_size)
        for _, sized in _variants(run.train, "subgraph_size", sizes)
        for _, cfg in _variants(sized, "mask_ratio", args.mask_ratios)
    ]
    series = load_series(run.dataset)
    rows = bench(run.train, series, grid, epochs=args.epochs)
    _write_rows(args.out, "bench.csv", BENCH_COLUMNS, rows)
    return 0


_ABLATE_DEFAULTS = {
    "mask_ratio": "0,0.2,0.5,0.8,0.9",
    "subgraph_size": "5,10,20,50",
    "mask_strategy": ",".join(STRATEGIES),
    "folding": "TFG,SF",
}
ABLATE_COLUMNS = "axis,value,test_rmse,test_mae,test_mape,tokens,epoch_seconds,wall_seconds"


def cmd_ablate(args):
    run = _resolve(args)
    if run.train.max_epochs < 1:
        # each row reports the analytic epoch time of a trained epoch
        raise ConfigError(f"ablate needs max_epochs >= 1, got {run.train.max_epochs}")
    variants = _variants(run.train, args.axis, args.values or _ABLATE_DEFAULTS[args.axis])
    series = load_series(run.dataset)
    rows = []
    for raw, cfg in variants:
        result = train(cfg, series)
        test_w = result.windows[2] or result.windows[1] or result.windows[0]
        test = evaluate(result.forecaster, test_w, result.stats)
        tokens, _ = sample_geometry(result.forecaster.dims, cfg)
        rows.append(
            [
                args.axis,
                raw,
                test.rmse,
                test.mae,
                test.mape,
                tokens,
                result.log_rows[-1][6],  # analytic epoch_seconds
                float(np.mean(result.wall_seconds)),
            ]
        )
    _write_rows(args.out, f"ablate_{args.axis}.csv", ABLATE_COLUMNS, rows)
    return 0


def cmd_synth(args):
    run = _resolve(args, require_dataset=False)
    try:
        series = generate_series(
            args.nodes, args.days, args.freq, args.noise, run.train.seed
        )
    except ValueError as exc:  # a DataError too: every input here is a flag
        raise ConfigError(f"synth: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    path = args.path or os.path.join(
        args.out, "synthetic.txt" if args.format == "text" else "synthetic.bin"
    )
    save_series(series, path, format=args.format)
    print(f"wrote {path} ({series.step_count} steps x {series.node_count} nodes)")
    return 0


def cmd_dump_embeddings(args):
    _, _, forecaster = _load_checkpoint(args)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "embeddings.csv")
    export_embeddings(forecaster.params.tables(), out_path)
    print(f"wrote {out_path}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "ablate": cmd_ablate,
    "synth": cmd_synth,
    "dump-embeddings": cmd_dump_embeddings,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, CheckpointError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
