"""Command line front end.

Subcommands: ``train``, ``eval``, ``count-ops``, ``export-masks``.  Exit
codes: 0 success, 1 runtime failure (unreadable data, malformed files), 2
usage or configuration errors.
"""

from __future__ import annotations

import argparse
import copy
import sys
from pathlib import Path

from maskconv.accounting import (
    NetSpecError,
    compare_table,
    load_netspec,
    network_records,
    network_table,
)
from maskconv.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from maskconv.config import ConfigError, RunConfig, load_config
from maskconv.convref import ShapeError
from maskconv.idx import IdxFormatError, load_dataset_dir
from maskconv.masks import write_mask_records
from maskconv.network import build_small_cnn
from maskconv.training import DataError, TrainConfig, TrainingDiverged, evaluate, fit

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def _prepared(config: RunConfig):
    """The model and the schedule ``config`` builds; ConfigError if it builds none."""
    get = config.get
    config.require("data.path")
    try:
        model = build_small_cnn(
            variant=get("model.variant"),
            strategy=get("model.strategy"),
            s=get("model.s"),
            c_hat=get("model.chat"),
            g=get("model.g"),
            conv1_maps=get("model.conv1_maps"),
            conv2_maps=get("model.conv2_maps"),
            hidden=get("model.hidden"),
            lam=get("train.lambda"),
            seed=get("train.seed"),
        )
        tc = TrainConfig(
            lr=get("train.lr"), lam=get("train.lambda"), epochs=get("train.epochs"),
            batch=get("train.batch"), seed=get("train.seed"),
        )
        return model, tc
    except ValueError as exc:  # ShapeError included: values no model or schedule takes
        raise ConfigError(str(exc)) from None


def _run_one_training(config: RunConfig, model, tc: TrainConfig, out):
    data_root = Path(config.get("data.path"))
    images, labels = load_dataset_dir(data_root, "train")

    log_path = config.get("out.log")
    if log_path:
        # line-buffered, so that a run that fails keeps the records of its steps
        with open(log_path, "w", buffering=1) as log:
            fit(model, images, labels, tc, log=lambda line: log.write(line + "\n"))
    else:
        fit(model, images, labels, tc, log=out)

    save_checkpoint(model, config.get("out.checkpoint"))
    out(f"checkpoint written to {config.get('out.checkpoint')}")
    accuracy = None
    if (data_root / "test-images.idx").exists():
        test_images, test_labels = load_dataset_dir(data_root, "test")
        accuracy = evaluate(model, test_images, test_labels)
        out(f"test accuracy={accuracy:.4f}")
    return accuracy


def cmd_train(args, out) -> int:
    config = load_config(args.config, args.set)
    for line in config.resolved_lines():
        out(f"config {line}")
    if not args.sweep:
        _run_one_training(config, *_prepared(config), out)
        return 0
    if "=" not in args.sweep:
        raise ConfigError(f"--sweep needs key=v1,v2,... got {args.sweep!r}")
    key, values = (part.strip() for part in args.sweep.split("=", 1))
    runs = []  # every value builds its model and schedule before the first run reads data
    for value in (v.strip() for v in values.split(",")):
        run = copy.deepcopy(config)
        run.set(key, value)
        for path_key in ("out.checkpoint", "out.log"):  # each run writes its own files
            if config.get(path_key):
                run.set(path_key, f"{config.get(path_key)}.{key}_{value}")
        runs.append((value, run, *_prepared(run)))
    for value, run, model, tc in runs:
        accuracy = _run_one_training(run, model, tc, out)
        out(f"sweep {key}={value} accuracy={accuracy if accuracy is not None else float('nan'):.4f}")
    return 0


def cmd_eval(args, out) -> int:
    model = load_checkpoint(args.checkpoint)
    images, labels = load_dataset_dir(args.data, args.split)
    accuracy = evaluate(model, images, labels)
    out(f"eval split={args.split} examples={len(labels)} accuracy={accuracy:.4f}")
    return 0


def cmd_count_ops(args, out) -> int:
    net = load_netspec(args.netspec)
    if args.compare:
        other = load_netspec(args.compare)
        out(compare_table(net, other))
        return 0
    out(network_table(net))
    for record in network_records(net):
        out(record)
    return 0


def cmd_export_masks(args, out) -> int:
    model = load_checkpoint(args.checkpoint)
    convs = [l for l in model.conv_layers() if l.spec.variant != "standard"]
    if args.layer is not None:
        if not convs:
            raise ConfigError(f"--layer {args.layer}: the model has no masked conv layer")
        if not 0 <= args.layer < len(convs):
            raise ConfigError(f"--layer {args.layer} out of range (0..{len(convs) - 1})")
        convs = [convs[args.layer]]
    for spec in (c.spec for c in convs if c.masks is None):
        if spec.s > 256 * spec.k:  # built one byte per bit: at most 64 per float32 filter byte
            raise CheckpointError(f"{spec.name}: {spec.s} masks of {spec.k} filters over the bound")
    mask_sets = [c.spec.structural_masks() if c.masks is None else c.masks for c in convs]
    with open(args.out, "wb") as f:
        for masks in mask_sets:
            write_mask_records(masks, f)
    total = sum(m.n_masks for m in mask_sets)
    out(f"wrote {total} mask records from {len(convs)} layers to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskconv", description="masked convolution filter banks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train the small CNN on an IDX dataset")
    p_train.add_argument("--config", type=Path, default=None, help="key=value config file")
    p_train.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p_train.add_argument("--sweep", default=None, metavar="KEY=V1,V2,...")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on an IDX dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", default="test")
    p_eval.set_defaults(fn=cmd_eval)

    p_count = sub.add_parser("count-ops", help="closed-form network accounting")
    p_count.add_argument("netspec")
    p_count.add_argument("--compare", default=None)
    p_count.set_defaults(fn=cmd_count_ops)

    p_export = sub.add_parser("export-masks", help="dump bit-packed mask records")
    p_export.add_argument("--checkpoint", required=True)
    p_export.add_argument("--out", required=True)
    p_export.add_argument(
        "--layer", type=int, default=None, help="index among the masked (non-standard) conv layers"
    )
    p_export.set_defaults(fn=cmd_export_masks)
    return parser


def main(argv: list[str] | None = None, out=print) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.fn(args, out)
    except ConfigError as exc:
        out(f"config error: {exc}")
        return USAGE_ERROR
    except (
        IdxFormatError,
        CheckpointError,
        NetSpecError,
        TrainingDiverged,
        DataError,
        ShapeError,
        OSError,
    ) as exc:
        out(f"error: {exc}")
        return RUNTIME_ERROR


def entry() -> None:
    sys.exit(main())
