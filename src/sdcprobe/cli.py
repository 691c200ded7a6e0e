"""Command-line entry point: train, attribute, campaign, fat, report.

Config values resolve as flags > config file > defaults, every run writes
enough sidecar metadata to be rerun exactly, and all file outputs land
atomically (temp + rename).  Errors exit with a one-line reason: code 2
for config/usage problems, 3 for data-format problems, 4 for runtime
failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import attribution as attr_mod
from . import campaign as campaign_mod
from . import fat as fat_mod
from .data import load_idx, synth_blobs, train_test_split
from .errors import (ConfigError, DataFormatError, DataIntegrityError, SdcProbeError,
                     UsageError)
from .fault_model import save_fault_csv
from .nnet import build_cnn, build_mlp, load_checkpoint, model_checksum, save_checkpoint, train
from .nnet.training import EVAL_BATCH

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema_version", "model", "dataset", "train", "attribute", "campaign", "fat"}
_MODEL_KEYS = {"kind", "input_shape", "hidden", "classes", "seed", "conv_channels", "kernel"}
_DATASET_KEYS = {"kind", "classes", "samples_per_class", "dims", "spread", "seed",
                 "center_scale", "image_shape", "test_fraction",
                 "train_images", "train_labels", "test_images", "test_labels"}
_TRAIN_KEYS = {"epochs", "batch_size", "lr", "optimizer", "seed"}


def _check_keys(section, allowed, context):
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown {context} config keys: {', '.join(unknown)}")


def _section(cfg, name, keys):
    """The `name` section of a config, refused unless it is a JSON object
    with only known keys; an absent section reads as {}."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object, "
                          f"got {type(section).__name__}")
    _check_keys(section, keys, name)
    return section


def _value(section, key, default, convert, flag=None):
    """flag > config file > default.  A value from the file passes through
    convert, and one that convert refuses is a ConfigError naming its key."""
    if flag is not None:
        return flag
    value = section.get(key)
    if value is None:
        return default
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r} has bad value {value!r}: {exc}") from None


def _json(*types):
    """Converter that refuses a JSON value of any other type instead of
    coercing it: true and false are not integers, 2.7 is not one either.
    A value accepted as a float is returned as one."""
    def check(value):
        if isinstance(value, bool) != (bool in types) or not isinstance(value, types):
            names = " or ".join(t.__name__ for t in types)
            raise TypeError(f"expected {names}, got {type(value).__name__}")
        return float(value) if float in types else value
    return check


_int, _float, _bool, _str = _json(int), _json(int, float), _json(bool), _json(str)


def _items(convert):
    """Converter of a JSON list to a tuple of converted items."""
    def parse(value):
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        return tuple(map(convert, value))
    return parse


# each config key's converter, chosen by its dataclass field's declared type
_TYPE_CONVERTERS = {"int": _int, "int | None": _int, "float": _float, "bool": _bool,
                    "str": _str, "object": _str, "ExperimentCode": _str,
                    "tuple[int, ...]": _items(_int), "tuple[float, ...]": _items(_float)}
_CONVERTERS = {cls: {f.name: _TYPE_CONVERTERS[f.type] for f in dataclasses.fields(cls)}
               for cls in (attr_mod.AttributionConfig, campaign_mod.CampaignConfig,
                           fat_mod.FatConfig)}


def _config(cls, cfg, name, flags, **defaults):
    """The `name` section of cfg as a cls: each field takes its flag, else
    its value in the file, else defaults[field], else the dataclass default."""
    converters = _CONVERTERS[cls]
    section = _section(cfg, name, set(converters))
    values = {k: _value(section, k, defaults.get(k), convert, flags.get(k))
              for k, convert in converters.items()}
    return cls(**{k: v for k, v in values.items() if v is not None})


def _cnn_width(hidden):
    """The cnn head takes one hidden width: a number or a list of one."""
    if isinstance(hidden, list):
        if len(hidden) != 1:
            raise ConfigError(f"cnn hidden must be a single width, got {hidden}")
        hidden = hidden[0]
    return _int(hidden)


def load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on non-UTF-8 bytes
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    _check_keys(cfg, _TOP_KEYS, "top-level")
    if cfg.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"config schema_version {cfg['schema_version']} unsupported "
                          f"(expected {SCHEMA_VERSION})")
    return cfg


def build_model_from_config(mcfg):
    kind = mcfg.get("kind", "mlp")
    input_shape = _value(mcfg, "input_shape", (1, 1, 6), _items(_int))
    classes = _value(mcfg, "classes", 3, _int)
    seed = _value(mcfg, "seed", 0, _int)
    if kind == "mlp":
        return build_mlp(input_shape, list(_value(mcfg, "hidden", [16], _items(_int))),
                         classes, seed=seed)
    if kind == "cnn":
        return build_cnn(input_shape, list(_value(mcfg, "conv_channels", [4, 8], _items(_int))),
                         _value(mcfg, "kernel", 3, _int), _value(mcfg, "hidden", 32, _cnn_width),
                         classes, seed=seed)
    raise ConfigError(f"unknown model kind {kind!r}; expected 'mlp' or 'cnn'")


def build_datasets_from_config(dcfg):
    """(train_set, test_set) from the dataset section; either may be None
    for idx configs that name only one split."""
    kind = dcfg.get("kind", "blobs")
    if kind == "blobs":
        data = synth_blobs(classes=_value(dcfg, "classes", 3, _int),
                           samples_per_class=_value(dcfg, "samples_per_class", 100, _int),
                           dims=_value(dcfg, "dims", 6, _int),
                           spread=_value(dcfg, "spread", 0.25, _float),
                           seed=_value(dcfg, "seed", 0, _int),
                           image_shape=_value(dcfg, "image_shape", None, _items(_int)),
                           center_scale=_value(dcfg, "center_scale", 1.0, _float))
        return train_test_split(data,
                                test_fraction=_value(dcfg, "test_fraction", 0.1, _float))
    if kind == "idx":
        pairs = {}   # every path is checked before any file is opened
        for split in ("train", "test"):
            keys = (f"{split}_images", f"{split}_labels")
            paths = [_value(dcfg, key, None, _str) for key in keys]
            if paths.count(None) == 1:
                given, missing = keys if paths[1] is None else keys[::-1]
                raise ConfigError(f"idx dataset config names {given!r} without {missing!r}")
            if None not in paths:
                pairs[split] = paths
        if not pairs:
            raise ConfigError("idx dataset config names no files")
        loaded = {split: load_idx(*paths, split=split) for split, paths in pairs.items()}
        return loaded.get("train"), loaded.get("test")
    raise ConfigError(f"unknown dataset kind {kind!r}; expected 'blobs' or 'idx'")


def _need(dataset, which):
    if dataset is None:
        raise ConfigError(f"this command needs a {which} split in the dataset config")
    return dataset


def _write_meta(out_path, command, payload):
    meta = {"artifact_version": campaign_mod.ARTIFACT_VERSION,
            "command": command, **payload}
    campaign_mod.write_meta_sidecar(out_path, meta)


def _parse_thresholds(text):
    """The comma-separated --thresholds flag as floats; None if not given."""
    if text is None:
        return None
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --thresholds value {text!r}: {exc}") from exc
    return values


def cmd_train(args):
    cfg = load_config(args.config)
    tcfg = _section(cfg, "train", _TRAIN_KEYS)
    mcfg = _section(cfg, "model", _MODEL_KEYS)
    dcfg = _section(cfg, "dataset", _DATASET_KEYS)
    params = {"epochs": _value(tcfg, "epochs", 10, _int),
              "batch_size": _value(tcfg, "batch_size", 32, _int),
              "lr": _value(tcfg, "lr", 0.01, _float),
              "optimizer": _value(tcfg, "optimizer", "adam", _str),
              "seed": _value(tcfg, "seed", 0, _int, args.seed[-1] if args.seed else None)}
    model = build_model_from_config(mcfg)
    train_set, test_set = build_datasets_from_config(dcfg)
    log = train(model, _need(train_set, "train"), eval_set=test_set, **params)
    save_checkpoint(model, args.out)
    _write_meta(args.out, "train", {
        "config": {"model": mcfg, "dataset": dcfg, "train": params},
        "model_checksum": model_checksum(model),
        "accuracy_log": log})
    final = log[-1] if log else None
    print(f"trained {params['epochs']} epochs; final accuracy "
          f"{final if final is not None else 'n/a'}; checkpoint {args.out}")
    return 0


def cmd_attribute(args):
    cfg = load_config(args.config)
    config = _config(attr_mod.AttributionConfig, cfg, "attribute",
                     {"target_kind": args.target, "steps": args.steps,
                      "sample_count": args.samples, "baseline": args.baseline,
                      "seed": args.seed[-1] if args.seed else None},
                     target_kind="neuron_weight")
    train_set, test_set = build_datasets_from_config(_section(cfg, "dataset", _DATASET_KEYS))
    dataset = _need(test_set if test_set is not None else train_set, "test")
    model = load_checkpoint(args.checkpoint)
    amap = attr_mod.attribute_all(model, dataset, config)
    attr_mod.save_attribution(amap, args.out)
    _write_meta(args.out, "attribute", {
        "config": dataclasses.asdict(config),
        "checkpoint": args.checkpoint,
        "model_checksum": amap.model_checksum})
    print(f"attributed {len(amap.scores)} layers ({config.target_kind}); wrote {args.out}")
    return 0


def cmd_campaign(args):
    cfg = load_config(args.config)
    config = _config(campaign_mod.CampaignConfig, cfg, "campaign",
                     {"code": args.code, "thresholds": _parse_thresholds(args.thresholds),
                      "sample_budget": args.budget, "seeds": args.seed,
                      "uniform_mix": args.mix, "workers": args.workers},
                     code="RBRNw")
    train_set, test_set = build_datasets_from_config(_section(cfg, "dataset", _DATASET_KEYS))
    dataset = _need(test_set if test_set is not None else train_set, "test")
    model = load_checkpoint(args.checkpoint)
    attributions = None
    if config.code.needs_attributions and not config.exhaustive:
        if args.attribution is None:
            raise ConfigError(f"code {config.code} requires --attribution")
        attributions = attr_mod.load_attribution(args.attribution)
    probe = dataset.images[:EVAL_BATCH]
    result = campaign_mod.run_campaign(model, dataset, config, attributions,
                                       out_csv=args.out, probe_images=probe)
    stats = result.stats
    shown = [f"{t:.2f}:{p if p is None else round(p, 4)}"
             for t, p in zip(config.thresholds, stats.precision)][:4]
    print(f"campaign {config.code}: {len(result.records)} records, baseline "
          f"{result.baseline_accuracy}, precision {' '.join(shown)} ...; wrote {args.out}")
    return 0


def cmd_fat(args):
    cfg = load_config(args.config)
    config = _config(fat_mod.FatConfig, cfg, "fat",
                     {"code": args.code, "uniform_mix": args.mix,
                      "seed": args.seed[-1] if args.seed else None,
                      "thresholds": _parse_thresholds(args.thresholds)})
    mcfg = _section(cfg, "model", _MODEL_KEYS)
    dcfg = _section(cfg, "dataset", _DATASET_KEYS)
    model = build_model_from_config(mcfg)
    train_set, test_set = build_datasets_from_config(dcfg)
    model, report = fat_mod.fat_train(model, _need(train_set, "train"),
                                      _need(test_set, "test"), config)
    os.makedirs(args.out_dir, exist_ok=True)
    ckpt = os.path.join(args.out_dir, "fat_model.ckpt")
    report_path = os.path.join(args.out_dir, "fat_report.json")
    save_checkpoint(model, ckpt)
    fat_mod.save_fat_report(report, report_path)
    save_fault_csv(report.trained_fault_sites,
                   os.path.join(args.out_dir, "trained_faults.csv"))
    save_fault_csv(report.adversary_fault_sites,
                   os.path.join(args.out_dir, "adversary_faults.csv"))
    _write_meta(report_path, "fat", {
        "config": {"model": mcfg, "dataset": dcfg, "fat": config.to_json_dict()},
        "model_checksum": model_checksum(model)})
    print(f"fat: baseline {report.baseline_accuracy} post-fat {report.post_fat_accuracy} "
          f"under-trained-faults {report.accuracy_under_trained_faults}; "
          f"outputs in {args.out_dir}")
    return 0


def cmd_report(args):
    all_records = []
    thresholds = None
    for path in args.records:
        records, t = campaign_mod.load_records(path)
        if thresholds is None:
            thresholds = t
        elif t != thresholds:
            raise UsageError(f"{path}: threshold columns differ from {args.records[0]}; "
                             "refusing to mix")
        all_records.extend(records)
    if thresholds is None:
        raise UsageError("no records files given")
    summary = campaign_mod.report(all_records, thresholds,
                                  series_threshold=args.series_threshold)
    prec_path, series_path = campaign_mod.write_report_csvs(summary, args.out)
    _write_meta(prec_path, "report", {
        "config": {"records": list(args.records),
                   "series_threshold": args.series_threshold}})
    for code, t, mean, std, n in summary.rows:
        if t == args.series_threshold:
            mean_s = "null" if mean is None else f"{mean:.4f}"
            std_s = "null" if std is None else f"{std:.4f}"
            print(f"{code} precision@{t:.2f}: mean {mean_s} stddev {std_s} over {n} seeds")
    print(f"wrote {prec_path} and {series_path}")
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="sdcprobe",
        description="Bit-flip fault injection campaigns on small neural networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seeds=True, workers=False):
        p.add_argument("--config", default=None, help="JSON config file")
        if seeds:
            p.add_argument("--seed", action="append", type=int, default=None,
                           help="seed (repeatable where seed lists apply)")
        if workers:
            p.add_argument("--workers", type=int, default=None,
                           help="accepted for older configs (>= 1); campaigns run in "
                                "the calling thread and records do not depend on it")

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attribute", help="compute attribution scores for a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--target", choices=list(attr_mod.TARGET_KINDS), default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--baseline", choices=list(attr_mod.BASELINE_KINDS), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("campaign", help="run a fault-injection campaign")
    common(p, workers=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--attribution", default=None)
    p.add_argument("--code", default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--thresholds", default=None, help="comma-separated values")
    p.add_argument("--mix", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("fat", help="fault-aware training")
    common(p)
    p.add_argument("--code", default=None)
    p.add_argument("--thresholds", default=None)
    p.add_argument("--mix", type=float, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_fat)

    p = sub.add_parser("report", help="summarize campaign records")
    p.add_argument("records", nargs="+", help="records CSV files")
    p.add_argument("--series-threshold", type=float, default=0.05)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_report)
    return parser


def _fail(category, exc):
    reason = " ".join(str(exc).split())  # one line, machine-parsable
    print(f"error: {category}: {reason}", file=sys.stderr)


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UsageError) as exc:
        _fail("config", exc)
        return 2
    except (DataFormatError, DataIntegrityError) as exc:
        _fail("data", exc)
        return 3
    except SdcProbeError as exc:
        _fail("runtime", exc)
        return 4
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _fail("runtime", f"{exc.__class__.__name__}: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
