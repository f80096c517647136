"""Operator surface: cluster / train / predict / eval / ablate / gradcheck.

Configuration precedence: explicit flags > --config file > --preset > defaults.
Every artifact-producing command writes a JSON run manifest next to its
outputs; re-running `train --config <manifest.json>` reproduces the run in
verification mode.  Exit codes: 0 success, 2 usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import __version__
from . import tensor as t
from .cluster import ClusterMap, build_cluster_map, build_label_reps
from .corpus import Vocab, batch_iter, build_vocab, load_dataset
from .encoder import encoder_grad_check
from .errors import ConfigError, ParseError, UsageError, XmcError
from .predict import evaluate, predict_batch
from .synth import make_synthetic_corpus
from .trainer import (
    PRESETS,
    TrainConfig,
    apply_preset,
    config_from_dict,
    load_bundle,
    micro_joint_grad_check,
    resolve_b_top,
    train,
)

GRAD_TOLERANCE = 1e-4
DEFAULT_SEED = 7

USAGE_ERRORS = (UsageError, ConfigError, ParseError)


# ---------------------------------------------------------------------------
# config plumbing


def _read_config_file(path: Path) -> dict:
    """Typed overrides from key=value lines, or from the config block of a
    previously written manifest."""
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    if path.suffix == ".json":
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from exc
        block = payload.get("config", payload) if isinstance(payload, dict) else payload
        if not isinstance(block, dict):
            raise UsageError(f"{path}:1: expected a JSON object of config values, got {json.dumps(block)[:40]}")
        entries = [(str(path), key, value) for key, value in block.items()]
    else:
        entries = []
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            entries.append((f"{path}:{lineno}", key.strip(), value.strip()))
    values = {}
    for where, key, value in entries:
        if key == "rank_target_invert":
            # written by versions that had a debug-only inverted-target switch
            if value is True or str(value).lower() in _TRUE:
                raise UsageError(f"{where}: rank_target_invert=true is no longer supported")
            continue
        values[key] = _coerce(where, key, value)
    return values


_FIELD_NAMES = {f.name for f in fields(TrainConfig)}
_BOOL_FIELDS = {"decay_bias_norm"}
_FLOAT_FIELDS = {"learning_rate", "weight_decay", "dropout", "block_dropout", "grad_clip"}
_STR_FIELDS = {"preset", "sampling_mode", "bottleneck_act"}
_TRUE = {"1", "true", "yes", "on"}


def _coerce(where: str, key: str, value):
    if key not in _FIELD_NAMES:
        raise UsageError(f"{where}: unknown config key {key!r}")
    if not isinstance(value, str):
        return value
    if key in _BOOL_FIELDS:
        return value.lower() in _TRUE
    if key in _STR_FIELDS:
        return None if value.lower() == "none" else value
    if value.lower() in {"none", ""}:
        return None
    kind = float if key in _FLOAT_FIELDS else int
    try:
        return kind(value)
    except ValueError as exc:
        raise UsageError(f"{where}: {key} must be {kind.__name__}, got {value!r}") from exc


def resolve_train_config(args) -> TrainConfig:
    config = TrainConfig()
    if getattr(args, "preset", None):
        config = apply_preset(config, args.preset)
    if getattr(args, "config", None):
        config = config_from_dict({**asdict(config), **_read_config_file(Path(args.config))})
    flag_map = {
        "epochs": "epochs",
        "batch_size": "batch_size",
        "b_top": "b_top",
        "embed_dim": "embed_dim",
        "max_size": "cluster_size",
        "max_len": "max_len",
        "lr": "learning_rate",
        "weight_decay": "weight_decay",
        "dropout": "dropout",
        "sampling": "sampling_mode",
        "swa_start": "swa_start_epoch",
        "seed": "seed",
        "hidden": "hidden",
        "layers": "n_layers",
        "heads": "n_heads",
        "ff_dim": "ff_dim",
        "concat_layers": "concat_layers",
        "block_dropout": "block_dropout",
        "min_freq": "min_freq",
        "bottleneck": "bottleneck_act",
    }
    updates = {}
    for flag, field_name in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            updates[field_name] = value
    if getattr(args, "no_grad_clip", False):
        updates["grad_clip"] = None
    if getattr(args, "decay_bias_norm", False):
        updates["decay_bias_norm"] = True
    if updates:
        config = replace(config, **updates)
    return config


def _write_manifest(path: Path, command: str, config: TrainConfig | None, inputs: dict, artifacts: dict, seed: int) -> None:
    payload = {
        "tool": "xmc",
        "version": __version__,
        "command": command,
        "seed": seed,
        "verify": t.verify_enabled(),
        "config": asdict(config) if config is not None else None,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "artifacts": {k: str(v) for k, v in artifacts.items()},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _require_file(path_str: str | None, what: str) -> Path:
    if not path_str:
        raise UsageError(f"missing required {what}")
    path = Path(path_str)
    if not path.exists():
        raise UsageError(f"{what} not found: {path}")
    return path


# ---------------------------------------------------------------------------
# dataset assembly shared by train / eval / ablate


def _materialize_synth(out_dir: Path, seed: int) -> dict[str, Path]:
    corpus = make_synthetic_corpus(seed=seed)
    return corpus.write(out_dir / "data")


def _load_train_data(args, config: TrainConfig, out_dir: Path | None):
    if getattr(args, "synth", False):
        if out_dir is None:
            raise UsageError("--synth requires --out-dir")
        paths = _materialize_synth(out_dir, config.seed)
        sparse, text = paths["train_sparse"], paths["train_text"]
        dev_sparse, dev_text = paths["test_sparse"], paths["test_text"]
    else:
        sparse = _require_file(args.sparse, "--sparse training file")
        text = _require_file(args.text, "--text training file")
        dev_sparse = Path(args.dev_sparse) if getattr(args, "dev_sparse", None) else None
        dev_text = Path(args.dev_text) if getattr(args, "dev_text", None) else None
        if dev_sparse is not None:
            dev_sparse = _require_file(str(dev_sparse), "--dev-sparse file")
            dev_text = _require_file(str(dev_text), "--dev-text file")
    vocab = build_vocab(text, min_freq=config.min_freq)
    train_ds = load_dataset(sparse, text, vocab, max_len=config.max_len, split="train")
    dev_ds = None
    if dev_sparse is not None:
        dev_ds = load_dataset(dev_sparse, dev_text, vocab, max_len=config.max_len, split="test")
    inputs = {"sparse": sparse, "text": text}
    if dev_sparse is not None:
        inputs.update(dev_sparse=dev_sparse, dev_text=dev_text)
    return train_ds, dev_ds, vocab, inputs


def _load_run(ckpt_path: Path):
    """Rebuild (bundle, config, vocab) from a checkpoint and its sibling manifest."""
    manifest_path = ckpt_path.parent / "manifest.json"
    if not manifest_path.exists():
        raise UsageError(f"no manifest.json next to {ckpt_path}")
    config = config_from_dict(_read_config_file(manifest_path))
    artifacts = json.loads(manifest_path.read_text(encoding="utf-8"))["artifacts"]
    vocab = Vocab.load(_require_file(artifacts.get("vocab"), "vocab artifact"))
    cmap = ClusterMap.load(_require_file(artifacts.get("clusters"), "cluster map artifact"))
    bundle = load_bundle(ckpt_path, config, vocab.size, cmap)
    return bundle, config, vocab


# ---------------------------------------------------------------------------
# subcommands


def cmd_cluster(args) -> int:
    sparse = _require_file(args.sparse, "--sparse training file")
    out = Path(args.out)
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    dataset = load_dataset(sparse, split="train", max_len=args.max_len or 128)
    reps = build_label_reps(dataset)
    cmap = build_cluster_map(reps, args.max_size, seed)
    cmap.save(out)
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "cluster",
        None,
        {"sparse": sparse},
        {"clusters": out},
        seed,
    )
    sizes = [len(m) for m in cmap.members]
    print(f"clusters={cmap.num_clusters} labels={cmap.num_labels} "
          f"size_min={min(sizes)} size_max={max(sizes)} out={out}")
    return 0


def cmd_train(args) -> int:
    config = resolve_train_config(args)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is None:
        raise UsageError("train requires --out-dir")
    out_dir.mkdir(parents=True, exist_ok=True)
    train_ds, dev_ds, vocab, inputs = _load_train_data(args, config, out_dir)

    cmap = None
    if getattr(args, "clusters", None):
        cmap = ClusterMap.load(_require_file(args.clusters, "--clusters map file"))
        inputs["clusters"] = Path(args.clusters)

    vocab_path = out_dir / "vocab.txt"
    vocab.save(vocab_path)

    bundle, _metrics = train(train_ds, config, cluster_map=cmap, dev=dev_ds, out_dir=out_dir)
    clusters_path = out_dir / "clusters.txt"
    bundle.cluster_map.save(clusters_path)
    artifacts = {
        "vocab": vocab_path,
        "clusters": clusters_path,
        "checkpoint": out_dir / "final.ckpt",
        "metrics": out_dir / "metrics.log",
    }
    if config.sampling_mode == "static":
        # frozen candidates come from the freshly initialized model
        artifacts["static_cache_snapshot"] = f"initialized-seed-{config.seed}"
    _write_manifest(out_dir / "manifest.json", "train", config, inputs, artifacts, config.seed)
    print(f"run complete: {out_dir / 'final.ckpt'} (sampling={config.sampling_mode})")
    return 0


def _resolve_weights_flag(value: str) -> bool | None:
    return {"auto": None, "swa": True, "raw": False}[value]


def cmd_predict(args) -> int:
    ckpt = _require_file(args.ckpt, "--ckpt checkpoint")
    text = _require_file(args.text, "--text input file")
    bundle, config, vocab = _load_run(ckpt)
    use_swa = _resolve_weights_flag(args.weights)

    from .corpus import Document, XmcDataset, tokenize

    lines = text.read_text(encoding="utf-8").splitlines()
    docs = [Document(i, tokenize(line, vocab, config.max_len), (), None) for i, line in enumerate(lines)]
    dataset = XmcDataset(docs, bundle.num_labels, feature_dim=0, split="test", vocab=vocab)
    b_top = args.b_top or resolve_b_top(config, dataset, bundle.cluster_map)

    out_path = Path(args.out) if args.out else None
    sink = open(out_path, "w", encoding="utf-8") if out_path else sys.stdout
    try:
        for batch in batch_iter(dataset, 64, seed=0, shuffle=False):
            for pred in predict_batch(batch.token_ids, batch.mask, bundle, b_top, args.k, use_swa):
                sink.write(pred.as_line() + "\n")
    finally:
        if out_path:
            sink.close()
    if out_path:
        _write_manifest(
            out_path.with_suffix(out_path.suffix + ".manifest.json"),
            "predict",
            config,
            {"ckpt": ckpt, "text": text},
            {"predictions": out_path},
            config.seed,
        )
    return 0


def cmd_eval(args) -> int:
    if bool(args.ckpt) == bool(args.ensemble):
        raise UsageError("eval needs exactly one of --ckpt or --ensemble")
    ckpts = [args.ckpt] if args.ckpt else args.ensemble.split(",")
    loaded = [_load_run(_require_file(c, "checkpoint")) for c in ckpts]
    bundles = [b for b, _, _ in loaded]
    config, vocab = loaded[0][1], loaded[0][2]

    sparse = _require_file(args.sparse, "--sparse test file")
    text = _require_file(args.text, "--text test file")
    dataset = load_dataset(sparse, text, vocab, max_len=config.max_len, split="test")
    if len(dataset) == 0:
        raise UsageError(f"test set {sparse} is empty")
    if dataset.num_labels != bundles[0].num_labels:
        raise ConfigError(
            f"label space mismatch: test has {dataset.num_labels}, model has {bundles[0].num_labels}"
        )
    ks = tuple(int(v) for v in args.k.split(","))
    b_top = args.b_top or resolve_b_top(config, dataset, bundles[0].cluster_map)
    report = evaluate(dataset, bundles, b_top=b_top, ks=ks, use_swa=_resolve_weights_flag(args.weights))
    print(report.table())
    print(report.machine_lines())
    return 0


def cmd_ablate(args) -> int:
    config = resolve_train_config(args)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is None:
        raise UsageError("ablate requires --out-dir")
    out_dir.mkdir(parents=True, exist_ok=True)
    train_ds, test_ds, vocab, inputs = _load_train_data(args, config, out_dir)
    if test_ds is None:
        raise UsageError("ablate needs a dev/test split (--dev-sparse/--dev-text or --synth)")

    variants = {
        "D": replace(config, sampling_mode="dynamic"),
        "S": replace(config, sampling_mode="static"),
        "single_layer": replace(config, sampling_mode="dynamic", concat_layers=1),
    }
    results: dict[str, dict] = {}
    curves: dict[str, list[dict]] = {}
    for name, variant in variants.items():
        run_dir = out_dir / name
        bundle, metrics = train(train_ds, variant, dev=None, out_dir=run_dir)
        b_top = resolve_b_top(variant, train_ds, bundle.cluster_map)
        report = evaluate(test_ds, [bundle], b_top=b_top)
        results[name] = {f"p{k}": v for k, v in report.precision.items()}
        results[name]["cluster_recall"] = report.cluster_recall
        curves[name] = metrics

    table_lines = [f"{'variant':<10}{'P@1':>8}{'P@3':>8}{'P@5':>8}"]
    for name in ("D", "S"):
        r = results[name]
        table_lines.append(f"{name:<10}{r['p1']:>8.4f}{r['p3']:>8.4f}{r['p5']:>8.4f}")
    table = "\n".join(table_lines)
    print(table)
    (out_dir / "ablation_table.txt").write_text(table + "\n", encoding="utf-8")

    # loss curves for the representation-depth comparison: epochs x 2 rows
    csv_path = out_dir / "layer_loss.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "variant", "loss_g", "loss_d", "loss_total"])
        for name, tag in (("D", "multi_layer"), ("single_layer", "single_layer")):
            for record in curves[name]:
                writer.writerow(
                    [record["epoch"], tag, f"{record['loss_g']:.6g}", f"{record['loss_d']:.6g}",
                     f"{record['loss_g'] + record['loss_d']:.6g}"]
                )

    half = max(1, config.epochs // 2)
    multi_half = curves["D"][half - 1]["loss_g"] + curves["D"][half - 1]["loss_d"]
    single_half = curves["single_layer"][half - 1]["loss_g"] + curves["single_layer"][half - 1]["loss_d"]
    dynamic_vs_static = results["D"]["p1"] - results["S"]["p1"]
    print(f"dynamic_p1={results['D']['p1']:.4f} static_p1={results['S']['p1']:.4f} "
          f"margin={dynamic_vs_static:+.4f}")
    print(f"half_epoch={half} multi_layer_loss={multi_half:.4f} single_layer_loss={single_half:.4f} "
          f"multi_layer_lower={'yes' if multi_half < single_half else 'no'}")

    _write_manifest(
        out_dir / "manifest.json",
        "ablate",
        config,
        inputs,
        {"table": out_dir / "ablation_table.txt", "curves": csv_path},
        config.seed,
    )
    return 0


def cmd_gradcheck(args) -> int:
    t.set_verify_mode(True)
    started = time.perf_counter()
    enc_err = encoder_grad_check(seed=args.seed)
    print(f"encoder grad check: max rel err {enc_err:.3e}")
    joint_err = micro_joint_grad_check(seed=args.seed or 3)
    print(f"joint loss grad check: max rel err {joint_err:.3e}")
    elapsed = time.perf_counter() - started
    ok = enc_err < GRAD_TOLERANCE and joint_err < GRAD_TOLERANCE
    print(f"gradcheck {'PASS' if ok else 'FAIL'} (tolerance {GRAD_TOLERANCE:g}, {elapsed:.1f}s)")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help=f"global random seed (default {DEFAULT_SEED})")
    common.add_argument("--verify", action="store_true", help="64-bit deterministic mode")
    common.add_argument("--config", help="key=value overrides file, or a previous manifest.json")

    train_flags = argparse.ArgumentParser(add_help=False)
    train_flags.add_argument("--preset", choices=sorted(PRESETS), help="named hyperparameter preset")
    train_flags.add_argument("--sparse", help="training sparse file (N D L header)")
    train_flags.add_argument("--text", help="training raw text, one doc per line")
    train_flags.add_argument("--dev-sparse", dest="dev_sparse")
    train_flags.add_argument("--dev-text", dest="dev_text")
    train_flags.add_argument("--synth", action="store_true", help="generate the built-in synthetic corpus")
    train_flags.add_argument("--out-dir", dest="out_dir")
    train_flags.add_argument("--epochs", type=int)
    train_flags.add_argument("--batch-size", dest="batch_size", type=int)
    train_flags.add_argument("--b-top", dest="b_top", type=int)
    train_flags.add_argument("--embed-dim", dest="embed_dim", type=int)
    train_flags.add_argument("--max-size", dest="max_size", type=int, help="max labels per cluster (s)")
    train_flags.add_argument("--max-len", dest="max_len", type=int)
    train_flags.add_argument("--lr", type=float)
    train_flags.add_argument("--weight-decay", dest="weight_decay", type=float)
    train_flags.add_argument("--dropout", type=float)
    train_flags.add_argument("--sampling", choices=["dynamic", "static"])
    train_flags.add_argument("--swa-start", dest="swa_start", type=int)
    train_flags.add_argument("--hidden", type=int)
    train_flags.add_argument("--layers", type=int)
    train_flags.add_argument("--heads", type=int)
    train_flags.add_argument("--ff-dim", dest="ff_dim", type=int)
    train_flags.add_argument("--concat-layers", dest="concat_layers", type=int)
    train_flags.add_argument("--block-dropout", dest="block_dropout", type=float)
    train_flags.add_argument("--min-freq", dest="min_freq", type=int)
    train_flags.add_argument("--no-grad-clip", dest="no_grad_clip", action="store_true")
    train_flags.add_argument("--decay-bias-norm", dest="decay_bias_norm", action="store_true",
                             help="apply weight decay to biases and norm weights too")
    train_flags.add_argument("--bottleneck", choices=["sigmoid", "relu"])

    parser = argparse.ArgumentParser(prog="xmc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"xmc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", parents=[common], help="build a balanced label cluster map")
    p_cluster.add_argument("--sparse", required=True)
    p_cluster.add_argument("--max-size", dest="max_size", type=int, required=True)
    p_cluster.add_argument("--max-len", dest="max_len", type=int)
    p_cluster.add_argument("--out", required=True)
    p_cluster.set_defaults(func=cmd_cluster)

    p_train = sub.add_parser("train", parents=[common, train_flags], help="train a model end to end")
    p_train.set_defaults(func=cmd_train)
    p_train.add_argument("--clusters", help="pre-built cluster map file")

    p_predict = sub.add_parser("predict", parents=[common], help="rank labels for raw text")
    p_predict.add_argument("--ckpt", required=True)
    p_predict.add_argument("--text", required=True)
    p_predict.add_argument("--out")
    p_predict.add_argument("--k", type=int, default=5)
    p_predict.add_argument("--b-top", dest="b_top", type=int)
    p_predict.add_argument("--weights", choices=["auto", "swa", "raw"], default="auto")
    p_predict.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("eval", parents=[common], help="P@k evaluation")
    p_eval.add_argument("--ckpt")
    p_eval.add_argument("--ensemble", help="comma-separated checkpoints")
    p_eval.add_argument("--sparse", required=True)
    p_eval.add_argument("--text", required=True)
    p_eval.add_argument("--k", default="1,3,5")
    p_eval.add_argument("--b-top", dest="b_top", type=int)
    p_eval.add_argument("--weights", choices=["auto", "swa", "raw"], default="auto")
    p_eval.set_defaults(func=cmd_eval)

    p_ablate = sub.add_parser("ablate", parents=[common, train_flags],
                              help="paired dynamic-vs-static and depth ablations")
    p_ablate.set_defaults(func=cmd_ablate)

    p_grad = sub.add_parser("gradcheck", parents=[common], help="finite-difference gradient fidelity")
    p_grad.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "verify", False):
        t.set_verify_mode(True)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except XmcError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
