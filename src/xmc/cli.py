"""Operator surface: cluster / train / predict / eval / ablate / gradcheck.

Configuration precedence: explicit flags > --config file > --preset > defaults.
Every artifact-producing command writes a JSON run manifest next to its
outputs; re-running `train --config <manifest.json>` reproduces the run in
verification mode.  Exit codes: 0 success, 2 usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import re
import sys
import time
import typing
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import tensor as t
from .checkpoint import atomic_write
from .cluster import ClusterMap, build_cluster_map, build_label_reps
from .corpus import (Document, Vocab, XmcDataset, batch_iter, build_vocab, load_dataset, read_text, split_lines,
                     tokenize)
from .encoder import BLOCK_DROPOUT, encoder_grad_check, layers_concatenated
from .errors import ConfigError, ParseError, UsageError, XmcError
from .predict import BATCH_SIZE, evaluate, predict_batch
from .synth import make_synthetic_corpus
from .trainer import (GRAD_CLIP, PRESETS, WEIGHT_DECAY, TrainConfig, apply_preset, load_bundle,
                      micro_joint_grad_check, train)

GRAD_TOLERANCE = 1e-4

USAGE_ERRORS = (UsageError, ConfigError, ParseError)


# ---------------------------------------------------------------------------
# config plumbing


def _read_config_file(path: Path, lines: dict | None = None) -> dict:
    """Typed overrides from key=value lines, or from the config block of a
    previously written manifest; ``lines`` gains each key's ``file:line``."""
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    text = read_text(path)
    if path.suffix == ".json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from exc
        block, line, start = payload, 1, 0
        if isinstance(payload, dict) and "config" in payload:
            line, _, block, start = [m for m in _json_members(text, 0) if m[1] == "config"][-1]
        if not isinstance(block, dict):
            raise UsageError(f"{path}:{line}: expected a JSON object of config values, got {json.dumps(block)[:40]}")
        entries = [member[:3] for member in _json_members(text, start)]
    else:
        entries = []
        for lineno, line in enumerate(split_lines(text), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            entries.append((lineno, key.strip(), value.strip()))
    values = {}
    for lineno, key, value in entries:
        where = f"{path}:{lineno}"
        if key in _RETIRED:
            spec, kept = _RETIRED[key]
            with contextlib.suppress(UsageError):
                if _coerce(where, key, value, spec) == kept:
                    continue
            raise UsageError(f"{where}: {key}={value} is no longer supported; only {kept} loads")
        values[key] = _coerce(where, key, value)
        if lines is not None:
            lines[key] = where
    return values


# whitespace, at most one of the separators { , : and whitespace again
_JSON_SEP = re.compile(r"[ \t\n\r]*[{,:]?[ \t\n\r]*")


def _json_members(text: str, pos: int):
    """(line, key, value, value offset) of each member of the JSON object that
    opens at ``text[pos]``; ``text`` must already have parsed as JSON."""
    decoder = json.JSONDecoder()
    pos = _JSON_SEP.match(text, pos).end()
    while text[pos] != "}":
        key, end = decoder.raw_decode(text, pos)
        value_at = _JSON_SEP.match(text, end).end()
        value, end = decoder.raw_decode(text, value_at)
        yield text.count("\n", 0, pos) + 1, key, value, value_at
        pos = _JSON_SEP.match(text, end).end()


def _field_type(name: str, hint) -> tuple[type, bool, tuple | None]:
    """(value type, whether None is allowed, choices) of a TrainConfig field."""
    if typing.get_origin(hint) is typing.Literal:
        return str, False, typing.get_args(hint)
    members = typing.get_args(hint) or (hint,)
    kind = next(m for m in members if m is not type(None))
    return kind, type(None) in members, tuple(sorted(PRESETS)) if name == "preset" else None


# TrainConfig is the one config schema: train/ablate flags and config-file
# coercion are both derived from its type hints.
_SCHEMA = {name: _field_type(name, hint) for name, hint in typing.get_type_hints(TrainConfig).items()}
# flag names that predate the schema; the rest are --field-name
_FLAG_NAMES = {"cluster_size": "--max-size", "learning_rate": "--lr", "sampling_mode": "--sampling",
               "n_layers": "--layers", "n_heads": "--heads"}
# Switches older manifests still carry: (their type, as _field_type gives it;
# the value the code now always uses).  A file loads only with that value.
_RETIRED = {
    "rank_target_invert": ((bool, False, None), False),
    "decay_bias_norm": ((bool, False, None), False),
    "bottleneck_act": ((str, False, ("sigmoid", "relu")), "sigmoid"),
    "grad_clip": ((float, True, None), GRAD_CLIP),
    "weight_decay": ((float, False, None), WEIGHT_DECAY),
    "block_dropout": ((float, False, None), BLOCK_DROPOUT),
    "swa_start_epoch": ((int, True, None), None),
}
# The accepted range of each numeric field, as a test and its wording; a field
# not listed must be positive.  NaN fails every test.
_RANGES = {
    "seed": (lambda v: v >= 0, ">= 0"),
    "epochs": (lambda v: v >= 0, ">= 0"),  # 0 writes the initialized model only
    "dropout": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "max_len": (lambda v: v >= 2, ">= 2"),  # [CLS] and one token
}
_POSITIVE = (lambda v: 0 < v < float("inf"), "finite and > 0")


def _flag(name: str) -> str:
    return _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))


def _coerce(where: str, key: str, value, spec: tuple | None = None):
    """A config value checked against TrainConfig.<key>'s type (or ``spec``) and range; else a usage error."""
    if spec is None and key not in _SCHEMA:
        raise UsageError(f"{where}: unknown config key {key!r}")
    kind, optional, choices = spec or _SCHEMA[key]
    if value is None or (isinstance(value, str) and value.lower() in ("none", "")):
        if optional:
            return None
    elif isinstance(value, str) or (kind is float and type(value) is int):
        with contextlib.suppress(KeyError, ValueError, OverflowError):
            value = {"true": True, "false": False}[value.lower()] if kind is bool else kind(value)
    if type(value) is kind and (choices is None or value in choices):
        in_range, want = _RANGES.get(key, _POSITIVE)
        if kind not in (int, float) or in_range(value):
            return value
    else:
        want = f"one of {', '.join(choices)}" if choices else kind.__name__ + (" or none" if optional else "")
    raise UsageError(f"{where}: {key} must be {want}, got {value!r}")


def resolve_train_config(args, where: dict | None = None) -> TrainConfig:
    """Defaults < preset < --config file < explicit flags.  A preset named in
    the config file applies beneath that file's values, as --preset does.
    ``where`` gains the flag or ``file:line`` that set each field."""
    flags = {name: _coerce(_flag(name), name, value)
             for name in _SCHEMA if (value := getattr(args, name)) is not None}
    where = {} if where is None else where
    file_values = _read_config_file(Path(args.config), where) if args.config else {}
    where.update((name, _flag(name)) for name in flags)
    preset = flags.get("preset") or file_values.get("preset")
    config = apply_preset(TrainConfig(), preset) if preset else TrainConfig()
    config = replace(config, **{**file_values, **flags})
    if config.hidden % config.n_heads:  # checked before any data is written
        at = [where[name] for name in ("hidden", "n_heads") if name in where]  # presets divide
        raise UsageError(f"{at[0]}: hidden {config.hidden} is not divisible by n_heads {config.n_heads}"
                         + "".join(f" (set at {w})" for w in at[1:]))
    if args.command == "ablate" and config.epochs < 1:  # its loss curves need an epoch
        raise UsageError(f"{where['epochs']}: ablate needs epochs >= 1, got {config.epochs}")
    return replace(config, concat_layers=layers_concatenated(config.concat_layers, config.n_layers))


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
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _check_out(flag: str, path_str: str | None, folder: bool = False) -> Path | None:
    """``flag``'s output path, refused before any input is read if it cannot be written: a file's
    folder must exist and the file must not be a folder; an out-dir must be a folder or be creatable."""
    if path_str is None:
        return None
    path = Path(path_str)
    existing = next(p for p in (path, *path.parents) if p.exists()) if folder else path.parent
    if folder and not existing.is_dir():
        raise UsageError(f"{flag} {path}: {existing} is not a directory")
    if not folder and (path.is_dir() or not existing.is_dir()):
        raise UsageError(f"{flag} {path}: " + ("is a directory" if path.is_dir() else f"no directory {existing}"))
    return path


def _require_file(path_str: str | None, what: str) -> Path:
    if not path_str:
        raise UsageError(f"missing required {what}")
    path = Path(path_str)
    if not path.exists():
        raise UsageError(f"{what} not found: {path}")
    return path


# ---------------------------------------------------------------------------
# dataset assembly shared by train / ablate


def _load_train_data(args, config: TrainConfig, cmap: ClusterMap | None = None, where: dict | None = None):
    """(out dir, train set, dev set or None, vocab, input paths) from the train/ablate flags; a
    ``cmap`` over another label count, or with fewer clusters than b_top (set at ``where``), is
    refused before anything is written."""
    if not args.out_dir:
        raise UsageError(f"{args.command} requires --out-dir")
    out_dir, corpus = Path(args.out_dir), make_synthetic_corpus(seed=config.seed) if args.synth else None
    if corpus is not None and cmap is not None:  # checked before the corpus is written
        _check_label_count(args.clusters, cmap.num_labels, corpus.num_labels)
        _check_b_top(config, where, cmap)
    out_dir.mkdir(parents=True, exist_ok=True)
    if corpus is not None:
        paths = corpus.write(out_dir / "data")
        inputs = {"sparse": paths["train_sparse"], "text": paths["train_text"],
                  "dev_sparse": paths["test_sparse"], "dev_text": paths["test_text"]}
    else:
        inputs = {"sparse": _require_file(args.sparse, "--sparse training file"),
                  "text": _require_file(args.text, "--text training file")}
        if (args.dev_sparse is None) != (args.dev_text is None):
            raise UsageError("--dev-sparse and --dev-text go together: give both or neither")
        if args.dev_sparse is not None:
            inputs.update(dev_sparse=_require_file(args.dev_sparse, "--dev-sparse file"),
                          dev_text=_require_file(args.dev_text, "--dev-text file"))
    vocab = build_vocab(inputs["text"], min_freq=config.min_freq)
    train_ds = load_dataset(inputs["sparse"], inputs["text"], vocab, max_len=config.max_len, split="train")
    if corpus is None and cmap is not None:
        _check_label_count(args.clusters, cmap.num_labels, train_ds.num_labels)
        _check_b_top(config, where, cmap)
    dev_ds = None
    if "dev_sparse" in inputs:
        dev_ds = load_dataset(inputs["dev_sparse"], inputs["dev_text"], vocab, max_len=config.max_len, split="test")
        _check_label_count(inputs["dev_sparse"], dev_ds.num_labels, train_ds.num_labels)
    return out_dir, train_ds, dev_ds, vocab, inputs


def _check_b_top(config: TrainConfig, where: dict, cmap: ClusterMap) -> None:
    """A b_top above the run's cluster count, refused at the flag or config line (or preset) that set it."""
    if config.b_top is not None and config.b_top > cmap.num_clusters:
        raise UsageError(f"{where.get('b_top', where.get('preset'))}: b_top={config.b_top} "
                         f"outside [1, {cmap.num_clusters}]")


def _check_label_count(path: Path, num_labels: int, train_labels: int) -> None:
    if num_labels != train_labels:
        raise UsageError(f"{path}:1: header says {num_labels} labels, the training set has {train_labels}")


def _load_run(ckpt_path: Path, b_top: int | None, weights: str, ensemble: bool = False):
    """(view with the ``--weights`` choice, config, vocab, b_top) from a checkpoint and its
    sibling manifest; ``b_top`` is the flag's value, else the one the run trained with, in
    [1, K] for the run's K clusters (an ensemble member clamps a larger one to K)."""
    manifest_path = ckpt_path.parent / "manifest.json"
    if not manifest_path.exists():
        raise UsageError(f"no manifest.json next to {ckpt_path}")
    config = TrainConfig(**_read_config_file(manifest_path))
    artifacts = json.loads(read_text(manifest_path)).get("artifacts")
    if not isinstance(artifacts, dict):
        raise UsageError(f"{manifest_path}:1: no artifacts object; not a train manifest")
    if b_top is None and config.b_top is None:
        raise UsageError(f"{manifest_path}: b_top is null (the run predates recording it); pass --b-top")
    source, b_top = (manifest_path, config.b_top) if b_top is None else ("--b-top", b_top)
    vocab = Vocab.load(_require_file(artifacts.get("vocab"), "vocab artifact"))
    cmap = ClusterMap.load(_require_file(artifacts.get("clusters"), "cluster map artifact"))
    if b_top < 1 or (b_top > cmap.num_clusters and not ensemble):
        raise UsageError(f"{source}: b_top={b_top} outside [1, {cmap.num_clusters}]")
    bundle = load_bundle(ckpt_path, config, vocab.size, cmap)
    if weights == "swa" and not bundle.swa_available():
        raise UsageError(f"--weights swa: {ckpt_path} has no SWA records")
    view = bundle.inference_params({"auto": None, "swa": True, "raw": False}[weights])
    return view, config, vocab, b_top


# ---------------------------------------------------------------------------
# subcommands


def cmd_cluster(args) -> int:
    seed = TrainConfig.seed if args.seed is None else _coerce("--seed", "seed", args.seed)
    max_size = _coerce("--max-size", "cluster_size", args.max_size)
    out = _check_out("--out", args.out)
    sparse = _require_file(args.sparse, "--sparse training file")
    dataset = load_dataset(sparse, split="train")
    reps = build_label_reps(dataset)
    cmap = build_cluster_map(reps, max_size, seed)
    cmap.save(out)
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "cluster",
        None,
        {"sparse": sparse},
        {"clusters": out},
        seed,
    )
    sizes = np.bincount(cmap.assign)
    print(f"clusters={cmap.num_clusters} labels={cmap.num_labels} "
          f"size_min={sizes.min()} size_max={sizes.max()} out={out}")
    return 0


def cmd_train(args) -> int:
    _check_out("--out-dir", args.out_dir, folder=True)
    config = resolve_train_config(args, where := {})
    cmap = ClusterMap.load(_require_file(args.clusters, "--clusters map file")) if args.clusters else None
    out_dir, train_ds, dev_ds, vocab, inputs = _load_train_data(args, config, cmap, where)
    if cmap is not None:
        inputs["clusters"] = Path(args.clusters)
    else:
        cmap = build_cluster_map(build_label_reps(train_ds), config.cluster_size, config.seed)
        _check_b_top(config, where, cmap)

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
    # bundle.config records the b_top that training resolved
    _write_manifest(out_dir / "manifest.json", "train", bundle.config, inputs, artifacts, config.seed)
    print(f"run complete: {out_dir / 'final.ckpt'} (sampling={config.sampling_mode})")
    return 0


def _check_ks(ks) -> None:
    if min(ks) < 1:
        raise UsageError(f"--k: k must be >= 1, got {min(ks)}")


def cmd_predict(args) -> int:
    _check_ks([args.k])
    out_path = _check_out("--out", args.out)
    ckpt = _require_file(args.ckpt, "--ckpt checkpoint")
    text = _require_file(args.text, "--text input file")
    bundle, config, vocab, b_top = _load_run(ckpt, args.b_top, args.weights)
    lines = split_lines(read_text(text))
    docs = [Document(i, tokenize(line, vocab, config.max_len), (), None) for i, line in enumerate(lines)]
    dataset = XmcDataset(docs, bundle.num_labels, feature_dim=0, split="test", vocab=vocab)

    with atomic_write(out_path) if out_path else contextlib.nullcontext(sys.stdout) as sink:
        for batch in batch_iter(dataset, BATCH_SIZE, seed=0, shuffle=False):
            for pred in predict_batch(batch.token_ids, batch.mask, bundle, b_top, args.k):
                sink.write(pred.as_line() + "\n")
    if out_path:
        _write_manifest(
            out_path.with_suffix(out_path.suffix + ".manifest.json"),
            "predict",
            replace(config, b_top=b_top),
            {"ckpt": ckpt, "text": text},
            {"predictions": out_path},
            config.seed,
        )
    return 0


def cmd_eval(args) -> int:
    if bool(args.ckpt) == bool(args.ensemble):
        raise UsageError("eval needs exactly one of --ckpt or --ensemble")
    try:
        ks = tuple(int(v) for v in args.k.split(","))
    except ValueError:
        raise UsageError(f"--k must be comma-separated integers, got {args.k!r}") from None
    _check_ks(ks)
    ckpts = [args.ckpt] if args.ckpt else args.ensemble.split(",")
    if "" in ckpts:
        raise UsageError(f"--ensemble: member {ckpts.index('') + 1} is empty")
    loaded = [_load_run(_require_file(c, "checkpoint"), args.b_top, args.weights, bool(args.ensemble)) for c in ckpts]
    bundles = [b for b, _, _, _ in loaded]
    _, config, vocab, b_top = loaded[0]
    # every member reads the token ids encoded once with the first member's vocab and max_len
    for ckpt, (_, member, member_vocab, _) in zip(ckpts[1:], loaded[1:]):
        if member_vocab.token_to_id != vocab.token_to_id:
            raise UsageError(f"ensemble member {ckpt}: its vocab differs from that of {ckpts[0]}")
        if member.max_len != config.max_len:
            raise UsageError(f"ensemble member {ckpt}: max_len {member.max_len} differs from "
                             f"{config.max_len} of {ckpts[0]}")

    sparse = _require_file(args.sparse, "--sparse test file")
    text = _require_file(args.text, "--text test file")
    dataset = load_dataset(sparse, text, vocab, max_len=config.max_len, split="test")
    if len(dataset) == 0:
        raise UsageError(f"test set {sparse} is empty")
    if dataset.num_labels != bundles[0].num_labels:
        raise UsageError(f"{sparse}:1: header says {dataset.num_labels} labels, "
                         f"the model has {bundles[0].num_labels}")
    report = evaluate(dataset, bundles, b_top=b_top, ks=ks)
    print(report.table())
    print(report.machine_lines())
    return 0


def cmd_ablate(args) -> int:
    _check_out("--out-dir", args.out_dir, folder=True)
    config = resolve_train_config(args, where := {})
    out_dir, train_ds, test_ds, vocab, inputs = _load_train_data(args, config)
    if test_ds is None:
        raise UsageError("ablate needs a dev/test split (--dev-sparse/--dev-text or --synth)")

    variants = {
        "D": replace(config, sampling_mode="dynamic"),
        "S": replace(config, sampling_mode="static"),
        "single_layer": replace(config, sampling_mode="dynamic", concat_layers=1),
    }
    # the variants differ in neither cluster_size nor seed, so they share one cluster map
    cmap = build_cluster_map(build_label_reps(train_ds), config.cluster_size, config.seed)
    _check_b_top(config, where, cmap)
    precision: dict[str, dict[int, float]] = {}
    curves: dict[str, list[dict]] = {}
    for name, variant in variants.items():
        bundle, curves[name] = train(train_ds, variant, cluster_map=cmap, out_dir=out_dir / name)
        if name != "single_layer":  # the depth variant reports only its loss curve
            precision[name] = evaluate(test_ds, [bundle], b_top=bundle.config.b_top).precision

    table_lines = [f"{'variant':<10}{'P@1':>8}{'P@3':>8}{'P@5':>8}"]
    for name in ("D", "S"):
        p = precision[name]
        table_lines.append(f"{name:<10}{p[1]:>8.4f}{p[3]:>8.4f}{p[5]:>8.4f}")
    table = "\n".join(table_lines)
    print(table)
    with atomic_write(out_dir / "ablation_table.txt") as fh:
        fh.write(table + "\n")

    # loss curves for the representation-depth comparison: epochs x 2 rows
    csv_path = out_dir / "layer_loss.csv"
    with atomic_write(csv_path) as fh:
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
    dynamic_vs_static = precision["D"][1] - precision["S"][1]
    print(f"dynamic_p1={precision['D'][1]:.4f} static_p1={precision['S'][1]:.4f} "
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
    seed = {} if args.seed is None else {"seed": _coerce("--seed", "seed", args.seed)}
    t.set_verify_mode(True)
    started = time.perf_counter()
    enc_err = encoder_grad_check(**seed)
    print(f"encoder grad check: max rel err {enc_err:.3e}")
    joint_err = micro_joint_grad_check(**seed)
    print(f"joint loss grad check: max rel err {joint_err:.3e}")
    elapsed = time.perf_counter() - started
    ok = enc_err < GRAD_TOLERANCE and joint_err < GRAD_TOLERANCE
    print(f"gradcheck {'PASS' if ok else 'FAIL'} (tolerance {GRAD_TOLERANCE:g}, {elapsed:.1f}s)")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    verify = argparse.ArgumentParser(add_help=False)
    verify.add_argument("--verify", action="store_true", help="64-bit deterministic mode")
    common = argparse.ArgumentParser(add_help=False, parents=[verify])
    common.add_argument("--seed", type=int, default=None,
                        help=f"global random seed (default {TrainConfig.seed})")

    train_flags = argparse.ArgumentParser(add_help=False)
    train_flags.add_argument("--config", help="key=value overrides file, or a previous manifest.json")
    train_flags.add_argument("--sparse", help="training sparse file (N D L header)")
    train_flags.add_argument("--text", help="training raw text, one doc per line")
    train_flags.add_argument("--dev-sparse", dest="dev_sparse")
    train_flags.add_argument("--dev-text", dest="dev_text")
    train_flags.add_argument("--synth", action="store_true", help="generate the built-in synthetic corpus")
    train_flags.add_argument("--out-dir", dest="out_dir")
    defaults = TrainConfig()
    for name, (kind, _, choices) in _SCHEMA.items():
        if name == "seed":  # a common flag
            continue
        how = {"choices": choices} if choices else {"type": kind}
        train_flags.add_argument(_flag(name), dest=name,
                                 help=f"default {getattr(defaults, name)}", **how)

    parser = argparse.ArgumentParser(prog="xmc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"xmc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", parents=[common], help="build a balanced label cluster map")
    p_cluster.add_argument("--sparse", required=True)
    p_cluster.add_argument("--max-size", dest="max_size", type=int, required=True)
    p_cluster.add_argument("--out", required=True)
    p_cluster.set_defaults(func=cmd_cluster)

    p_train = sub.add_parser("train", parents=[common, train_flags], help="train a model end to end")
    p_train.set_defaults(func=cmd_train)
    p_train.add_argument("--clusters", help="pre-built cluster map file")

    p_predict = sub.add_parser("predict", parents=[verify], help="rank labels for raw text")
    p_predict.add_argument("--ckpt", required=True)
    p_predict.add_argument("--text", required=True)
    p_predict.add_argument("--out")
    p_predict.add_argument("--k", type=int, default=5)
    p_predict.add_argument("--b-top", dest="b_top", type=int)
    p_predict.add_argument("--weights", choices=["auto", "swa", "raw"], default="auto")
    p_predict.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("eval", parents=[verify], help="P@k evaluation")
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
    if args.verify:
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
