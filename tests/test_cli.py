"""CLI surface tests: subcommands, manifests, exit codes, config precedence."""

import argparse
import json
import re
import shutil
import typing
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xmc.cli import main, resolve_train_config, build_parser
from xmc.errors import UsageError
from xmc.synth import make_synthetic_corpus
from xmc.trainer import PRESETS, TrainConfig

TINY_FLAGS = [
    "--epochs", "2", "--batch-size", "8", "--b-top", "2", "--embed-dim", "8",
    "--max-size", "2", "--max-len", "12", "--hidden", "16", "--layers", "2",
    "--heads", "2", "--ff-dim", "32", "--seed", "5",
]


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    sc = make_synthetic_corpus(num_labels=8, num_topics=4, n_train=48, n_test=16, seed=5)
    return sc.write(out)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, corpus_files):
    run_dir = tmp_path_factory.mktemp("run")
    code = main(
        ["train", "--sparse", str(corpus_files["train_sparse"]),
         "--text", str(corpus_files["train_text"]),
         "--out-dir", str(run_dir), *TINY_FLAGS]
    )
    assert code == 0
    return run_dir


# ---------------------------------------------------------------------------
# cluster


def test_cluster_command_writes_map_and_manifest(tmp_path, corpus_files):
    out = tmp_path / "map.txt"
    code = main(["cluster", "--sparse", str(corpus_files["train_sparse"]),
                 "--max-size", "2", "--seed", "7", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    k, num_labels, s, seed = (int(v) for v in lines[0].split())
    assert (num_labels, s, seed) == (8, 2, 7)
    assert len(lines) - 1 == k
    manifest = json.loads((tmp_path / "map.txt.manifest.json").read_text())
    assert manifest["command"] == "cluster"
    assert manifest["seed"] == 7


def test_cluster_rerun_identical(tmp_path, corpus_files):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["cluster", "--sparse", str(corpus_files["train_sparse"]),
            "--max-size", "3", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_cluster_max_size_one_identity(tmp_path, corpus_files):
    out = tmp_path / "map.txt"
    assert main(["cluster", "--sparse", str(corpus_files["train_sparse"]),
                 "--max-size", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert int(lines[0].split()[0]) == 8  # K == L
    assert [line.strip() for line in lines[1:]] == [str(l) for l in range(8)]


def test_cluster_missing_file_exit_2(tmp_path):
    code = main(["cluster", "--sparse", str(tmp_path / "absent.txt"),
                 "--max-size", "4", "--out", str(tmp_path / "map.txt")])
    assert code == 2


# ---------------------------------------------------------------------------
# train


def test_train_produces_artifacts(trained_run):
    for name in ("final.ckpt", "epoch001.ckpt", "epoch002.ckpt", "metrics.log",
                 "vocab.txt", "clusters.txt", "manifest.json"):
        assert (trained_run / name).exists(), name
    manifest = json.loads((trained_run / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 2
    assert manifest["config"]["sampling_mode"] == "dynamic"
    assert manifest["artifacts"]["checkpoint"].endswith("final.ckpt")


def test_train_epochs_zero_initial_checkpoint_only(tmp_path, corpus_files):
    run = tmp_path / "run0"
    code = main(["train", "--sparse", str(corpus_files["train_sparse"]),
                 "--text", str(corpus_files["train_text"]),
                 "--out-dir", str(run), *TINY_FLAGS[2:], "--epochs", "0"])
    assert code == 0
    assert (run / "final.ckpt").exists()
    assert not (run / "epoch001.ckpt").exists()


def test_train_static_mode_recorded(tmp_path, corpus_files):
    run = tmp_path / "run_static"
    code = main(["train", "--sparse", str(corpus_files["train_sparse"]),
                 "--text", str(corpus_files["train_text"]),
                 "--out-dir", str(run), "--sampling", "static", *TINY_FLAGS])
    assert code == 0
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["config"]["sampling_mode"] == "static"
    assert manifest["artifacts"]["static_cache_snapshot"] == "initialized-seed-5"


@pytest.mark.parametrize(
    "flag, name, content, line",
    [
        ("--config", "bad_int.txt", "batch_size=8\nepochs=abc\n", 2),
        ("--config", "bad.json", '{\n  "config": {\n    "epochs": 2,\n  }\n}\n', 4),
        ("--config", "null_config.json", '{"config": null}\n', 1),
        ("--config", "top_level_list.json", "[1, 2]\n", 1),
        ("--config", "float_epochs.json", '{"epochs": 2.5}\n', 1),
        ("--config", "list_hidden.json", '{"hidden": [16]}\n', 1),
        ("--config", "null_epochs.json", '{"epochs": null}\n', 1),
        ("--config", "bool_epochs.json", '{"epochs": true}\n', 1),
        ("--config", "nested_bad_lr.json", '{\n  "tool": "xmc",\n  "config": {\n    "epochs": 2,\n    "learning_rate": "fast"\n  }\n}\n', 5),
        ("--config", "empty_epochs.txt", "epochs=\n", 1),
        ("--config", "maybe_bool.txt", "decay_bias_norm=maybe\n", 1),
        ("--config", "bad_preset.txt", "epochs=2\npreset=nonsense\n", 2),
        ("--clusters", "out_of_range.txt", "2 8 4 0\n0 1 2 3\n4 5 6 9\n", 3),
        ("--clusters", "non_integer.txt", "2 8 4 0\n0 1 x 3\n4 5 6 7\n", 2),
        ("--sparse", "nan.txt", "2 4 2\n0 1:1.0\n1 1:nan\n", 3),
        ("--sparse", "inf.txt", "1 4 2\n0 1:inf\n", 2),
        ("--sparse", "neg_inf.txt", "1 4 2\n0 2:-inf\n", 2),
        ("--ckpt", "vocab.txt", "abc\ntopic0\n", 1),
        pytest.param("--config", "config.txt", b"epochs=2\n\xff\xfe=3\n", 2, id="config-not-utf8"),
        pytest.param("--text", "raw.txt", b"topic0 word\n\xff\xfe bad\n", 2, id="text-not-utf8"),
        pytest.param("--sparse", "sparse.txt", b"2 4 2\n0 1:1.0\n1 1:\xff\n", 3, id="sparse-not-utf8"),
        pytest.param("--sparse", "sparse.txt", "3 4 2\n0 1:1.0\n1 1:2.0\n", 1, id="sparse-row-count"),
        pytest.param("--clusters", "map.txt", b"2 8 4 0\n0 1 2 3\n4 5 \xff 7\n", 3, id="clusters-not-utf8"),
        pytest.param("--clusters", "map.txt", "2 8 4 0\n0 1 2 3\n3 4 5 6 7\n", 3, id="clusters-label-twice"),
        pytest.param("--clusters", "map.txt", "2 8 4 0\n0 1 3 2\n4 5 6 7\n", 2, id="clusters-unsorted"),
        pytest.param("--clusters", "map.txt", "2 8 4 0\n0 1 2\n4 5 6 7\n", 1, id="clusters-label-in-none"),
        pytest.param("--clusters", "map.txt", "3 8 4 0\n0 1 2 3\n\n4 5 6 7\n", 3, id="clusters-empty-cluster"),
        pytest.param("--clusters", "map.txt", "3 -8 4 0\n0\n1\n2\n", 1, id="clusters-negative-label-count"),
        pytest.param("--clusters", "map.txt", "3 8 4 0\n0 1 2 3\n4 5 6 7\n", 1, id="clusters-cluster-count"),
        pytest.param("--ckpt", "vocab.txt", b"1\ntopic0\n\xfftopic1\n", 3, id="vocab-not-utf8"),
        pytest.param("--ckpt", "vocab.txt", "1\ntopic0\ntopic1\ntopic0\n", 4, id="vocab-repeats-token"),
        pytest.param("--text", "raw.txt", "topic0 word\n" * 49, 49, id="text-longer-than-sparse"),
        pytest.param("predict --text", "raw.txt", b"topic0 word\nword \xc3\n", 2, id="predict-text-not-utf8"),
    ],
)
def test_malformed_input_exit_2_with_location(tmp_path, corpus_files, trained_run, capsys, flag, name, content, line):
    bad = tmp_path / name
    bad.write_bytes(content) if isinstance(content, bytes) else bad.write_text(content)
    if flag == "predict --text":
        code = main(["predict", "--ckpt", str(trained_run / "final.ckpt"), "--text", str(bad)])
    elif flag == "--ckpt":
        # predict on a copy of a trained run whose manifest names the damaged vocab
        run = tmp_path / "run"
        shutil.copytree(trained_run, run)
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["artifacts"]["vocab"] = str(bad)
        (run / "manifest.json").write_text(json.dumps(manifest))
        code = main(["predict", "--ckpt", str(run / "final.ckpt"), "--text", str(corpus_files["test_text"])])
    else:
        code = main(["train", "--sparse", str(corpus_files["train_sparse"]),
                     "--text", str(corpus_files["train_text"]),
                     "--out-dir", str(tmp_path / "r"), flag, str(bad), *TINY_FLAGS])
    assert code == 2
    assert f"{bad}:{line}:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--config", "--sparse", "--text", "--clusters"])
def test_directory_input_exit_2(tmp_path, corpus_files, capsys, flag):
    code = main(["train", "--sparse", str(corpus_files["train_sparse"]),
                 "--text", str(corpus_files["train_text"]),
                 "--out-dir", str(tmp_path / "r"), flag, str(tmp_path), *TINY_FLAGS])
    assert code == 2
    assert f"{tmp_path} is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("dev_flag", ["--dev-sparse", "--dev-text"])
def test_dev_flags_go_together(tmp_path, corpus_files, capsys, dev_flag):
    code = main(["train", "--sparse", str(corpus_files["train_sparse"]),
                 "--text", str(corpus_files["train_text"]), dev_flag, str(corpus_files["test_text"]),
                 "--out-dir", str(tmp_path / "r"), *TINY_FLAGS])
    assert code == 2
    assert "--dev-sparse and --dev-text go together" in capsys.readouterr().err


def test_train_missing_out_dir_exit_2(corpus_files):
    code = main(["train", "--sparse", str(corpus_files["train_sparse"]),
                 "--text", str(corpus_files["train_text"]), *TINY_FLAGS])
    assert code == 2


# ---------------------------------------------------------------------------
# predict / eval


def test_predict_writes_scored_lines(tmp_path, trained_run, corpus_files):
    out = tmp_path / "preds.txt"
    code = main(["predict", "--ckpt", str(trained_run / "final.ckpt"),
                 "--text", str(corpus_files["test_text"]),
                 "--out", str(out), "--k", "3"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 16
    first = lines[0].split()
    assert all(":" in part for part in first)
    label, score = first[0].split(":")
    assert 0 <= int(label) < 8
    assert 0.0 < float(score) < 1.0


def test_eval_prints_report(capsys, trained_run, corpus_files):
    code = main(["eval", "--ckpt", str(trained_run / "final.ckpt"),
                 "--sparse", str(corpus_files["test_sparse"]),
                 "--text", str(corpus_files["test_text"])])
    assert code == 0
    out = capsys.readouterr().out
    assert "P@1" in out and "cluster_recall=" in out and "instances=16" in out


def test_eval_ensemble_of_same_run(capsys, trained_run, corpus_files):
    ckpt = str(trained_run / "final.ckpt")
    code = main(["eval", "--ensemble", f"{ckpt},{ckpt}",
                 "--sparse", str(corpus_files["test_sparse"]),
                 "--text", str(corpus_files["test_text"]), "--k", "1,3"])
    assert code == 0
    assert "p1=" in capsys.readouterr().out


@pytest.mark.parametrize("differs", ["vocab", "max_len"])
def test_eval_ensemble_members_share_vocab_and_max_len(tmp_path, trained_run, corpus_files, capsys, differs):
    member = tmp_path / "member"
    if differs == "vocab":
        shutil.copytree(trained_run, member)
        lines = (member / "vocab.txt").read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]  # the same tokens, two ids swapped
        (member / "vocab.txt").write_text("\n".join(lines) + "\n")
        manifest = json.loads((member / "manifest.json").read_text())
        manifest["artifacts"]["vocab"] = str(member / "vocab.txt")
        (member / "manifest.json").write_text(json.dumps(manifest))
    else:
        assert main(["train", "--sparse", str(corpus_files["train_sparse"]), "--text", str(corpus_files["train_text"]),
                     "--out-dir", str(member), *TINY_FLAGS, "--epochs", "0", "--max-len", "8"]) == 0
    code = main(["eval", "--ensemble", f"{trained_run / 'final.ckpt'},{member / 'final.ckpt'}",
                 "--sparse", str(corpus_files["test_sparse"]), "--text", str(corpus_files["test_text"])])
    assert code == 2
    err = capsys.readouterr().err
    assert f"ensemble member {member / 'final.ckpt'}: " in err and differs in err


def test_predict_manifest_records_the_b_top_it_used(tmp_path, trained_run, corpus_files):
    out = tmp_path / "preds.txt"
    assert main(["predict", "--ckpt", str(trained_run / "final.ckpt"), "--text", str(corpus_files["test_text"]),
                 "--out", str(out), "--b-top", "3"]) == 0
    manifest = json.loads((tmp_path / "preds.txt.manifest.json").read_text())
    assert manifest["config"]["b_top"] == 3  # the run trained with 2


@pytest.mark.parametrize("k", ["abc", "", "1,,3"])
def test_eval_malformed_k_exit_2(capsys, trained_run, corpus_files, k):
    code = main(["eval", "--ckpt", str(trained_run / "final.ckpt"),
                 "--sparse", str(corpus_files["test_sparse"]),
                 "--text", str(corpus_files["test_text"]), "--k", k])
    assert code == 2
    assert "--k" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_b_top_zero_is_out_of_range(capsys, trained_run, corpus_files, command):
    inputs = ["--sparse", str(corpus_files["test_sparse"])] if command == "eval" else []
    code = main([command, "--ckpt", str(trained_run / "final.ckpt"), *inputs,
                 "--text", str(corpus_files["test_text"]), "--b-top", "0"])
    assert code == 2
    assert "b_top=0 outside [1, " in capsys.readouterr().err


def test_eval_requires_exactly_one_source(trained_run, corpus_files):
    code = main(["eval", "--sparse", str(corpus_files["test_sparse"]),
                 "--text", str(corpus_files["test_text"])])
    assert code == 2


def test_eval_empty_test_file_exit_2(tmp_path, trained_run):
    empty_sparse = tmp_path / "empty.txt"
    empty_sparse.write_text("0 5 8\n")
    empty_text = tmp_path / "empty_raw.txt"
    empty_text.write_text("")
    code = main(["eval", "--ckpt", str(trained_run / "final.ckpt"),
                 "--sparse", str(empty_sparse), "--text", str(empty_text)])
    assert code == 2


# ---------------------------------------------------------------------------
# config precedence


def test_flags_beat_config_file_beat_preset(tmp_path):
    cfg = tmp_path / "overrides.txt"
    cfg.write_text("epochs=9\nbatch_size=4\n")
    parser = build_parser()
    args = parser.parse_args(
        ["train", "--preset", "eurlex-4k", "--config", str(cfg), "--epochs", "3"]
    )
    config = resolve_train_config(args)
    assert config.epochs == 3  # flag wins
    assert config.batch_size == 4  # file beats preset
    assert config.max_len == 512  # preset survives where not overridden
    assert config.cluster_size == 1


def test_manifest_is_a_valid_config_source(tmp_path, trained_run, corpus_files):
    parser = build_parser()
    args = parser.parse_args(
        ["train", "--config", str(trained_run / "manifest.json")]
    )
    config = resolve_train_config(args)
    assert config.epochs == 2
    assert config.hidden == 16
    assert config.seed == 5  # manifest seed survives when no --seed flag given


def test_manifest_with_retired_rank_target_invert(tmp_path, trained_run):
    manifest = json.loads((trained_run / "manifest.json").read_text())
    parser = build_parser()
    for value, loads in ((False, True), (True, False)):
        manifest["config"]["rank_target_invert"] = value
        path = tmp_path / f"manifest_{value}.json"
        path.write_text(json.dumps(manifest))
        if loads:
            assert resolve_train_config(parser.parse_args(["train", "--config", str(path)])).epochs == 2
        else:
            assert main(["train", "--config", str(path), "--out-dir", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize("key, kept, refused", [
    ("rank_target_invert", [False, "false"], [True, "yes"]),
    ("decay_bias_norm", [False, "False"], [True, 0]),
    ("bottleneck_act", ["sigmoid"], ["relu", "tanh"]),
    ("grad_clip", [5.0, 5, "5"], [None, "none", 1.0]),
])
def test_retired_switch_loads_only_at_its_fixed_value(tmp_path, trained_run, capsys, key, kept, refused):
    manifest = json.loads((trained_run / "manifest.json").read_text())
    expected = resolve_train_config(build_parser().parse_args(["train", "--config", str(trained_run / "manifest.json")]))
    for i, (value, loads) in enumerate([(v, True) for v in kept] + [(v, False) for v in refused]):
        manifest["config"][key] = value
        path = tmp_path / f"manifest_{i}.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        text = tmp_path / f"config_{i}.txt"
        text.write_text(f"epochs=2\n{key}={'none' if value is None else value}\n")
        if loads:
            assert resolve_train_config(build_parser().parse_args(["train", "--config", str(path)])) == expected
            assert resolve_train_config(build_parser().parse_args(["train", "--config", str(text)])).epochs == 2
            continue
        line = next(n for n, text_line in enumerate(path.read_text().splitlines(), 1) if f'"{key}"' in text_line)
        for config, at in ((path, line), (text, 2)):
            assert main(["train", "--config", str(config), "--out-dir", str(tmp_path / "r")]) == 2
            err = capsys.readouterr().err
            assert f"{config}:{at}: {key}=" in err and "no longer supported" in err


def test_run_records_b_top_and_predict_eval_use_it(tmp_path, corpus_files, capsys):
    run = tmp_path / "run"
    flags = TINY_FLAGS[2:4] + TINY_FLAGS[6:]  # no --epochs, no --b-top
    assert main(["train", "--sparse", str(corpus_files["train_sparse"]), "--text", str(corpus_files["train_text"]),
                 "--out-dir", str(run), "--epochs", "1", *flags]) == 0
    logged = int(re.search(r"b_top=(\d+)", capsys.readouterr().out).group(1))
    assert json.loads((run / "manifest.json").read_text())["config"]["b_top"] == logged
    ckpt = ["--ckpt", str(run / "final.ckpt")]
    outputs = []
    for b_top in ([], ["--b-top", str(logged)]):
        assert main(["predict", *ckpt, "--text", str(corpus_files["test_text"]), *b_top]) == 0
        assert main(["eval", *ckpt, "--sparse", str(corpus_files["test_sparse"]),
                     "--text", str(corpus_files["test_text"]), *b_top]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_null_b_top_manifest_needs_the_flag(tmp_path, trained_run, corpus_files, capsys, command):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["config"]["b_top"] = None  # as written before runs recorded it
    (run / "manifest.json").write_text(json.dumps(manifest))
    inputs = ["--sparse", str(corpus_files["test_sparse"])] if command == "eval" else []
    args = [command, "--ckpt", str(run / "final.ckpt"), *inputs, "--text", str(corpus_files["test_text"])]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert str(run / "manifest.json") in err and "--b-top" in err
    assert main([*args, "--b-top", "2"]) == 0


def test_preset_values_resolved():
    parser = build_parser()
    args = parser.parse_args(["train", "--preset", "eurlex-4k"])
    config = resolve_train_config(args)
    assert (config.epochs, config.batch_size, config.max_len) == (20, 16, 512)


def test_unknown_config_key_exit_2(tmp_path, corpus_files):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("warp_speed=9\n")
    code = main(["train", "--config", str(cfg),
                 "--sparse", str(corpus_files["train_sparse"]),
                 "--text", str(corpus_files["train_text"]),
                 "--out-dir", str(tmp_path / "r")])
    assert code == 2


def test_config_file_preset_applies_beneath_its_values(tmp_path):
    cfg = tmp_path / "preset.txt"
    cfg.write_text("preset=eurlex-4k\nepochs=3\n")
    config = resolve_train_config(build_parser().parse_args(["train", "--config", str(cfg)]))
    assert config.preset == "eurlex-4k"
    assert config.epochs == 3  # the file's value beats its preset
    assert (config.max_len, config.cluster_size) == (512, 1)  # the preset applies where the file is silent
    flagged = resolve_train_config(build_parser().parse_args(["train", "--config", str(cfg), "--preset", "synth-64"]))
    assert (flagged.preset, flagged.epochs, flagged.max_len) == ("synth-64", 3, 16)  # --preset beats the file's


_HINTS = typing.get_type_hints(TrainConfig)
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_CONFIG_VALUES = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), _TEXT, st.lists(st.integers(), max_size=2),
    st.integers().map(str), st.floats().map(str),
    st.sampled_from([*PRESETS, "dynamic", "static", "sigmoid", "relu", "true", "false", "none", "yes"]),
)


def _has_declared_type(value, hint) -> bool:
    if typing.get_origin(hint) is typing.Literal:
        return value in typing.get_args(hint)
    return type(value) in (typing.get_args(hint) or (hint,))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    entries=st.lists(st.tuples(st.sampled_from([f.name for f in fields(TrainConfig)]) | _TEXT, _CONFIG_VALUES),
                     max_size=5),
    form=st.sampled_from(["key=value", "flat json", "manifest json"]),
)
def test_config_file_values_are_typed_or_located(tmp_path, entries, form):
    if form == "key=value":
        path = tmp_path / "config.txt"
        path.write_text("".join(f"{k}={'none' if v is None else v if isinstance(v, str) else json.dumps(v)}\n"
                                for k, v in entries), encoding="utf-8")
    else:
        path = tmp_path / "config.json"
        block = dict(entries)
        path.write_text(json.dumps({"config": block} if form == "manifest json" else block, indent=2))
    try:
        config = resolve_train_config(build_parser().parse_args(["train", "--config", str(path)]))
    except UsageError as exc:
        assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), str(exc)
    else:
        for name, hint in _HINTS.items():
            assert _has_declared_type(getattr(config, name), hint), (name, getattr(config, name))


# ---------------------------------------------------------------------------
# flag surface

_TRAIN_SURFACE = {
    "--seed": (int, None, "_StoreAction"),
    "--verify": (None, None, "_StoreTrueAction"),
    "--config": (None, None, "_StoreAction"),
    "--preset": (None, sorted(PRESETS), "_StoreAction"),
    "--sparse": (None, None, "_StoreAction"),
    "--text": (None, None, "_StoreAction"),
    "--dev-sparse": (None, None, "_StoreAction"),
    "--dev-text": (None, None, "_StoreAction"),
    "--synth": (None, None, "_StoreTrueAction"),
    "--out-dir": (None, None, "_StoreAction"),
    "--epochs": (int, None, "_StoreAction"),
    "--batch-size": (int, None, "_StoreAction"),
    "--b-top": (int, None, "_StoreAction"),
    "--embed-dim": (int, None, "_StoreAction"),
    "--max-size": (int, None, "_StoreAction"),
    "--max-len": (int, None, "_StoreAction"),
    "--lr": (float, None, "_StoreAction"),
    "--weight-decay": (float, None, "_StoreAction"),
    "--dropout": (float, None, "_StoreAction"),
    "--sampling": (None, ["dynamic", "static"], "_StoreAction"),
    "--swa-start": (int, None, "_StoreAction"),
    "--hidden": (int, None, "_StoreAction"),
    "--layers": (int, None, "_StoreAction"),
    "--heads": (int, None, "_StoreAction"),
    "--ff-dim": (int, None, "_StoreAction"),
    "--concat-layers": (int, None, "_StoreAction"),
    "--block-dropout": (float, None, "_StoreAction"),
    "--min-freq": (int, None, "_StoreAction"),
}


def test_flag_surface_is_frozen():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    surface = {
        name: {
            opt: (a.type, sorted(a.choices) if a.choices else None, type(a).__name__)
            for a in sub._actions if not isinstance(a, argparse._HelpAction) for opt in a.option_strings
        }
        for name, sub in commands.items()
    }
    assert surface["train"] == {**_TRAIN_SURFACE, "--clusters": (None, None, "_StoreAction")}
    assert surface["ablate"] == _TRAIN_SURFACE
    # flags no command reads are gone: --config outside train/ablate, --seed on
    # predict/eval, --max-len on cluster
    assert set(surface["cluster"]) == {"--seed", "--verify", "--sparse", "--max-size", "--out"}
    assert set(surface["predict"]) == {"--verify", "--ckpt", "--text", "--out", "--k", "--b-top", "--weights"}
    assert set(surface["eval"]) == {"--verify", "--ckpt", "--ensemble", "--sparse", "--text", "--k", "--b-top",
                                    "--weights"}
    assert set(surface["gradcheck"]) == {"--seed", "--verify"}


# ---------------------------------------------------------------------------
# gradcheck (verify-mode, slowish but bounded)


def test_gradcheck_command_passes(capsys):
    import xmc.tensor as t

    code = main(["gradcheck", "--seed", "0"])
    t.set_verify_mode(False)  # restore fast mode for other tests
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


@pytest.mark.slow
def test_gradcheck_without_seed_is_reproducible(capsys):
    import xmc.tensor as t

    runs = []
    for _ in range(2):
        code = main(["gradcheck"])
        t.set_verify_mode(False)
        assert code == 0
        runs.append(capsys.readouterr().out.splitlines()[:2])  # the last line holds the wall time
    assert runs[0] == runs[1]
