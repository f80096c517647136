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

from xmc import cli
from xmc.cli import main, resolve_train_config, build_parser
from xmc.cluster import ClusterMap
from xmc.errors import ConfigError, UsageError
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


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cluster_max_size_below_one_exit_2_naming_the_flag(tmp_path, capsys, value):
    # the flag is checked before the sparse file is looked for
    out = tmp_path / "map.txt"
    assert main(["cluster", "--sparse", str(tmp_path / "absent.txt"), "--max-size", value, "--out", str(out)]) == 2
    assert f"--max-size: cluster_size must be finite and > 0, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["cluster", "gradcheck"])
def test_negative_seed_exit_2_naming_the_flag(tmp_path, corpus_files, capsys, command):
    import xmc.tensor as t

    extra = (["--sparse", str(corpus_files["train_sparse"]), "--max-size", "2", "--out", str(tmp_path / "m.txt")]
             if command == "cluster" else [])
    assert main([command, "--seed", "-1", *extra]) == 2
    assert "--seed: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not t.verify_enabled() and not (tmp_path / "m.txt").exists()


# each output flag that cannot be written: (command, flag, path under tmp_path, what follows
# "<flag> <path>: " in the message, with {tmp} for tmp_path).  Every input given is broken, so a
# run that read one first would fail naming that input instead.
_BAD_OUTPUTS = {
    "cluster-out-no-folder": ("cluster", "--out", "nodir/map.txt", "no directory {tmp}/nodir"),
    "cluster-out-folder": ("cluster", "--out", "folder", "is a directory"),
    "predict-out-no-folder": ("predict", "--out", "nodir/preds.txt", "no directory {tmp}/nodir"),
    "predict-out-folder": ("predict", "--out", "folder", "is a directory"),
    "train-out-dir-file": ("train", "--out-dir", "file.txt", "{tmp}/file.txt is not a directory"),
    "train-out-dir-under-file": ("train", "--out-dir", "file.txt/run", "{tmp}/file.txt is not a directory"),
    "ablate-out-dir-file": ("ablate", "--out-dir", "file.txt", "{tmp}/file.txt is not a directory"),
}


@pytest.mark.parametrize("command, flag, name, message", _BAD_OUTPUTS.values(), ids=_BAD_OUTPUTS)
def test_unwritable_output_exit_2_before_reading_inputs(tmp_path, capsys, command, flag, name, message):
    (tmp_path / "folder").mkdir()
    (tmp_path / "file.txt").write_text("not a folder\n")
    broken = tmp_path / "broken.txt"
    broken.write_text("epochs=abc\n2 x\n")
    inputs = {"cluster": ["--sparse", str(broken), "--max-size", "2"],
              "predict": ["--ckpt", str(tmp_path / "absent.ckpt"), "--text", str(broken)],
              "train": ["--config", str(broken), "--synth"],
              "ablate": ["--config", str(broken), "--synth"]}[command]
    assert main([command, *inputs, flag, str(tmp_path / name)]) == 2
    assert capsys.readouterr().err == f"error: {flag} {tmp_path / name}: {message.format(tmp=tmp_path)}\n"
    assert (tmp_path / "file.txt").is_file() and not list((tmp_path / "folder").iterdir())


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
        pytest.param("--config", "heads.txt", "epochs=1\nn_heads=0\n", 2, id="config-heads-0"),
        pytest.param("--config", "hidden.json", '{\n  "hidden": 0\n}\n', 2, id="config-hidden-0"),
        pytest.param("--config", "ff.txt", "ff_dim=0\n", 1, id="config-ff-dim-0"),
        pytest.param("--config", "embed.json", '{"config": {"embed_dim": 0}}\n', 1, id="config-embed-dim-0"),
        pytest.param("--config", "epochs.txt", "epochs=-1\n", 1, id="config-epochs-negative"),
        pytest.param("--config", "lr.txt", "learning_rate=-1\n", 1, id="config-lr-negative"),
        pytest.param("--config", "lr.json", '{\n  "epochs": 1,\n  "learning_rate": NaN\n}\n', 3, id="config-lr-nan"),
        pytest.param("--config", "dropout.txt", "dropout=1.0\n", 1, id="config-dropout-1"),
        pytest.param("--config", "max_len.txt", "epochs=1\nmax_len=1\n", 2, id="config-max-len-1"),
        # a flag's value is checked as a config file's is; the error names the flag
        pytest.param("--heads", None, "0", None, id="flag-heads-0"),
        pytest.param("--hidden", None, "0", None, id="flag-hidden-0"),
        pytest.param("--ff-dim", None, "0", None, id="flag-ff-dim-0"),
        pytest.param("--embed-dim", None, "0", None, id="flag-embed-dim-0"),
        pytest.param("--epochs", None, "-1", None, id="flag-epochs-negative"),
        pytest.param("--lr", None, "-1", None, id="flag-lr-negative"),
        pytest.param("--lr", None, "nan", None, id="flag-lr-nan"),
        pytest.param("--max-len", None, "1", None, id="flag-max-len-1"),
        # ablate's loss curves need an epoch; train accepts 0
        pytest.param("ablate --epochs", None, "0", None, id="ablate-flag-epochs-0"),
    ],
)
def test_malformed_input_exit_2_with_location(tmp_path, corpus_files, trained_run, capsys, flag, name, content, line):
    command, _, flag = flag.rpartition(" ")  # "train" unless the case names its command
    if name is None:  # ``content`` is the flag's value, given after TINY_FLAGS so that it wins
        code = main([command or "train", "--sparse", str(corpus_files["train_sparse"]),
                     "--text", str(corpus_files["train_text"]), "--out-dir", str(tmp_path / "r"), *TINY_FLAGS,
                     flag, content])
        assert code == 2
        assert f"error: {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "r").exists()  # rejected before the run wrote anything
        return
    bad = tmp_path / name
    bad.write_bytes(content) if isinstance(content, bytes) else bad.write_text(content)
    if command == "predict":
        code = main(["predict", "--ckpt", str(trained_run / "final.ckpt"), "--text", str(bad)])
    elif flag == "--ckpt":
        # predict on a copy of a trained run whose vocab.txt is the damaged one
        run = tmp_path / "run"
        shutil.copytree(trained_run, run)
        bad = shutil.copyfile(bad, run / "vocab.txt")
        code = main(["predict", "--ckpt", str(run / "final.ckpt"), "--text", str(corpus_files["test_text"])])
    else:
        code = main([command or "train", "--sparse", str(corpus_files["train_sparse"]),
                     "--text", str(corpus_files["train_text"]),
                     "--out-dir", str(tmp_path / "r"), flag, str(bad), *TINY_FLAGS])
    assert code == 2
    assert f"{bad}:{line}:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--config", "--sparse", "--text", "--clusters", "predict --ckpt", "eval --ensemble"])
def test_directory_input_exit_2(tmp_path, corpus_files, trained_run, capsys, flag):
    command, _, flag = flag.rpartition(" ")
    bad = tmp_path
    if command:  # a directory named like a checkpoint, next to a run's manifest
        run = tmp_path / "run"
        shutil.copytree(trained_run, run)
        bad = run / "dir.ckpt"
        bad.mkdir()
        ckpts = str(bad) if flag == "--ckpt" else f"{run / 'final.ckpt'},{bad}"
        test_sparse = ["--sparse", str(corpus_files["test_sparse"])] if command == "eval" else []
        code = main([command, flag, ckpts, "--text", str(corpus_files["test_text"]), *test_sparse])
    else:
        code = main(["train", "--sparse", str(corpus_files["train_sparse"]),
                     "--text", str(corpus_files["train_text"]),
                     "--out-dir", str(tmp_path / "r"), flag, str(tmp_path), *TINY_FLAGS])
    assert code == 2
    assert f"{bad} is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--dev-sparse", "--clusters"])
def test_label_count_differs_from_training_set_exit_2_before_writing(tmp_path, corpus_files, capsys, flag):
    """A dev set or cluster map over another label count is refused at its
    header before training starts and before vocab.txt is written."""
    feature_dim = corpus_files["train_sparse"].read_text().split("\n", 1)[0].split()[1]
    if flag == "--dev-sparse":
        bad = tmp_path / "dev.txt"
        bad.write_text(f"2 {feature_dim} 20\n0 1:1.0\n12 2:1.0\n")  # label 12 is outside the training set's 8
        (tmp_path / "dev_raw.txt").write_text("topic0 word\ntopic1 word\n")
        extra, labels = ["--dev-sparse", str(bad), "--dev-text", str(tmp_path / "dev_raw.txt")], 20
    else:
        bad = tmp_path / "map.txt"
        bad.write_text("2 4 2 0\n0 1\n2 3\n")
        extra, labels = ["--clusters", str(bad)], 4
    out_dir = tmp_path / "r"
    code = main(["train", "--sparse", str(corpus_files["train_sparse"]), "--text", str(corpus_files["train_text"]),
                 *extra, "--out-dir", str(out_dir), *TINY_FLAGS])
    assert code == 2
    assert f"error: {bad}:1: header says {labels} labels, the training set has 8" in capsys.readouterr().err
    assert not (out_dir / "vocab.txt").exists()


def test_synth_cluster_map_label_count_exit_2_before_writing(tmp_path, capsys):
    """A --clusters map over another label count than the generated corpus's is refused
    before the corpus is written to the out-dir."""
    bad = tmp_path / "map.txt"
    bad.write_text("2 4 2 0\n0 1\n2 3\n")
    out_dir = tmp_path / "r"
    assert main(["train", "--synth", "--preset", "synth-64", "--clusters", str(bad), "--out-dir", str(out_dir)]) == 2
    assert f"error: {bad}:1: header says 4 labels, the training set has 64" in capsys.readouterr().err
    assert not (out_dir / "data").exists() and not (out_dir / "vocab.txt").exists()


@pytest.mark.parametrize("command, source", [("train", "flag"), ("train", "config"), ("ablate", "flag")])
def test_b_top_above_cluster_count_names_its_source(tmp_path, capsys, command, source):
    """synth-64 has K = 8 clusters.  With --clusters, b_top is refused before anything is
    written; without, once the map is built, before vocab.txt is written."""
    config = tmp_path / "c.txt"
    config.write_text("b_top=99\n")
    given = ["--b-top", "99"] if source == "flag" else ["--config", str(config)]
    clusters = tmp_path / "m8.txt"
    clusters.write_text("8 64 8 0\n" + "".join(" ".join(map(str, range(c * 8, c * 8 + 8))) + "\n" for c in range(8)))
    with_map = ["--clusters", str(clusters)] if (command, source) == ("train", "flag") else []
    out_dir = tmp_path / "r"
    assert main([command, "--synth", "--preset", "synth-64", *given, *with_map, "--out-dir", str(out_dir)]) == 2
    at = "--b-top" if source == "flag" else f"{config}:1"
    assert f"error: {at}: b_top=99 outside [1, 8]" in capsys.readouterr().err
    assert not (out_dir / "vocab.txt").exists()
    if with_map:
        assert not out_dir.exists()


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


@pytest.mark.parametrize("source", ["flags", "config"])
def test_hidden_not_divisible_by_heads_exit_2_before_writing(tmp_path, capsys, source):
    cfg = tmp_path / "dims.txt"
    cfg.write_text("epochs=1\nhidden=10\nn_heads=3\n")
    dims = ["--hidden", "10", "--heads", "3"] if source == "flags" else ["--config", str(cfg)]
    out_dir = tmp_path / "rh"
    assert main(["train", "--synth", "--preset", "synth-64", *dims, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    want = ("--hidden:", "(set at --heads)") if source == "flags" else (f"{cfg}:2:", f"(set at {cfg}:3)")
    assert all(part in err for part in want), err
    assert not out_dir.exists()


def test_concat_layers_recorded_as_used(tmp_path, corpus_files):
    """A 2-layer run asked for 9 concatenated layers uses, and records, 2; the
    clamp changes no weight, and a manifest that still says 9 loads."""
    base = ["train", "--sparse", str(corpus_files["train_sparse"]), "--text", str(corpus_files["train_text"]),
            *TINY_FLAGS, "--epochs", "1"]
    for concat in ("9", "2"):
        assert main([*base, "--concat-layers", concat, "--out-dir", str(tmp_path / concat)]) == 0
    manifest = json.loads((tmp_path / "9" / "manifest.json").read_text())
    assert manifest["config"]["concat_layers"] == 2
    assert (tmp_path / "9" / "final.ckpt").read_bytes() == (tmp_path / "2" / "final.ckpt").read_bytes()
    manifest["config"]["concat_layers"] = 9  # as an older run recorded it
    (tmp_path / "9" / "manifest.json").write_text(json.dumps(manifest))
    preds = []
    for run in ("9", "2"):
        out = tmp_path / f"preds{run}.txt"
        assert main(["predict", "--ckpt", str(tmp_path / run / "final.ckpt"),
                     "--text", str(corpus_files["test_text"]), "--out", str(out)]) == 0
        preds.append(out.read_bytes())
    assert preds[0] == preds[1]


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


@pytest.mark.parametrize("members, empty", [("{a},", 2), (",{a}", 1), ("{a},,{a}", 2)])
def test_eval_ensemble_empty_member_exit_2_naming_it(capsys, trained_run, corpus_files, members, empty):
    code = main(["eval", "--ensemble", members.format(a=trained_run / "final.ckpt"),
                 "--sparse", str(corpus_files["test_sparse"]), "--text", str(corpus_files["test_text"])])
    assert code == 2
    assert capsys.readouterr().err == f"error: --ensemble: member {empty} is empty\n"


@pytest.mark.parametrize("differs", ["vocab", "max_len"])
def test_eval_ensemble_members_share_vocab_and_max_len(tmp_path, trained_run, corpus_files, capsys, differs):
    member = tmp_path / "member"
    if differs == "vocab":
        shutil.copytree(trained_run, member)
        lines = (member / "vocab.txt").read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]  # the same tokens, two ids swapped
        (member / "vocab.txt").write_text("\n".join(lines) + "\n")
    else:
        assert main(["train", "--sparse", str(corpus_files["train_sparse"]), "--text", str(corpus_files["train_text"]),
                     "--out-dir", str(member), *TINY_FLAGS, "--epochs", "0", "--max-len", "8"]) == 0
    code = main(["eval", "--ensemble", f"{trained_run / 'final.ckpt'},{member / 'final.ckpt'}",
                 "--sparse", str(corpus_files["test_sparse"]), "--text", str(corpus_files["test_text"])])
    assert code == 2
    err = capsys.readouterr().err
    assert f"ensemble member {member / 'final.ckpt'}: " in err and differs in err


def test_run_directory_is_read_from_another_cwd_and_after_a_move(tmp_path, corpus_files, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--sparse", str(corpus_files["train_sparse"]), "--text", str(corpus_files["train_text"]),
                 "--out-dir", "runs/a", *TINY_FLAGS, "--epochs", "1"]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path / "runs")
    outputs = []
    for run in ("a", "b"):
        if run == "b":
            (tmp_path / "runs" / "a").rename(tmp_path / "runs" / "b")
        assert main(["predict", "--ckpt", f"{run}/final.ckpt", "--text", str(corpus_files["test_text"])]) == 0
        assert main(["eval", "--ckpt", f"{run}/final.ckpt", "--sparse", str(corpus_files["test_sparse"]),
                     "--text", str(corpus_files["test_text"])]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and "P@1" in outputs[0]


def test_predict_manifest_records_the_b_top_it_used(tmp_path, trained_run, corpus_files):
    out = tmp_path / "preds.txt"
    assert main(["predict", "--ckpt", str(trained_run / "final.ckpt"), "--text", str(corpus_files["test_text"]),
                 "--out", str(out), "--b-top", "3"]) == 0
    manifest = json.loads((tmp_path / "preds.txt.manifest.json").read_text())
    assert manifest["config"]["b_top"] == 3  # the run trained with 2


@pytest.mark.parametrize("flags, fail_mid_write", [(["--k", "0"], False), (["--b-top", "999"], False), ([], True)],
                         ids=["k-0", "b-top-999", "mid-write"])
def test_failed_predict_leaves_old_out_untouched(tmp_path, trained_run, corpus_files, monkeypatch, flags,
                                                 fail_mid_write):
    out = tmp_path / "preds.txt"
    out.write_bytes(b"old predictions\n")
    if fail_mid_write:
        real = cli.predict_batch
        calls = []

        def fail_on_second_batch(*args, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                raise ConfigError("injected failure after the first batch was written")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "BATCH_SIZE", 4)
        monkeypatch.setattr(cli, "predict_batch", fail_on_second_batch)
    code = main(["predict", "--ckpt", str(trained_run / "final.ckpt"), "--text", str(corpus_files["test_text"]),
                 "--out", str(out), *flags])
    assert code == 2
    assert out.read_bytes() == b"old predictions\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["preds.txt"]


@pytest.mark.parametrize("k", ["abc", "", "1,,3", "0", "1,0"])
def test_eval_malformed_k_exit_2(capsys, trained_run, corpus_files, k):
    code = main(["eval", "--ckpt", str(trained_run / "final.ckpt"),
                 "--sparse", str(corpus_files["test_sparse"]),
                 "--text", str(corpus_files["test_text"]), "--k", k])
    assert code == 2
    assert "--k" in capsys.readouterr().err


def test_predict_k_zero_names_the_flag(capsys, trained_run, corpus_files):
    code = main(["predict", "--ckpt", str(trained_run / "final.ckpt"),
                 "--text", str(corpus_files["test_text"]), "--k", "0"])
    assert code == 2
    assert "error: --k: k must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "eval", "ensemble"])
def test_b_top_zero_is_out_of_range(tmp_path, capsys, trained_run, command):
    # refused before the inputs are read: reading this file would fail with its own location
    unread = tmp_path / "unread.txt"
    unread.write_bytes(b"\xff\xfe\n")
    ckpt = str(trained_run / "final.ckpt")
    source = ["--ensemble", f"{ckpt},{ckpt}"] if command == "ensemble" else ["--ckpt", ckpt]
    inputs = ["--sparse", str(unread)] if command != "predict" else []
    argv = ["predict" if command == "predict" else "eval", *source, *inputs, "--text", str(unread)]
    k = ClusterMap.load(trained_run / "clusters.txt").num_clusters
    assert main([*argv, "--b-top", "0"]) == 2
    assert f"error: --b-top: b_top=0 outside [1, {k}]" in capsys.readouterr().err
    # above K: refused for one checkpoint, while each ensemble member clamps it to its own K
    assert main([*argv, "--b-top", str(k + 1)]) == 2
    err = capsys.readouterr().err
    if command == "ensemble":
        assert "outside" not in err and f"error: {unread}:1:" in err
    else:
        assert f"error: --b-top: b_top={k + 1} outside [1, {k}]" in err


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_manifest_b_top_out_of_range_names_the_manifest(tmp_path, trained_run, capsys, command):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    k = ClusterMap.load(run / "clusters.txt").num_clusters
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["config"]["b_top"] = k + 1
    (run / "manifest.json").write_text(json.dumps(manifest))
    unread = tmp_path / "unread.txt"
    unread.write_bytes(b"\xff\xfe\n")
    inputs = ["--sparse", str(unread)] if command == "eval" else []
    assert main([command, "--ckpt", str(run / "final.ckpt"), *inputs, "--text", str(unread)]) == 2
    assert f"error: {run / 'manifest.json'}: b_top={k + 1} outside [1, {k}]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "eval", "ensemble"])
def test_weights_swa_without_swa_records_exit_2(tmp_path, capsys, trained_run, command):
    # per-epoch checkpoints hold the raw weights only; final.ckpt adds the SWA records
    raw_only = trained_run / "epoch001.ckpt"
    # refused before the inputs are read: reading this file would fail with its own location
    unread = tmp_path / "unread.txt"
    unread.write_bytes(b"\xff\xfe\n")
    if command == "predict":
        argv = ["predict", "--ckpt", str(raw_only), "--text", str(unread)]
    else:
        source = ["--ckpt", str(raw_only)] if command == "eval" else [
            "--ensemble", f"{trained_run / 'final.ckpt'},{raw_only}"]
        argv = ["eval", *source, "--sparse", str(unread), "--text", str(unread)]
    code = main([*argv, "--weights", "swa"])
    assert code == 2
    assert f"error: --weights swa: {raw_only} has no SWA records" in capsys.readouterr().err


def test_eval_label_count_differs_names_the_header(tmp_path, capsys, trained_run):
    sparse = tmp_path / "test.txt"
    sparse.write_text("2 4 70\n0 1:1.0\n65 2:1.0\n")
    text = tmp_path / "test_raw.txt"
    text.write_text("topic0 word\ntopic1 word\n")
    code = main(["eval", "--ckpt", str(trained_run / "final.ckpt"), "--sparse", str(sparse), "--text", str(text)])
    assert code == 2
    assert f"error: {sparse}:1: header says 70 labels, the model has 8" in capsys.readouterr().err


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
    ("weight_decay", [0.01, "0.01"], [0.0, "0.1", None]),
    ("block_dropout", [0.1, "0.1"], [0.0, 0.2, "none"]),
    ("swa_start_epoch", [None, "none", ""], [1, "2"]),
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
    "--dropout": (float, None, "_StoreAction"),
    "--sampling": (None, ["dynamic", "static"], "_StoreAction"),
    "--hidden": (int, None, "_StoreAction"),
    "--layers": (int, None, "_StoreAction"),
    "--heads": (int, None, "_StoreAction"),
    "--ff-dim": (int, None, "_StoreAction"),
    "--concat-layers": (int, None, "_StoreAction"),
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
