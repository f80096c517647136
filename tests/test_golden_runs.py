"""Golden digests of whole CLI runs: a refactor that claims unchanged behaviour
must leave every one of them as it is.

The test runs ``xmc.cli.main`` in this process on the synth-64 preset (seed 7,
2 epochs) in fast, ``--verify`` and ``--sampling static`` mode.  For each run
it also predicts with ``--weights auto`` and ``raw``, and evaluates with
``--ckpt`` and with a 2-member ``--ensemble final,epoch001``; last comes
``xmc gradcheck``.  It hashes with sha256:

- ``clusters.txt``, ``vocab.txt`` and every checkpoint, one digest per record;
- ``metrics.log`` without its ``wall_ms`` fields;
- the predict files and the eval output;
- the two gradcheck error lines (not the elapsed time).

numpy's version, its BLAS configuration and the SIMD extensions it detected
are stored with the digests: OpenBLAS built with DYNAMIC_ARCH picks its
kernels by CPU, so another build or host may round differently, and a failure
message names both builds.

Rule: the digests in ``tests/data/golden_runs.json`` are regenerated only by a
change whose title and CHANGES.md entry say that it changes the numerics, and
why.  Regenerate them with ``PYTHONPATH=src python tests/test_golden_runs.py``.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as conftest.py pins it for pytest

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np

from xmc import tensor as t
from xmc.checkpoint import load_checkpoint
from xmc.cli import main

GOLDEN_RUNS = Path(__file__).parent / "data" / "golden_runs.json"
MODES = {"fast": [], "verify": ["--verify"], "static": ["--sampling", "static"]}


def build_info() -> dict:
    """numpy's version, BLAS configuration and detected SIMD extensions."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "simd": config["SIMD Extensions"],
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(*argv: str) -> str:
    """Run one xmc command in this process; its stdout, after asserting exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, f"xmc {' '.join(argv)} exited {code}"
    return out.getvalue()


def _checkpoint(path: Path) -> dict[str, str]:
    return {name: _sha(f"{arr.shape}".encode() + arr.tobytes()) for name, arr in load_checkpoint(path).items()}


def golden_runs(work: Path) -> dict:
    """Every artifact digest of the run list, in the order the runs make them."""
    digests: dict = {}
    before = t.verify_enabled()
    try:
        for mode, flags in MODES.items():
            run = work / mode
            verify = ["--verify"] if mode == "verify" else []  # predict and eval in the run's numerics
            _cli("train", "--synth", "--preset", "synth-64", "--seed", "7", "--epochs", "2",
                 "--out-dir", str(run), *flags)
            for name in ("clusters.txt", "vocab.txt"):
                digests[f"{mode}/{name}"] = _sha((run / name).read_bytes())
            for ckpt in sorted(run.glob("*.ckpt")):
                digests[f"{mode}/{ckpt.name}"] = _checkpoint(ckpt)
            metrics = re.sub(r" wall_ms=\S+", "", (run / "metrics.log").read_text(encoding="utf-8"))
            digests[f"{mode}/metrics.log"] = _sha(metrics.encode())
            test_sparse, test_text = str(run / "data" / "test.txt"), str(run / "data" / "test_raw.txt")
            for weights in ("auto", "raw"):
                out = work / f"{mode}_predict_{weights}.txt"
                _cli("predict", "--ckpt", str(run / "final.ckpt"), "--text", test_text,
                     "--weights", weights, "--out", str(out), *verify)
                digests[f"{mode}/predict --weights {weights}"] = _sha(out.read_bytes())
            for source in (["--ckpt", str(run / "final.ckpt")],
                           ["--ensemble", f"{run / 'final.ckpt'},{run / 'epoch001.ckpt'}"]):
                printed = _cli("eval", *source, "--sparse", test_sparse, "--text", test_text, *verify)
                digests[f"{mode}/eval {source[0]}"] = _sha(printed.encode())
            t.set_verify_mode(before)
        lines = _cli("gradcheck").splitlines()
        digests["gradcheck"] = _sha("\n".join(line for line in lines if "max rel err" in line).encode())
    finally:
        t.set_verify_mode(before)
    return digests


def _first_difference(stored: dict, current: dict) -> str | None:
    for name in list(stored) + [n for n in current if n not in stored]:
        want, got = stored.get(name), current.get(name)
        if want == got:
            continue
        if isinstance(want, dict) and isinstance(got, dict):
            records = list(want) + [r for r in got if r not in want]
            record = next(r for r in records if want.get(r) != got.get(r))
            return f"{name}, record {record!r}"
        return name
    return None


def test_cli_runs_match_their_golden_digests(tmp_path):
    golden = json.loads(GOLDEN_RUNS.read_text(encoding="utf-8"))
    differs = _first_difference(golden["artifacts"], golden_runs(tmp_path))
    assert differs is None, (
        f"{differs} differs from {GOLDEN_RUNS.name}; digests stored on build {golden['build']}, "
        f"this run is on build {build_info()}"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        payload = {"build": build_info(), "artifacts": golden_runs(Path(work))}
    GOLDEN_RUNS.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(payload['artifacts'])} artifact digests to {GOLDEN_RUNS}")
