"""Smoke test of the benchmark: tiny variants of every workload, in seconds.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["synth64-tiny", "wide32k-tiny", "longdoc-tiny"])
def test_tiny_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert any(line.startswith("[ops]") and "failed_share=0.0" in line for line in lines)
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name


def test_missing_span_is_an_error():
    sys.path.insert(0, str(HERE))
    import run
    import spans

    tracer = spans.Tracer()
    tracer.step_id = 0
    tracer.close(tracer.open("trainer.train_step"))
    with pytest.raises(SystemExit, match="expected span corpus.build_vocab has zero calls"):
        run.layer_metrics(tracer, run.StepLog(), lambda *_: None)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails without a result."""
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "synth64-tiny", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
