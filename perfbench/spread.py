#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload synth64 --seeds 1-10 --out spread.json

For every metric it reports the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
interquartile distance as a share of the median.  The raw result line of
every run is kept in the output too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarise(runs: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    out = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        median = statistics.median(vals)
        out[name] = {
            "unit": units[name],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "n": len(vals),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        started = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(seed=seed, wall_s=wall)
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} wall_s={wall:.1f}", flush=True)

    summary = summarise(runs)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:40s} median={s['median']:.6g} {s['unit']:8s} spread={spread}")
    args.out.write_text(json.dumps({"workload": args.workload, "trace": args.trace, "seconds": seconds,
                                    "summary": summary, "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
