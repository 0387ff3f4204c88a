#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workload small-msgs ...] [--trace 1]
                               [--seconds 20] [--out perfbench/baseline.json]

Runs perfbench/run.py once per (workload, seed), one at a time. For every
metric it prints the median of the runs and the spread: the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of the
median. End-to-end metrics are compared with their bound in BENCHMARK.json;
the spread should stay below a third of it. Exits 1 if a run fails or
reports a failed op.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf"), "values": values}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    seeds = parse_seeds(args.seeds)

    summary = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    bad = False
    for workload in workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        summary["meta"] = {k: runs[0][0][k] for k in
                           ("nproc", "cpu_model", "python", "numpy", "cryptography")}
        failed = sum(r["failed"] for _, r in runs)
        bad |= failed > 0 or not all(r["correct"] for _, r in runs)
        rows = {}
        print(f"{workload}: {len(runs)} runs, {failed} failed ops of "
              f"{sum(r['attempted'] for _, r in runs)}")
        for name, first in runs[0][1]["metrics"].items():
            row = summarize([r["metrics"][name]["value"] for _, r in runs])
            row["unit"] = first["unit"]
            rows[name] = row
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = ("ok" if row["spread"] < bound / 3
                           else "within bound" if row["spread"] <= bound else "TOO WIDE")
            print(f"  {name:26} {row['median']:>14.6g} {row['unit']:7} "
                  f"spread {row['spread']:7.2%}  {verdict}")
        summary["workloads"][workload] = rows
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
