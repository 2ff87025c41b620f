#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 0-9 --out perfbench/baseline.json
    python3 perfbench/collect.py --seeds 10-19 --against perfbench/baseline.json

For every workload in BENCHMARK.json and every seed it runs `run.py
--trace 0` for the file's `run_seconds` and reports, per end-to-end metric,
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound. One `--trace 1` run per
workload, at seed TRACE_SEED, adds the per-layer split. `--against`
compares medians with an earlier summary: a metric that got worse by more
than its bound is flagged. Exits 1 if a run was not correct, a spread
exceeds its bound, or a median regressed past its bound. The spread of
`setup_s` is printed but not gated, as in the benchmark's acceptance rule
(set-up time is gated on its median only).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACE_SEED = 0


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: not correct", file=sys.stderr)
        print("\n".join(line for line in lines if line.startswith("# FAIL")), file=sys.stderr)
    return result


def summarise(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound, "values": values}


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--against", help="earlier summary to compare medians with")
    parser.add_argument("--out", help="write the summary here")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}

    ok = True
    seconds = spec["run_seconds"]
    summary = {"environment": environment(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs)
        entry = {"attempted": sum(r["attempted"] for r in runs), "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {}}
        for name, m in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs], m["bound"])
            entry["end_to_end"][name] = {"unit": m["unit"], "better": m["better"], **stats}
            flags = []
            if stats["spread"] > m["bound"] and name == "setup_s":
                flags.append("spread>bound (not gated)")
            elif stats["spread"] > m["bound"]:
                flags.append("SPREAD>BOUND")
                ok = False
            elif stats["spread"] > m["bound"] / 3:
                flags.append("spread>bound/3")
            if workload in earlier:
                old = earlier[workload]["end_to_end"][name]["median"]
                worse = (stats["median"] - old) / old * (1 if m["better"] == "lower" else -1)
                entry["end_to_end"][name]["worse_than_against"] = worse
                if worse > m["bound"]:
                    flags.append(f"REGRESSED {worse:+.3f}")
                    ok = False
            print(f"{workload:14s} {name:16s} median {stats['median']:.6g} {m['unit']:8s} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f} "
                  f"(bound {m['bound']}) {' '.join(flags)}", flush=True)
        traced = run_once(workload, TRACE_SEED, seconds, 1)
        ok &= traced["correct"]
        names = {m["name"] for m in spec["per_layer"]}
        if set(traced["metrics"]) != names:
            print(f"{workload}: per-layer names differ from BENCHMARK.json: "
                  f"{sorted(set(traced['metrics']) ^ names)}", file=sys.stderr)
            ok = False
        entry["per_layer"] = {"seed": TRACE_SEED, "metrics": traced["metrics"]}
        summary["workloads"][workload] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print("collect:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
