"""Repeat the benchmark over seeds and summarise it, e.g. for a baseline file.

    python3 perfbench/collect.py --runs 10 --label "commit abc1234" \
        --out perfbench/baseline.json [--workloads a,b] [--trace]

Runs ``run.py`` once per seed (0 .. runs-1) on every workload, with the
run length from BENCHMARK.json, and records for each end-to-end metric
every value, the median, the quartiles (``statistics.quantiles(values,
n=4)``), the sample count and the spread: the distance between the
quartiles as a share of the median.  With ``--trace`` one traced run
(seed 0) per workload adds its per-layer table.  Prints the spreads as
it goes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True)
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: a run failed the correctness gate")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    chosen = args.workloads.split(",") if args.workloads else list(whys)
    summary = {
        "label": args.label,
        "machine": f"{os.cpu_count()} CPUs {platform.machine()}, "
                   f"{platform.python_implementation()} {platform.python_version()}",
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(args.runs)),
        "workloads": {},
        "layer_map": {name: moves for name, _, _, moves in run.PER_LAYER},
    }
    for workload in chosen:
        samples: dict[str, list] = {}
        for seed in range(args.runs):
            for name, value in run_once(workload, seed, spec["run_seconds"], False).items():
                samples.setdefault(name, []).append(value)
        entry = {"why": whys[workload], "end_to_end": {}}
        for name, values in samples.items():
            entry["end_to_end"][name] = stats = summarise(values)
            print(f"{workload:<17} {name:<12} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f} (bound {bounds[name]})", flush=True)
        if args.trace:
            entry["per_layer"] = run_once(workload, 0, spec["run_seconds"], True)
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
