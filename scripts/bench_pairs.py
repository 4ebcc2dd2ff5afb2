"""Benchmark a parent revision against this checkout in alternating pairs.

Usage: python3 scripts/bench_pairs.py --parent REV --out BENCH_N.json
           [--first-seed 1] [--trace] [--scratch DIR]

The change is this checkout as it stands; the parent is ``git archive
REV`` unpacked into a temporary directory (under ``--scratch`` when
given), so that the repository gets no second worktree.  Both sides run
their own copy of ``perfbench/run.py`` with the same arguments, for the
run length that BENCHMARK.json declares.  There are ten pairs; pair k
uses seed first-seed + k for both sides, and the side that runs first
alternates from pair to pair, parent first in pair 0.

For every workload and end-to-end metric of BENCHMARK.json, the output
records each side's median and quartiles over the pairs, and in how many
pairs the change read better than the parent and in how many the two
tied.  Every run is kept with its metrics.  With ``--trace``, one traced
run per side and workload (seed first-seed, a one-second untraced part)
adds the per-layer tables.  Each run's ``untraced`` list holds the
tracing targets that perfbench/run.py reported missing from the package
(empty on untraced runs and when the tracer found every target).  The
exit code is 1 when any run failed its correctness gate, else 0.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
# perfbench/run.py prints this before each traced name it could not find
UNTRACED = "not traced, no longer in the package: "


def unpack(rev: str, dest: Path) -> str:
    """Unpack the files of rev into dest; return its full commit id."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = dest / "parent.tar"
    subprocess.run(["git", "archive", "-o", str(archive), sha], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()
    return sha


def checkout_state() -> str:
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    dirty = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    return head + ("+uncommitted" if dirty else "")


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One perfbench/run.py invocation in tree; its result object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    untraced = [line.split(UNTRACED, 1)[1] for line in lines if UNTRACED in line]
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}, "exit_code": proc.returncode,
                "untraced": untraced}
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    result["untraced"] = untraced
    return result


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision to compare against")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--scratch", type=Path, help="directory for the parent's files")
    args = ap.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    metrics = declared["end_to_end"]
    workloads = [w["name"] for w in declared["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench-parent-", dir=args.scratch) as tmp:
        parent_sha = unpack(args.parent, Path(tmp))
        trees = {"parent": Path(tmp) / "tree", "change": ROOT}
        out = {
            "parent": parent_sha,
            "change": checkout_state(),
            "host": f"{os.cpu_count()} CPUs {platform.machine()}, "
                    f"{platform.python_implementation()} {platform.python_version()}",
            "command": f"perfbench/run.py --seconds {seconds:g} --trace 0",
            "pairs": PAIRS,
            "seeds": [args.first_seed + k for k in range(PAIRS)],
            "workloads": {},
        }
        runs = {name: [] for name in workloads}
        for k in range(PAIRS):
            seed = args.first_seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for name in workloads:
                for side in order:
                    result = run_bench(trees[side], name, seed, seconds, False)
                    runs[name].append({"pair": k, "seed": seed, "side": side,
                                       "first": side == order[0], **result})
                    wall = result["metrics"].get("wall_s", {}).get("value", float("nan"))
                    print(f"pair {k} {name} {side}: wall_s {wall:.3f} "
                          f"correct {result['correct']}", flush=True)
        for name in workloads:
            table = {}
            for metric in metrics:
                key, lower = metric["name"], metric["better"] == "lower"
                value = {
                    (r["pair"], r["side"]): r["metrics"][key]["value"]
                    for r in runs[name] if key in r["metrics"]
                }
                pairs = [k for k in range(PAIRS)
                         if (k, "parent") in value and (k, "change") in value]
                wins = sum(
                    1 for k in pairs
                    if (value[k, "change"] < value[k, "parent"]) == lower
                    and value[k, "change"] != value[k, "parent"]
                )
                ties = sum(1 for k in pairs if value[k, "change"] == value[k, "parent"])
                table[key] = {
                    "unit": metric["unit"],
                    "better": metric["better"],
                    "bound": metric["bound"],
                    **{side: summarize([value[k, side] for k in pairs])
                       for side in ("parent", "change")},
                    "change_wins": wins,
                    "ties": ties,
                    "pairs": len(pairs),
                } if len(pairs) > 1 else {"pairs": len(pairs)}
            out["workloads"][name] = {"end_to_end": table, "runs": runs[name]}
            if args.trace:
                out["workloads"][name]["trace"] = {
                    side: run_bench(trees[side], name, args.first_seed, 1.0, True)
                    for side in ("parent", "change")
                }
    args.out.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    failed = [f"{name} pair {r['pair']} {r['side']}"
              for name in workloads for r in runs[name] if not r["correct"]]
    failed += [f"{name} traced {side}"
               for name in workloads
               for side, r in out["workloads"][name].get("trace", {}).items()
               if not r["correct"]]
    for entry in failed:
        print(f"gate failed: {entry}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
