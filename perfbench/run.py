"""Benchmark of ``qtschur verify``: end-to-end cost and a per-layer table.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is one verify command (``workloads.json``), run
through ``qtschur.cli.main`` in a fresh interpreter with ``--jobs 1``.
Cold runs are started one after another while at least half a mean run
time of the ``--seconds`` is left (always at least one).

Every run must pass the correctness gate: exit code 0, a summary line
with no failed row, the expected excluded and total row counts, and a
report whose sha256 equals the digest recorded for the workload.  The
seed picks the numeric sample point (q0, d0); seed 0 is the CLI's own
default.  The report records neither, so its digest does not depend on
the seed.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics, medians over the run's cold runs.  The timings
(``wall_s``, ``cpu_s``, ``rows_per_s`` and ``setup_s``) are taken at
nominal host speed: each raw time is divided by the host's pace during
it, measured with a fixed reference computation (pace.py), because the
shared host's own speed drifts by more than the bounds between runs.
The raw medians and the pace are printed above the result line.
``rows_per_s`` counts checked (not excluded) rows, ``pass_ratio`` is
passed over checked rows, and ``setup_s`` is the median of fresh
set-ups timed between the runs.  With ``--trace 1`` the untraced runs are followed by
one traced run, whose per-layer table is reported instead, together
with the tracing overhead.

``workloads.json`` also keeps ``toroidal-modes`` (verify toroidal m3 n1
ell1 R2) for runs by hand; BENCHMARK.json leaves it out so that the
repeated runs of the other two fit their time budget.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_BLOCK = 3
# Children still running this long after the start are killed, so that
# a hung run ends with a failure instead of never.
DEADLINE_S = 170.0

END_TO_END = [
    # name, unit
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("rows_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("report_bytes", "bytes"),
    ("pass_ratio", "ratio"),
]

# Per-layer metrics of the traced run, each with the end-to-end metric
# and workload it is expected to move.
PER_LAYER = [
    # name, unit, better, moves
    ("scalar.mul.calls", "count", "lower", "cpu_s on toroidal-tensor"),
    ("scalar.mul.self_s", "s", "lower", "cpu_s on toroidal-tensor"),
    ("scalar.add.calls", "count", "lower", "cpu_s on toroidal-tensor"),
    ("scalar.add.self_s", "s", "lower", "cpu_s on toroidal-tensor"),
    ("scalar.stream.calls", "count", "lower", "wall_s on toroidal-modes"),
    ("scalar.stream.self_s", "s", "lower", "wall_s on toroidal-modes"),
    ("superdata.tau_power.calls", "count", "lower", "wall_s on toroidal-modes"),
    ("superdata.tau_power.self_s", "s", "lower", "wall_s on toroidal-modes"),
    ("hecke.right_mul_T.calls", "count", "lower", "wall_s on toroidal-tensor"),
    ("hecke.right_mul_T.self_s", "s", "lower", "wall_s on toroidal-tensor"),
    ("hecke.right_mul_X.calls", "count", "lower", "wall_s on both toroidal workloads"),
    ("hecke.right_mul_X.self_s", "s", "lower", "wall_s on both toroidal workloads"),
    ("hecke.right_mul_Y.calls", "count", "lower", "wall_s on affine-chevalley"),
    ("hecke.right_mul_Y.self_s", "s", "lower", "wall_s on affine-chevalley"),
    ("looprep.tensor_leg_apply.calls", "count", "lower", "wall_s on affine-chevalley"),
    ("looprep.tensor_leg_apply.self_s", "s", "lower", "wall_s on affine-chevalley"),
    ("toroidal.mode_apply.numeric.calls", "count", "lower", "wall_s on toroidal-modes"),
    ("toroidal.mode_apply.numeric.self_s", "s", "lower", "wall_s on toroidal-modes"),
    ("toroidal.mode_apply.symbolic.calls", "count", "lower", "wall_s on toroidal-modes"),
    ("toroidal.mode_apply.symbolic.self_s", "s", "lower", "wall_s on toroidal-modes"),
    ("toroidal.mode_apply.distinct_ratio", "ratio", "higher",
     "wall_s on both toroidal workloads"),
    ("toroidal.chevalley.numeric.calls", "count", "lower", "wall_s on affine-chevalley"),
    ("toroidal.chevalley.numeric.self_s", "s", "lower", "wall_s on affine-chevalley"),
    ("toroidal.chevalley.symbolic.calls", "count", "lower", "wall_s on affine-chevalley"),
    ("toroidal.chevalley.symbolic.self_s", "s", "lower", "wall_s on affine-chevalley"),
    ("toroidal.psi.calls", "count", "lower", "wall_s on toroidal-modes"),
    ("toroidal.psi.self_s", "s", "lower", "wall_s on toroidal-modes"),
    ("toroidal.key_is_dead.calls", "count", "lower", "wall_s on toroidal-tensor"),
    ("toroidal.key_is_dead.self_s", "s", "lower", "wall_s on toroidal-tensor"),
    ("toroidal.key_is_dead.dead_ratio", "ratio", "higher", "wall_s on toroidal-tensor"),
    ("toroidal.sort_schedule.calls", "count", "lower", "wall_s on toroidal-tensor"),
    ("toroidal.sort_schedule.distinct_ratio", "ratio", "higher",
     "wall_s on toroidal-tensor"),
    ("verify.enumerate.self_s", "s", "lower", "setup_s on every workload"),
    ("verify.run_suite.self_s", "s", "lower", "wall_s on every workload"),
    ("verify.stage.numeric_s", "s", "lower", "cpu_s on every workload"),
    ("verify.stage.symbolic_s", "s", "lower", "cpu_s on every workload"),
    ("verify.report.to_json_s", "s", "lower", "wall_s and peak_rss_mb on toroidal-modes"),
    ("cli.main.self_s", "s", "lower", "wall_s on every workload"),
    ("trace.overhead_s", "s", "lower", "none; cost of the traced run"),
]

_SUMMARY = re.compile(r"^(\w+): (\d+) pass, (\d+) fail, (\d+) excluded$", re.M)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Workload:
    name: str
    suite: str
    m: int
    n: int
    ell: int
    modes: int
    rows: int
    excluded: int
    report_sha256: str

    def job(self, seed: int, out: Path) -> dict:
        """Configuration handed to child.py for one cold run."""
        q0, d0 = sample_point(seed)
        argv = ["verify", self.suite, "--m", str(self.m), "--n", str(self.n),
                "--ell", str(self.ell)]
        if self.suite == "toroidal":
            argv += ["--modes", str(self.modes)]
        argv += ["--parity", "standard", "--mode", "both", "--jobs", "1",
                 f"--q0={q0}", f"--d0={d0}", "--seed", str(seed), "--out", str(out)]
        return {"suite": self.suite, "m": self.m, "n": self.n, "ell": self.ell,
                "modes": self.modes, "q0": q0, "d0": d0, "seed": seed, "argv": argv}


def load_workloads() -> dict[str, Workload]:
    table = json.loads((HERE / "workloads.json").read_text())
    return {name: Workload(name=name, **spec) for name, spec in table.items()}


def sample_point(seed: int) -> tuple[str, str]:
    """Numeric sample point (q0, d0) for a seed: small-height rationals."""
    if seed == 0:
        return "2", "3"
    rng = random.Random(seed)
    while True:
        q0 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        d0 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if q0 not in (0, 1, -1) and d0 != 0:
            return str(q0), str(d0)


# ----------------------------------------------------------------------
# child processes


def run_child(mode: str, job: dict, deadline: float) -> tuple[dict, str]:
    """Run child.py once; return its JSON result and the text before it."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before a child could start")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # Import from cached bytecode, as an installed package does; the
    # unmeasured first set-up writes it under src/.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} run did not end within {timeout:.0f} s") from exc
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def gate(wl: Workload, result: dict, text: str, report: Path) -> dict:
    """Check one verify run; return its row counts and the problems found."""
    found = _SUMMARY.findall(text)
    if found:
        suite, passed, failed, excluded = found[-1][0], *map(int, found[-1][1:])
    else:
        suite, passed, failed, excluded = "", 0, 0, 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else ""
    problems = []
    if result["rc"] != 0:
        problems.append(f"exit code {result['rc']}")
    if suite != wl.suite:
        problems.append("no summary line for the suite")
    if failed:
        problems.append(f"{failed} failed rows")
    if excluded != wl.excluded:
        problems.append(f"{excluded} excluded rows, expected {wl.excluded}")
    if passed + failed + excluded != wl.rows:
        problems.append(f"{passed + failed + excluded} rows, expected {wl.rows}")
    if digest != wl.report_sha256:
        problems.append(f"report sha256 {digest or '(no report)'}, expected {wl.report_sha256}")
    return {
        "passed": passed,
        "checked": wl.rows - wl.excluded,
        "report_bytes": report.stat().st_size if report.exists() else 0,
        "problems": problems,
    }


def verify_once(wl: Workload, seed: int, mode: str, deadline: float) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    report = WORK / f"{wl.name}-report.json"
    report.unlink(missing_ok=True)
    result, text = run_child(mode, wl.job(seed, report), deadline)
    result.update(gate(wl, result, text, report))
    report.unlink(missing_ok=True)
    for problem in result["problems"]:
        print(f"gate: {wl.name} {mode} run: {problem}", file=sys.stderr)
    return result


def measure(wl: Workload, seed: int, seconds: float, deadline: float,
            with_setup: bool) -> tuple[list[dict], list[dict]]:
    """Untraced cold runs while half a mean run still fits in seconds.

    With with_setup, SETUP_BLOCK fresh set-ups are timed before every run
    and after the last, so that they sample the same stretch of time as
    the runs: the machine's speed can drift over a few seconds.  One
    unmeasured set-up first fills the bytecode cache.
    """
    job = wl.job(seed, WORK / "unused")
    runs: list[dict] = []
    setups: list[dict] = []

    def time_setups():
        if with_setup:
            setups.extend(run_child("setup", job, deadline)[0]
                          for _ in range(SETUP_BLOCK))

    if with_setup:
        run_child("setup", job, deadline)
    start = time.perf_counter()
    while True:
        time_setups()
        runs.append(verify_once(wl, seed, "verify", deadline))
        spent = time.perf_counter() - start
        if seconds - spent < spent / len(runs) / 2:
            time_setups()
            return runs, setups


# ----------------------------------------------------------------------
# metrics


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(runs: list[dict], setups: list[dict]) -> dict[str, list[float]]:
    """Samples of every end-to-end metric, one per cold run or set-up.

    Timings are scaled to nominal host speed (see pace.py).
    """
    checked = sum(r["checked"] for r in runs)
    return {
        "wall_s": [r["wall_s"] / r["pace"] for r in runs],
        "cpu_s": [r["cpu_s"] / r["pace"] for r in runs],
        "rows_per_s": [r["checked"] * r["pace"] / r["wall_s"] for r in runs],
        "setup_s": [s["setup_s"] / s["pace"] for s in setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "report_bytes": [r["report_bytes"] for r in runs],
        "pass_ratio": [sum(r["passed"] for r in runs) / checked],
    }


def _ratio(part: float, whole: float, empty: float) -> float:
    return part / whole if whole else empty


def per_layer(snapshot: dict, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer table from a tracer snapshot (see tracing.Tracer)."""
    totals: dict = {}
    for name, stage, calls, _total, own in snapshot["spans"]:
        for key in ((name, "any"), (name, stage)):
            entry = totals.setdefault(key, [0, 0.0])
            entry[0] += calls
            entry[1] += own

    def calls(name, stage="any"):
        return totals.get((name, stage), [0, 0.0])[0]

    def own(name, stage="any"):
        return totals.get((name, stage), [0, 0.0])[1]

    out: dict[str, float] = {}
    for layer in ("scalar.mul", "scalar.add", "scalar.stream", "superdata.tau_power",
                  "hecke.right_mul_T", "hecke.right_mul_X", "hecke.right_mul_Y",
                  "looprep.tensor_leg_apply"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.self_s"] = own(layer)
    for layer in ("toroidal.mode_apply", "toroidal.chevalley"):
        for stage in ("numeric", "symbolic"):
            out[f"{layer}.{stage}.calls"] = calls(layer, stage)
            out[f"{layer}.{stage}.self_s"] = own(layer, stage)
    out["toroidal.mode_apply.distinct_ratio"] = _ratio(
        snapshot["mode_distinct"], calls("toroidal.mode_apply"), 1.0)
    for layer in ("toroidal.psi", "toroidal.key_is_dead"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.self_s"] = own(layer)
    out["toroidal.key_is_dead.dead_ratio"] = _ratio(
        snapshot["dead"], calls("toroidal.key_is_dead"), 0.0)
    out["toroidal.sort_schedule.calls"] = calls("toroidal.sort_schedule")
    out["toroidal.sort_schedule.distinct_ratio"] = _ratio(
        snapshot["sort_distinct"], calls("toroidal.sort_schedule"), 1.0)
    out["verify.enumerate.self_s"] = own("verify.enumerate")
    out["verify.run_suite.self_s"] = own("verify.run_suite")
    out["verify.stage.numeric_s"] = snapshot["stage_s"]["numeric"]
    out["verify.stage.symbolic_s"] = snapshot["stage_s"]["symbolic"]
    out["verify.report.to_json_s"] = own("verify.report.to_json")
    out["cli.main.self_s"] = own("cli.main")
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


# ----------------------------------------------------------------------
# command line


def bench(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; the result object printed as the last line."""
    deadline = time.perf_counter() + DEADLINE_S
    q0, d0 = sample_point(seed)
    print(f"workload {wl.name}, seed {seed} (q0 = {q0}, d0 = {d0})")
    runs, setups = measure(wl, seed, seconds, deadline, with_setup=not trace)
    attempted = len(runs)
    failed = sum(1 for r in runs if r["problems"])
    if trace:
        traced = verify_once(wl, seed, "trace", deadline)
        attempted += 1
        if traced["problems"] or not traced["restored"]:
            failed += 1
        untraced_wall = statistics.median(r["wall_s"] for r in runs)
        values = per_layer(traced["trace"], traced["wall_s"], untraced_wall)
        print(f"traced run: {traced['wall_s']:.3f} s, untraced median "
              f"{untraced_wall:.3f} s over {len(runs)} runs, "
              f"{traced['patched']} bindings wrapped")
        for name in traced["trace"]["missing"]:
            print(f"  not traced, no longer in the package: {name}")
        declared = [(name, unit) for name, unit, _, _ in PER_LAYER]
        for name, unit in declared:
            print(f"  {name:<40} {values[name]:>14.6g} {unit}")
    else:
        samples = end_to_end(runs, setups)
        values = {}
        declared = END_TO_END
        for name, unit in declared:
            sample = samples[name]
            values[name] = statistics.median(sample)
            q1, q3 = quartiles(sample)
            print(f"  {name:<14} {values[name]:>14.6g} {unit:<6} "
                  f"median of {len(sample)}, quartiles {q1:.6g} .. {q3:.6g}")
        raw = {"wall_s": [r["wall_s"] for r in runs], "cpu_s": [r["cpu_s"] for r in runs],
               "setup_s": [s["setup_s"] for s in setups],
               "pace": [x["pace"] for x in runs + setups]}
        print("  unscaled medians: " + ", ".join(
            f"{name} {statistics.median(sample):.6g}" for name, sample in raw.items()))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "qtschur" / "cli.py").is_file():
            raise BenchError(f"no qtschur sources under {SRC}")
        workloads = load_workloads()
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"known: {', '.join(workloads)}")
        result = bench(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
