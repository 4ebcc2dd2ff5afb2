"""Smoke runs of the debugging scripts: each must exit 0 on a small input."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from qtschur.verify import RunConfig, SuiteContext

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

RUNS = [
    ("profile_relations.py", "--suite", "daha", "--ell", "1"),
    ("profile_relations.py", "--suite", "daha", "--ell", "1", "--mode", "numeric"),
    ("wrap_node_table.py",),
    ("count_calls.py", "--ell", "1", "--modes", "0"),
    ("bench_pairs.py", "--help"),
    ("sweep_suites.py", "--help"),
]


def run_id(run):
    """The script name, and the stage when the run picks one."""
    return run[0] + (f"-{run[-1]}" if "--mode" in run else "")


@pytest.mark.parametrize("argv", RUNS, ids=[run_id(run) for run in RUNS])
def test_script_exits_zero(argv):
    script, *args = argv
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_count_calls_prints_the_plan_shape():
    # toroidal m3 n1 ell1 R0: 4 keys, each a batch of the 7 battery factors
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "count_calls.py"), "--ell", "1", "--modes", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = dict(line.rsplit(None, 1) for line in proc.stdout.splitlines()[1:-1])
    ctx = SuiteContext.for_suite("toroidal", RunConfig(m=3, n=1, ell=1, modes=0))
    assert int(lines["batches per stage"]) == len(ctx.batches(0, len(ctx.instances))) == 4
    assert int(lines["plan nodes"].replace(",", "")) == len(ctx.letters)
    assert int(lines["peak live node images"]) == ctx.peak < len(ctx.letters)
    # the entries of the word tables of each stage's algebra context after
    # the same run
    ctx.verdicts(0, len(ctx.instances))
    for stage, battery, _ in ctx.stages:
        cached = sum(map(len, battery[0][1].space.daha._word_cache.values()))
        assert int(lines[f"word-cache entries, {stage}"].replace(",", "")) == cached > 0
    # the child's table holds the run's values, and a product or a sum
    # of them is memoized at most once per operand pair
    values = int(lines["interned Scalars"].replace(",", ""))
    entries = int(lines["Scalar memo entries"].replace(",", ""))
    assert 0 < values and 0 < entries <= 2 * values**2


def test_count_calls_exits_quietly_when_the_reader_stops():
    # count_calls.py ... | head -3: a reader that closes the pipe early
    # ends the script with exit code 1 and no traceback
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPTS / "count_calls.py"), "--ell", "1", "--modes", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == ""


def test_bench_run_keeps_untraced_names(tmp_path):
    # a stand-in for perfbench/run.py whose tracer lost one target
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        'print("traced run: 1.000 s")\n'
        'print("  not traced, no longer in the package: verify.report.to_json")\n'
        'print(\'{"correct": true, "metrics": {}}\')\n'
    )
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    result = bench.run_bench(tmp_path, "toroidal-tensor", 1, 1.0, True)
    assert result["untraced"] == ["verify.report.to_json"]
    assert result["correct"] and result["exit_code"] == 0
