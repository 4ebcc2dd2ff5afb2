"""Smoke runs of the debugging scripts: each must exit 0 on a small input."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

RUNS = [
    ("profile_relations.py", "--suite", "daha", "--ell", "1"),
    ("profile_relations.py", "--suite", "daha", "--ell", "1", "--mode", "numeric"),
    ("wrap_node_table.py",),
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
