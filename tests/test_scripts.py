"""Smoke runs of the debugging scripts: each must exit 0 on a small input."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

RUNS = [
    ("profile_relations.py", "--suite", "daha", "--ell", "1"),
    ("wrap_node_table.py",),
    ("bench_pairs.py", "--help"),
    ("sweep_suites.py", "--help"),
]


@pytest.mark.parametrize("argv", RUNS, ids=[run[0] for run in RUNS])
def test_script_exits_zero(argv):
    script, *args = argv
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
