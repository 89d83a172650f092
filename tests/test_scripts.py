"""Smoke runs of the experiment scripts on tiny settings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, header", [
    ("run_bias_demo.py", ("--replicates", "1", "--oracle-draws", "1000"),
     ["rep", "jps", "err", "naive", "err", "jps", "z*", "naive", "z*"]),
    ("run_coverage_study.py", ("--datasets", "1", "--replicates", "2"),
     ["z", "truth", "coverage", "mean", "width"]),
])
def test_script_runs(script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert header in [line.split() for line in proc.stdout.splitlines()]
