"""Smoke test of the benchmark harness on the tiny grid, traced.

The traced repetition reads the optimizer's ``OptResult.table``, the path
``write_csv`` returns and ``analyze(...).occupancy.occ``; the untraced one
checks every ``grid.csv`` against the harness reference.  A package change
that breaks either shows here as an exit code, a failed check or a wrong
point count.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_traced_grid_is_correct():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "grid",
           "--size", "tiny", "--trace", "1", "--seconds", "1", "--seed", "3",
           "--reference", "perfbench/reference/reference.json"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    # 8 x 8 points on each of the two scenarios
    assert result["metrics"]["optimizer.points"]["value"] == 128
