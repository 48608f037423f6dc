"""Smoke tests of the benchmark harness on its tiny sizes.

The traced ``grid`` repetition reads the optimizer's ``OptResult.table``,
the path ``write_csv`` returns and ``analyze(...).occupancy.occ``; the
untraced one checks every ``grid.csv`` against the harness reference.  The
untraced ``mc_dense`` and ``adapt_loop`` runs check the simulator's Monte
Carlo outputs against that reference.  A package change that breaks any of
them shows here as an exit code, a failed check or a wrong point count.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_tiny(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--size", "tiny", "--trace", str(trace), "--seconds", "1",
           "--seed", "3", "--reference", "perfbench/reference/reference.json"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    return result


def test_tiny_traced_grid_is_correct():
    result = run_tiny("grid", trace=1)
    # 8 x 8 points on each of the two scenarios
    assert result["metrics"]["optimizer.points"]["value"] == 128


@pytest.mark.parametrize("workload", ["mc_dense", "adapt_loop"])
def test_tiny_untraced_monte_carlo_is_correct(workload):
    result = run_tiny(workload, trace=0)
    assert result["attempted"] > 0
